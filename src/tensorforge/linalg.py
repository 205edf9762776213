"""Exact rational scalars, vectors, sparse matrices, and elimination.

Every number in the package is exact: an `int` when it is integral, and a
`fractions.Fraction` otherwise. The one division, `_div`, keeps a quotient
exact; nothing here ever rounds. The two hot exact kernels, `_eliminate`
and `multilinear._feed`, clear denominators once (`_cleared`), multiply
and add on ints at machine speed, and divide once at the end. A `Matrix`
stores only its nonzero entries, as nonzero columns `{col: {row: value}}`:
the cochain differentials are built one column per unit cochain and are
very sparse (the 2500x250 degree-2 differential of a dim-5 nilpotent
problem has a density of 0.003). The laws never multiply matrices: an
operator enters a law as the vectors of its nonzero columns.

One sparse elimination kernel, `_eliminate`, sits behind `rank`,
`kernel_basis`, `solve_membership` and `_rref`. It takes one
`{column: value}` dict of nonzeros per row, built from the matrix's
nonzeros, and a column -> rows index finds the rows a pivot must clear.
Pivots are taken in column order; in each column the pivot is the
candidate row with the fewest nonzeros (lowest index on ties), which keeps
fill-in low. `rank` stops after the forward pass; the others also clear
each pivot column above its pivot and divide each row by its pivot. The
reduced row echelon form of a matrix is unique, so the pivot rule changes
the work but not the kernel bases, solutions or pivot columns these
functions return.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import InputError

# the one elimination backend; kept because scripts report it
KERNEL_BACKEND = "pure"

Scalar = int | Fraction
ZERO = 0
ONE = 1


def rat(value) -> Scalar:
    """Parse a rational from an int, a `p/q` / `p` string, or a Fraction:
    an `int` when it is integral, a reduced Fraction otherwise.

    Floats are rejected: every scalar in the system must stay exact.
    """
    if isinstance(value, int):
        return int(value)  # a bool becomes a plain int
    if isinstance(value, str):
        try:
            value = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {value!r}: {exc}") from None
    elif type(value) is not Fraction:
        raise InputError(f"bad rational {value!r}: expected int or 'p/q' string")
    return value.numerator if value.denominator == 1 else value


def _exact(a: Scalar) -> Scalar:
    """A computed scalar as the package stores it, an `int` when it is
    integral, as `Vector` stores its entries."""
    return a if type(a) is int else rat(a)


def _div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, an `int` when it is integral; the only
    division in the package, since `/` on two ints gives a float."""
    if type(a) is int and type(b) is int:
        return Fraction(a, b) if a % b else a // b
    return rat(Fraction(a) / b)


def _cleared(values):
    """(d * values, d): a collection of scalars times their least common
    denominator d, as ints; `values` itself when they all are ints."""
    dens = {a.denominator for a in values if type(a) is not int}
    if not dens:
        return values, 1
    d = lcm(*dens)
    return [a.numerator * (d // a.denominator) for a in values], d


def fmt_rat(q: Scalar) -> str:
    # str of an int or a Fraction is already the canonical "p/q" (or "p") form
    return str(q)


class Vector:
    """Immutable coordinate vector of exact scalars."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(e if type(e) is int else rat(e) for e in entries)

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls((ZERO,) * dim)

    @classmethod
    def unit(cls, dim: int, i: int) -> "Vector":
        return cls(tuple(ONE if j == i else ZERO for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __add__(self, other: "Vector") -> "Vector":
        if len(self.entries) != len(other.entries):
            raise InputError("vector dimension mismatch in addition")
        return Vector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        if len(self.entries) != len(other.entries):
            raise InputError("vector dimension mismatch in subtraction")
        return Vector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vector":
        return Vector(tuple(-a for a in self.entries))

    def scale(self, c) -> "Vector":
        c = rat(c)
        return Vector(tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def iter_nonzero(self):
        for i, a in enumerate(self.entries):
            if a != 0:
                yield i, a

    def dot(self, other: "Vector") -> Scalar:
        if len(self.entries) != len(other.entries):
            raise InputError("vector dimension mismatch in dot product")
        return sum(
            (a * b for a, b in zip(self.entries, other.entries)), start=ZERO
        )

    def __eq__(self, other):
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Vector([{', '.join(fmt_rat(a) for a in self.entries)}])"


# the column of a matrix where it stores none: all zeros
_EMPTY: dict = {}


class Matrix:
    """Immutable matrix of exact scalars that stores only its nonzero entries.

    The storage is a dict of nonzero columns, `{col: {row: value}}`. No zero
    entry and no empty column is ever stored, so equal matrices have equal
    storage; a stored column is never mutated, so matrices share them.
    `rows` is a dense view, built on demand. Only this module reads the
    storage.
    """

    __slots__ = ("nrows", "ncols", "_cols")

    def __init__(self, rows, ncols: int | None = None):
        rows = [Vector(row).entries for row in rows]
        self.nrows = len(rows)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise InputError("ragged rows in matrix")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise InputError("matrix width disagrees with declared ncols")
        else:
            self.ncols = 0 if ncols is None else ncols
        cols = {}
        for i, row in enumerate(rows):
            for j, a in enumerate(row):
                if a:
                    cols.setdefault(j, {})[i] = a
        self._cols = cols

    @classmethod
    def _of(cls, nrows: int, ncols: int, cols: dict) -> "Matrix":
        """A matrix on nonzero columns that hold no zero (not checked)."""
        m = object.__new__(cls)
        m.nrows, m.ncols, m._cols = nrows, ncols, cols
        return m

    @classmethod
    def zeros(cls, m: int, n: int) -> "Matrix":
        return cls._of(m, n, {})

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, {j: {j: ONE} for j in range(n)})

    @classmethod
    def from_cols(cls, cols, nrows: int | None = None) -> "Matrix":
        """A matrix from its columns, left to right.

        A column is a Vector, a sequence of scalars, or a `{row: value}`
        dict of its entries; without a Vector or sequence column to take
        the height from, `nrows` gives it.
        """
        cols = list(cols)
        out = {}
        for j, c in enumerate(cols):
            if isinstance(c, dict):
                col = {i: _exact(a) for i, a in c.items() if a}
            else:
                entries = (c if isinstance(c, Vector) else Vector(c)).entries
                if nrows is None:
                    nrows = len(entries)
                elif len(entries) != nrows:
                    raise InputError("ragged columns in matrix")
                col = {i: a for i, a in enumerate(entries) if a}
            if col:
                out[j] = col
        return cls._of(nrows or 0, len(cols), out)

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = [rat(e) for e in entries]
        n = len(entries)
        return cls._of(n, n, {j: {j: a} for j, a in enumerate(entries) if a})

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense view: a tuple of row tuples."""
        dense = [[ZERO] * self.ncols for _ in range(self.nrows)]
        for j, col in self._cols.items():
            for i, a in col.items():
                dense[i][j] = a
        return tuple(map(tuple, dense))

    def items(self) -> list[tuple[tuple[int, int], Scalar]]:
        """The nonzero entries as ((row, col), value), in row-major order."""
        return sorted(
            ((i, j), a) for j, col in self._cols.items() for i, a in col.items()
        )

    def at(self, i: int, j: int) -> Scalar:
        i, j = range(self.nrows)[i], range(self.ncols)[j]  # IndexError if outside
        return self._cols.get(j, _EMPTY).get(i, ZERO)

    def row(self, i: int) -> Vector:
        return Vector(tuple(self.at(i, j) for j in range(self.ncols)))

    def col(self, j: int) -> Vector:
        j = range(self.ncols)[j]  # IndexError if outside
        entries = [ZERO] * self.nrows
        for i, a in self._cols.get(j, _EMPTY).items():
            entries[i] = a
        return Vector(entries)

    def mul_vec(self, v: Vector) -> Vector:
        if v.dim != self.ncols:
            raise InputError(
                f"dimension mismatch: {self.nrows}x{self.ncols} matrix "
                f"applied to vector of dimension {v.dim}"
            )
        ve = v.entries
        acc = [ZERO] * self.nrows
        for j, col in self._cols.items():
            b = ve[j]
            if b:
                for i, a in col.items():
                    acc[i] += a * b
        return Vector(acc)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise InputError(
                f"dimension mismatch in matrix product: "
                f"{self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        left = self._cols
        out = {}
        for j, ocol in other._cols.items():
            acc = {}
            for m, b in ocol.items():
                for i, a in left.get(m, _EMPTY).items():
                    acc[i] = acc.get(i, ZERO) + a * b
            col = {i: _exact(a) for i, a in acc.items() if a}
            if col:
                out[j] = col
        return Matrix._of(self.nrows, other.ncols, out)

    def __matmul__(self, other):
        if isinstance(other, Vector):
            return self.mul_vec(other)
        return self.mul(other)

    def _plus(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        """self + sign * other; the columns other leaves alone are shared."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError(f"matrix dimension mismatch in {what}")
        out = dict(self._cols)
        for j, ocol in other._cols.items():
            col = dict(out.get(j, _EMPTY))
            for i, b in ocol.items():
                a = col.get(i, ZERO)
                a = a + b if sign > 0 else a - b
                if a:
                    col[i] = _exact(a)
                else:
                    del col[i]
            if col:
                out[j] = col
            else:
                out.pop(j, None)
        return Matrix._of(self.nrows, self.ncols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1, "subtraction")

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        if not c:
            return Matrix.zeros(self.nrows, self.ncols)
        return Matrix._of(
            self.nrows,
            self.ncols,
            {
                j: {i: _exact(c * a) for i, a in col.items()}
                for j, col in self._cols.items()
            },
        )

    def transpose(self) -> "Matrix":
        out = {}
        for j, col in self._cols.items():
            for i, a in col.items():
                out.setdefault(i, {})[j] = a
        return Matrix._of(self.ncols, self.nrows, out)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise InputError("row count mismatch in hstack")
        out = dict(self._cols)
        out.update((self.ncols + j, col) for j, col in other._cols.items())
        return Matrix._of(self.nrows, self.ncols + other.ncols, out)

    def is_zero(self) -> bool:
        return not self._cols

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._cols == other._cols
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, frozenset(self.items())))

    def __repr__(self):
        body = "; ".join(
            " ".join(fmt_rat(a) for a in row) for row in self.rows
        )
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def _kron(*factors: Matrix) -> Matrix:
    """The Kronecker product of the factors, the first the most significant."""
    nrows, ncols, cols = 1, 1, {0: {0: ONE}}
    for f in factors:
        cols = {
            j * f.ncols + fj: {
                i * f.nrows + fi: _exact(a * b)
                for i, a in col.items()
                for fi, b in fcol.items()
            }
            for j, col in cols.items()
            for fj, fcol in f._cols.items()
        }
        nrows, ncols = nrows * f.nrows, ncols * f.ncols
    return Matrix._of(nrows, ncols, cols)


def _kron_apply(factors: list[Matrix], v: Vector) -> Vector:
    """`_kron(*factors)` applied to v without forming the product.

    A coordinate of v is a digit tuple, one digit per factor, the first the
    most significant, read off its position. Each factor acts on its own
    digit in turn, touching only the nonzero coordinates: (A (x) B) vec X =
    vec(B X A^T), one mode at a time. The modes commute, so the order is
    free; they run last to first, because each dense factor fills the
    vector in and the work of a factor grows with the nonzeros it meets. In
    the cochain transport the value and final-slot maps come last and the
    dense pair transports first, so the small factors act while the cochain
    is still sparse.
    """
    size = prod(f.ncols for f in factors)
    if v.dim != size:
        raise InputError(
            f"dimension mismatch: Kronecker product with {size} columns "
            f"applied to vector of dimension {v.dim}"
        )
    coords = dict(v.iter_nonzero())
    low = 1  # the size of the modes after this one, already applied
    for f in reversed(factors):
        block, out = f.ncols * low, {}
        for pos, a in coords.items():
            high, rest = divmod(pos, block)
            d, tail = divmod(rest, low)
            for i, b in f._cols.get(d, _EMPTY).items():
                k = (high * f.nrows + i) * low + tail
                out[k] = out.get(k, ZERO) + b * a
        coords = {k: a for k, a in out.items() if a}
        low *= f.nrows
    entries = [ZERO] * low
    for pos, a in coords.items():
        entries[pos] = a
    return Vector(entries)


def _row_dicts(m: Matrix) -> list[dict]:
    """One fresh `{col: value}` dict of nonzeros per row of m."""
    rows = [{} for _ in range(m.nrows)]
    for j, col in m._cols.items():
        for i, a in col.items():
            rows[i][j] = a
    return rows


def _cancel(row: dict, f: int, prow: dict, p: int, i: int, where: list) -> None:
    """Clear the entry f (popped) of int row i with the pivot p (popped) of
    prow: row := (p/g)*row - (f/g)*prow, g = gcd(p, f); a row scaled up is
    divided by its content, the gcd of its entries. `where` follows row."""
    g = gcd(p, f)
    s, t = p // g, f // g
    if s != 1:
        for j in row:
            row[j] *= s
    for j, b in prow.items():
        a = row.get(j)
        if a is None:
            row[j] = -t * b
            where[j].add(i)
        else:
            a -= t * b
            if a:
                row[j] = a
            else:
                del row[j]
                where[j].discard(i)
    if s != 1 and s != -1 and (g := gcd(*row.values())) > 1:
        for j in row:
            row[j] //= g


def _eliminate(sparse: list[dict], ncols: int, reduce: bool):
    """Sparse exact elimination; returns (pivot rows, pivot columns).

    `sparse` holds one `{column: value}` dict of nonzeros per row, and the
    kernel consumes it. Each row is cleared of denominators once, and the
    multiply-adds run on ints (`_cancel`): an int row is a multiple of the
    row rational elimination would hold, with the same nonzeros, so the
    pivots are the same. `where[c]` is the set of unpivoted rows nonzero in
    column c. The rows come back in echelon form, in pivot-column order;
    with `reduce`, a backward pass also clears each pivot column above its
    pivot and divides each row by its pivot: the reduced row echelon form.
    """
    where = [set() for _ in range(ncols)]
    for i, row in enumerate(sparse):
        values = row.values()
        ints = _cleared(values)[0]
        if ints is not values:
            sparse[i] = row = dict(zip(row, ints))
        for j in row:
            where[j].add(i)
    out = []
    pivots = []
    for c in range(ncols):
        below = where[c]
        if not below:
            continue
        piv = min(below, key=lambda i: (len(sparse[i]), i))
        prow = sparse[piv]
        for j in prow:
            where[j].discard(piv)
        p = prow.pop(c)
        for i in below:
            row = sparse[i]
            _cancel(row, row.pop(c), prow, p, i, where)
        below.clear()
        prow[c] = p
        out.append(prow)
        pivots.append(c)
    if reduce:
        # the rows left unpivoted are empty, and `where` is no longer read
        for k in range(len(pivots) - 1, -1, -1):
            c, prow = pivots[k], out[k]
            p = prow.pop(c)
            for row in out[:k]:
                if c in row:
                    _cancel(row, row.pop(c), prow, p, -1, where)
            for j in prow:
                prow[j] = _div(prow[j], p)
            prow[c] = ONE
    return out, pivots


def rank(m: Matrix) -> int:
    """Exact rank by sparse elimination (forward pass only)."""
    return len(_eliminate(_row_dicts(m), m.ncols, False)[1])


def _rref(m: Matrix) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form as dense rows (zero rows last), and its pivots."""
    reduced, pivots = _eliminate(_row_dicts(m), m.ncols, True)
    rows = [[row.get(j, ZERO) for j in range(m.ncols)] for row in reduced]
    rows.extend([ZERO] * m.ncols for _ in range(m.nrows - len(rows)))
    return rows, pivots


def kernel_basis(m: Matrix) -> list[Vector]:
    """Deterministic basis of the exact null space.

    One vector per free column, in ascending free-column order: the free
    coordinate is 1 and the pivot coordinates are read off the reduced rows.
    """
    n = m.ncols
    rows, pivots = _eliminate(_row_dicts(m), n, True)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        coords = [ZERO] * n
        coords[free] = ONE
        for row, pc in zip(rows, pivots):
            coords[pc] = -row.get(free, ZERO)
        basis.append(Vector(coords))
    return basis


def solve_membership(m: Matrix, target: Vector) -> Vector | None:
    """Exact solution x of m @ x = target, or None when target is not in the image.

    Free coordinates are set to 0, so the answer is deterministic.
    """
    if target.dim != m.nrows:
        raise InputError(
            f"dimension mismatch: target has dimension {target.dim}, "
            f"matrix has {m.nrows} rows"
        )
    n = m.ncols
    aug = _row_dicts(m)
    for i, t in target.iter_nonzero():
        aug[i][n] = t
    rows, pivots = _eliminate(aug, n + 1, True)
    if n in pivots:
        return None
    coords = [ZERO] * n
    for row, pc in zip(rows, pivots):
        coords[pc] = row.get(n, ZERO)
    return Vector(coords)
