"""Exact rational scalars, vectors, matrices, and elimination.

Every number in the package is a `fractions.Fraction`; nothing here ever
rounds. One sparse elimination kernel, `_eliminate`, sits behind `rank`,
`kernel_basis`, `solve_membership` and `_rref`. Each row is a
`{column: value}` dict of its nonzeros, and a column -> rows index finds
the rows a pivot must clear. Pivots are taken in column order; in each
column the pivot is the candidate row with the fewest nonzeros (lowest
index on ties), which keeps fill-in low on the very sparse cochain
differentials (the 2500x250 degree-2 differential of a dim-5 nilpotent
problem has a density of 0.003). `rank` stops after the forward pass; the
others also clear each pivot column above its pivot. The reduced row
echelon form of a matrix is unique, so the pivot rule changes the work but
not the kernel bases, solutions or pivot columns these functions return.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

# the one elimination backend; kept because scripts report it
KERNEL_BACKEND = "pure"

Scalar = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Parse a rational from an int, a `p/q` / `p` string, or a Fraction.

    Floats are rejected: every scalar in the system must stay exact.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {value!r}: {exc}") from None
    raise InputError(f"bad rational {value!r}: expected int or 'p/q' string")


def fmt_rat(q: Fraction) -> str:
    # Fraction's str is already the canonical reduced "p/q" (or "p") form
    return str(q)


class Vector:
    """Immutable coordinate vector of Fractions."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(
            e if type(e) is Fraction else rat(e) for e in entries
        )

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

    def dot(self, other: "Vector") -> Fraction:
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


class Matrix:
    """Immutable matrix of Fractions, stored as a tuple of row tuples."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols: int | None = None):
        self.rows = tuple(
            tuple(e if type(e) is Fraction else rat(e) for e in row)
            for row in rows
        )
        self.nrows = len(self.rows)
        if self.nrows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise InputError("ragged rows in matrix")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise InputError("matrix width disagrees with declared ncols")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def zeros(cls, m: int, n: int) -> "Matrix":
        return cls(((ZERO,) * n for _ in range(m)), ncols=n)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(
            (tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)),
            ncols=n,
        )

    @classmethod
    def from_cols(cls, cols, nrows: int | None = None) -> "Matrix":
        cols = [c.entries if isinstance(c, Vector) else tuple(c) for c in cols]
        if not cols:
            return cls.zeros(nrows or 0, 0)
        return cls(zip(*cols))

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = [rat(e) for e in entries]
        n = len(entries)
        return cls(
            (
                tuple(entries[i] if i == j else ZERO for j in range(n))
                for i in range(n)
            ),
            ncols=n,
        )

    def at(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def col(self, j: int) -> Vector:
        return Vector(tuple(r[j] for r in self.rows))

    def mul_vec(self, v: Vector) -> Vector:
        if v.dim != self.ncols:
            raise InputError(
                f"dimension mismatch: {self.nrows}x{self.ncols} matrix "
                f"applied to vector of dimension {v.dim}"
            )
        ve = v.entries
        return Vector(
            tuple(
                sum((a * b for a, b in zip(row, ve) if b), start=ZERO)
                for row in self.rows
            )
        )

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise InputError(
                f"dimension mismatch in matrix product: "
                f"{self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = [other.col(j).entries for j in range(other.ncols)]
        return Matrix(
            (
                tuple(
                    sum((a * b for a, b in zip(row, col) if a), start=ZERO)
                    for col in cols
                )
                for row in self.rows
            ),
            ncols=other.ncols,
        )

    def __matmul__(self, other):
        if isinstance(other, Vector):
            return self.mul_vec(other)
        return self.mul(other)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("matrix dimension mismatch in addition")
        return Matrix(
            (
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
            ncols=self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("matrix dimension mismatch in subtraction")
        return Matrix(
            (
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
            ncols=self.ncols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix((tuple(-a for a in r) for r in self.rows), ncols=self.ncols)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix(
            (tuple(c * a for a in r) for r in self.rows), ncols=self.ncols
        )

    def transpose(self) -> "Matrix":
        if self.nrows == 0:
            return Matrix.zeros(self.ncols, 0)
        return Matrix(zip(*self.rows), ncols=self.nrows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise InputError("row count mismatch in hstack")
        return Matrix(
            (r1 + r2 for r1, r2 in zip(self.rows, other.rows)),
            ncols=self.ncols + other.ncols,
        )

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(fmt_rat(a) for a in row) for row in self.rows
        )
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def _eliminate(rows, ncols: int, reduce: bool):
    """Sparse exact elimination; returns (pivot rows, pivot columns).

    `rows` is an iterable of dense rows. Each is copied into a dict that
    holds only its nonzeros, and `where[c]` is the set of unpivoted rows
    that are nonzero in column c. Columns are taken in order; the pivot is
    the candidate row with the fewest nonzeros, lowest index on ties. Each
    pivot row is divided by its pivot, so the returned rows are in echelon
    form with leading ones, in pivot-column order. With `reduce`, a
    backward pass also clears each pivot column above its pivot, which
    gives the reduced row echelon form.
    """
    sparse = [{j: a for j, a in enumerate(row) if a} for row in rows]
    where = [set() for _ in range(ncols)]
    for i, row in enumerate(sparse):
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
        if p != 1:
            inv = ONE / p
            for j in prow:
                prow[j] *= inv
        for i in below:
            row = sparse[i]
            f = row.pop(c)
            for j, b in prow.items():
                a = row.get(j)
                if a is None:
                    row[j] = -f * b
                    where[j].add(i)
                else:
                    a -= f * b
                    if a:
                        row[j] = a
                    else:
                        del row[j]
                        where[j].discard(i)
        below.clear()
        prow[c] = ONE
        out.append(prow)
        pivots.append(c)
    if reduce:
        for k in range(len(pivots) - 1, 0, -1):
            c, prow = pivots[k], out[k]
            for row in out[:k]:
                f = row.pop(c, None)
                if f is not None:
                    for j, b in prow.items():
                        if j != c:
                            a = row.get(j, ZERO) - f * b
                            if a:
                                row[j] = a
                            else:
                                del row[j]
    return out, pivots


def rank(m: Matrix) -> int:
    """Exact rank by sparse elimination (forward pass only)."""
    return len(_eliminate(m.rows, m.ncols, False)[1])


def _rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form as dense rows (zero rows last), and its pivots."""
    reduced, pivots = _eliminate(m.rows, m.ncols, True)
    rows = [[row.get(j, ZERO) for j in range(m.ncols)] for row in reduced]
    rows.extend([ZERO] * m.ncols for _ in range(m.nrows - len(rows)))
    return rows, pivots


def kernel_basis(m: Matrix) -> list[Vector]:
    """Deterministic basis of the exact null space.

    One vector per free column, in ascending free-column order: the free
    coordinate is 1 and the pivot coordinates are read off the reduced rows.
    """
    n = m.ncols
    if n == 0:
        return []
    if m.nrows == 0:
        return [Vector.unit(n, j) for j in range(n)]
    rows, pivots = _eliminate(m.rows, n, True)
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
    if m.nrows == 0:
        return Vector.zero(n)
    aug = ((*row, t) for row, t in zip(m.rows, target.entries))
    rows, pivots = _eliminate(aug, n + 1, True)
    if n in pivots:
        return None
    coords = [ZERO] * n
    for row, pc in zip(rows, pivots):
        coords[pc] = row.get(n, ZERO)
    return Vector(coords)
