"""Exact rational scalars, vectors, matrices, and elimination.

Every number in the package is a `fractions.Fraction`; nothing here ever
rounds. Two elimination kernels sit behind the public functions, both with
first-nonzero pivoting on rows mutated in place:

- `_bareiss_rank`: fraction-free (Bareiss) elimination over integers, after
  each row's denominators are cleared. `rank` needs only the pivot count,
  and plain integer steps skip the gcd that every Fraction operation pays.
  On the dense-basis 576x96 degree-2 differential of `example_2_8` it takes
  0.4 s where `_rref_rows` takes 2 s (CPython 3.11, 2-vCPU Xeon VM).
- `_rref_rows`: reduced row echelon form over Fraction. `kernel_basis`,
  `solve_membership` and `_rref` need the reduced rows themselves, which
  Bareiss does not give.
"""

from __future__ import annotations

import math
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


def _integer_rows(m: Matrix) -> list[list[int]]:
    # clear denominators row by row; row scaling cannot change the rank
    out = []
    for row in m.rows:
        lcm = 1
        for a in row:
            if a.denominator != 1:
                lcm = lcm * a.denominator // math.gcd(lcm, a.denominator)
        out.append([int(a * lcm) for a in row])
    return out


def _bareiss_rank(rows):
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = -1
        for i in range(r, m):
            if rows[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        row_r = rows[r]
        for i in range(r + 1, m):
            row_i = rows[i]
            x = row_i[c]
            if x:
                for j in range(c + 1, n):
                    # exact by the Bareiss divisibility invariant
                    row_i[j] = (p * row_i[j] - x * row_r[j]) // prev
            else:
                for j in range(c + 1, n):
                    row_i[j] = (p * row_i[j]) // prev
            row_i[c] = 0
        prev = p
        r += 1
    return r


def _rref_rows(rows):
    """Reduced row echelon form over Fraction; returns the pivot column list."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = -1
        for i in range(r, m):
            if rows[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        if p != 1:
            inv = ONE / p
            rows[r] = [x * inv for x in rows[r]]
        row_r = rows[r]
        for i in range(m):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                row_i = rows[i]
                rows[i] = [a - f * b for a, b in zip(row_i, row_r)]
        pivots.append(c)
        r += 1
    return pivots


def rank(m: Matrix) -> int:
    """Exact rank via fraction-free integer elimination."""
    if m.nrows == 0 or m.ncols == 0:
        return 0
    return _bareiss_rank(_integer_rows(m))


def _rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    rows = [list(r) for r in m.rows]
    pivots = _rref_rows(rows)
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
    rows, pivots = _rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        coords = [ZERO] * n
        coords[free] = ONE
        for r, pc in enumerate(pivots):
            coords[pc] = -rows[r][free]
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
    aug = m.hstack(Matrix.from_cols([target]))
    rows, pivots = _rref(aug)
    if n in pivots:
        return None
    coords = [ZERO] * n
    for r, pc in enumerate(pivots):
        coords[pc] = rows[r][n]
    return Vector(coords)
