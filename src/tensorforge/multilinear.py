"""Basis-indexed multilinear data: spaces, trilinear tables, pair actions.

Tables store structure constants sparsely (absent key = zero value) with
0-based indices internally; the file format and all reports use 1-based
indices. Alternating tables keep only increasing keys and recover every
other slot order through permutation signs. Operators are sparse `Matrix`
values, and the support joins (`_feeds`, `_products`) read only their
nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError
from .linalg import Matrix, Vector, ZERO, fmt_rat


@dataclass(frozen=True)
class Space:
    """A finite-dimensional coordinate space with labeled basis vectors."""

    name: str
    dim: int
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.dim < 0:
            raise InputError(f"space {self.name!r} has negative dimension")
        labels = self.basis_labels or tuple(
            f"e{i + 1}" for i in range(self.dim)
        )
        if len(labels) != self.dim:
            raise InputError(
                f"space {self.name!r}: {len(labels)} labels for dimension {self.dim}"
            )
        if len(set(labels)) != len(labels):
            raise InputError(f"space {self.name!r}: duplicate basis labels")
        object.__setattr__(self, "basis_labels", tuple(labels))

    def basis_vector(self, i: int) -> Vector:
        return Vector.unit(self.dim, i)

    def label(self, i: int) -> str:
        return self.basis_labels[i]

    def zero(self) -> Vector:
        return Vector.zero(self.dim)


def format_vector(space: Space, v: Vector | None) -> str:
    """Human form of a vector as a signed combination of basis labels."""
    if v is None or v.is_zero():
        return "0"
    parts = []
    for i, c in v.iter_nonzero():
        label = space.label(i)
        if c == 1:
            term = label
        elif c == -1:
            term = f"-{label}"
        else:
            term = f"{fmt_rat(c)}*{label}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def format_matrix(m: Matrix) -> str:
    """Sparse human form of a matrix: `[row,col]=value` terms, 1-based."""
    parts = [f"[{i + 1},{j + 1}]={fmt_rat(a)}" for (i, j), a in m.items()]
    return ", ".join(parts) if parts else "0"


def _extend(lookup, v: Vector | None, zero):
    """Linear extension in one slot: the sum of v_m * lookup(m) over m.

    lookup(m) is a table's value with basis vector e_m in that slot (None
    means zero); a None v is the zero vector, and the sum starts at zero.
    """
    acc = zero
    if v is None:
        return acc
    for m, c in v.iter_nonzero():
        val = lookup(m)
        if val is not None:
            acc = acc + val.scale(c)
    return acc


def _feeds(values: dict, keys, slot: int):
    """Join a table's values into one slot of another table's keys.

    Yields (vkey, rest) for every value values[vkey] with a nonzero
    coordinate m and every key in keys that has m in position slot; rest is
    that key with the slot removed. These are the only places where the
    composite "keys-table applied to values[vkey] in that slot" can be
    nonzero.
    """
    index = {}
    for key in keys:
        index.setdefault(key[slot], []).append(key[:slot] + key[slot + 1 :])
    for vkey, vec in values.items():
        for m, _ in vec.iter_nonzero():
            for rest in index.get(m, ()):
                yield vkey, rest


def _products(left: dict, right: dict) -> set:
    """Key pairs (a, b) where left[a] @ right[b] can be nonzero.

    left and right map keys to Matrices: the product is zero unless
    right[b] has a nonzero entry in a row m where left[a] has a nonzero
    column m.
    """
    by_column = {}
    for a, op in left.items():
        for (_, m), _ in op.items():
            by_column.setdefault(m, set()).add(a)
    return {
        (a, b)
        for b, op in right.items()
        for (m, _), _ in op.items()
        for a in by_column.get(m, ())
    }


def _check_index(space: Space, i: int, what: str):
    if not 0 <= i < space.dim:
        raise InputError(
            f"{what}: index {i + 1} out of range for space "
            f"{space.name!r} of dimension {space.dim}"
        )


def sort3(i: int, j: int, k: int) -> tuple[tuple[int, int, int], int] | None:
    """Sort a triple of indices; returns (sorted, sign) or None when repeated."""
    if i == j or j == k or i == k:
        return None
    sign = 1
    a, b, c = i, j, k
    if a > b:
        a, b, sign = b, a, -sign
    if b > c:
        b, c, sign = c, b, -sign
    if a > b:
        a, b, sign = b, a, -sign
    return (a, b, c), sign


class TrilinearTable:
    """Trilinear map V x V x V -> W from structure constants, no symmetry."""

    kind = "general"

    def __init__(self, domain: Space, codomain: Space, coords: dict):
        self.domain = domain
        self.codomain = codomain
        table = {}
        for key, vec in coords.items():
            i, j, k = key
            self._check_key(i, j, k)
            if not isinstance(vec, Vector):
                vec = Vector(vec)
            if vec.dim != codomain.dim:
                raise InputError(
                    f"table value at {tuple(x + 1 for x in key)} has dimension "
                    f"{vec.dim}, expected {codomain.dim}"
                )
            if not vec.is_zero():
                table[(i, j, k)] = vec
        self.coords = table

    def _check_key(self, i, j, k):
        for x in (i, j, k):
            _check_index(self.domain, x, "trilinear table")

    def value(self, i: int, j: int, k: int) -> Vector | None:
        """Value on basis vectors (e_i, e_j, e_k); None means zero."""
        return self.coords.get((i, j, k))

    def eval(self, x: Vector, y: Vector, z: Vector) -> Vector:
        acc = [ZERO] * self.codomain.dim
        for (i, j, k), vec in self.coords.items():
            c = x[i] * y[j] * z[k]
            if c:
                for t, a in vec.iter_nonzero():
                    acc[t] += c * a
        return Vector(acc)

    def items(self):
        return sorted(self.coords.items())

    def expand_ordered(self) -> dict:
        """Values on every ordered basis triple, as a plain dict."""
        return dict(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, TrilinearTable)
            and self.domain.dim == other.domain.dim
            and self.codomain.dim == other.codomain.dim
            and self.expand_ordered() == other.expand_ordered()
        )

    def __hash__(self):
        raise TypeError("trilinear tables are not hashable")


class AlternatingTrilinearTable(TrilinearTable):
    """Alternating trilinear map; keys are stored with i < j < k only."""

    kind = "alternating"

    def _check_key(self, i, j, k):
        super()._check_key(i, j, k)
        if not i < j < k:
            raise InputError(
                f"alternating table key {(i + 1, j + 1, k + 1)} must be increasing"
            )

    def value(self, i: int, j: int, k: int) -> Vector | None:
        sorted_sign = sort3(i, j, k)
        if sorted_sign is None:
            return None
        key, sign = sorted_sign
        vec = self.coords.get(key)
        if vec is None:
            return None
        return vec if sign == 1 else -vec

    def eval(self, x: Vector, y: Vector, z: Vector) -> Vector:
        acc = [ZERO] * self.codomain.dim
        xe, ye, ze = x.entries, y.entries, z.entries
        for (i, j, k), vec in self.coords.items():
            # 3x3 minor of the coordinate rows at columns (i, j, k)
            c = (
                xe[i] * (ye[j] * ze[k] - ye[k] * ze[j])
                - xe[j] * (ye[i] * ze[k] - ye[k] * ze[i])
                + xe[k] * (ye[i] * ze[j] - ye[j] * ze[i])
            )
            if c:
                for t, a in vec.iter_nonzero():
                    acc[t] += c * a
        return Vector(acc)

    def expand_ordered(self) -> dict:
        out = {}
        for (i, j, k), vec in self.coords.items():
            out[(i, j, k)] = vec
            out[(j, k, i)] = vec
            out[(k, i, j)] = vec
            neg = -vec
            out[(j, i, k)] = neg
            out[(i, k, j)] = neg
            out[(k, j, i)] = neg
        return out


class PairAction:
    """Bilinear alternating assignment of operators: (x, y) -> End(target).

    Stored on increasing source pairs; swapped pairs negate, repeated
    indices give zero.
    """

    def __init__(self, source: Space, target: Space, coords: dict):
        self.source = source
        self.target = target
        table = {}
        for (i, j), mat in coords.items():
            _check_index(source, i, "pair action")
            _check_index(source, j, "pair action")
            if not i < j:
                raise InputError(
                    f"pair action key {(i + 1, j + 1)} must be increasing"
                )
            if not isinstance(mat, Matrix):
                mat = Matrix(mat)
            if (mat.nrows, mat.ncols) != (target.dim, target.dim):
                raise InputError(
                    f"pair action operator at {(i + 1, j + 1)} is "
                    f"{mat.nrows}x{mat.ncols}, expected square of size {target.dim}"
                )
            if not mat.is_zero():
                table[(i, j)] = mat
        self.coords = table

    def at(self, i: int, j: int) -> Matrix | None:
        """Operator for basis pair (e_i, e_j); None means zero."""
        if i == j:
            return None
        if i < j:
            return self.coords.get((i, j))
        mat = self.coords.get((j, i))
        return None if mat is None else -mat

    def eval(self, x: Vector, y: Vector) -> Matrix:
        acc = Matrix.zeros(self.target.dim, self.target.dim)
        xe, ye = x.entries, y.entries
        for (i, j), mat in self.coords.items():
            c = xe[i] * ye[j] - xe[j] * ye[i]
            if c:
                acc = acc + mat.scale(c)
        return acc

    def apply(self, x: Vector, y: Vector, h: Vector) -> Vector:
        acc = Vector.zero(self.target.dim)
        xe, ye = x.entries, y.entries
        for (i, j), mat in self.coords.items():
            c = xe[i] * ye[j] - xe[j] * ye[i]
            if c:
                acc = acc + mat.mul_vec(h).scale(c)
        return acc

    def apply_pair(self, i: int, j: int, h: Vector) -> Vector:
        mat = self.at(i, j)
        return Vector.zero(self.target.dim) if mat is None else mat.mul_vec(h)

    def items(self):
        return sorted(self.coords.items())

    def __eq__(self, other):
        return (
            isinstance(other, PairAction)
            and self.source.dim == other.source.dim
            and self.target.dim == other.target.dim
            and self.coords == other.coords
        )


@dataclass(frozen=True)
class WedgePairBasis:
    """Increasing pairs (i, j), i < j, in lexicographic order: a basis of wedge^2."""

    space: Space
    pairs: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        n = self.space.dim
        object.__setattr__(
            self,
            "pairs",
            tuple((i, j) for i in range(n) for j in range(i + 1, n)),
        )

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def position(self, i: int, j: int) -> int:
        n = self.space.dim
        if not 0 <= i < j < n:
            raise InputError(f"not an increasing pair: {(i + 1, j + 1)}")
        return i * (2 * n - i - 1) // 2 + (j - i - 1)

    def wedge_expand(self, u: Vector, v: Vector) -> Vector:
        """Coordinates of u wedge v: entry (i, j) is u_i v_j - u_j v_i."""
        if u.dim != self.space.dim or v.dim != self.space.dim:
            raise InputError("wedge_expand: vector dimension mismatch")
        ue, ve = u.entries, v.entries
        return Vector(
            tuple(ue[i] * ve[j] - ue[j] * ve[i] for i, j in self.pairs)
        )

    def label(self, pos: int) -> str:
        i, j = self.pairs[pos]
        return f"{self.space.label(i)}^{self.space.label(j)}"
