"""Basis-indexed multilinear data: spaces, trilinear tables, pair actions.

Tables store structure constants sparsely (absent key = zero value) with
0-based indices internally; the file format and all reports use 1-based
indices. The stored maps (trilinear tables, pair actions, Lie brackets)
share one base, `_Multilinear`, the one place that holds the
increasing-key rule: an alternating map keeps only increasing keys and
recovers every other slot order through permutation signs. Operators are
sparse `Matrix` values. Every container checks and cleans its table with
one constructor, `_sparse_table`: keys in range (and increasing, where
only those are stored), values of the declared shape, zeros dropped.

Every law the package checks, and every structure it builds, is a sum of
contractions of these tables, each term a sparse term table, `{basis tuple:
vector}`, made by two combinators that touch only nonzero entries: `_feed`
puts one table's vectors into a slot of another, and `_relabel` puts a
term's indices in the order of the law's scope. An operator enters as its
nonzero columns, `{key + (c,): op e_c}` (`_columns`); feeding into the
column slot composes operators, and `_derivation` builds every law that an
operator is a derivation. A term's table holds a key only where it is
nonzero, so a law's keys are its support. `_sum` adds up a side.
"""

from __future__ import annotations

from itertools import permutations
from math import prod

from .errors import InputError
from .linalg import Matrix, Vector, ZERO, _cleared, _div, fmt_rat


class _Frozen:
    """Base of the classes whose fields are set once, in `__init__`:
    assigning or deleting an attribute afterwards raises
    `dataclasses.FrozenInstanceError`. A memo the class keeps on itself is
    written with `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Space(_Frozen):
    """A finite-dimensional coordinate space with labeled basis vectors.

    Spaces are values: equal when name, dimension and labels agree.
    """

    def __init__(self, name: str, dim: int, basis_labels: tuple[str, ...] = ()):
        if dim < 0:
            raise InputError(f"space {name!r} has negative dimension")
        labels = tuple(basis_labels or (f"e{i + 1}" for i in range(dim)))
        if len(labels) != dim:
            raise InputError(
                f"space {name!r}: {len(labels)} labels for dimension {dim}"
            )
        if len(set(labels)) != len(labels):
            raise InputError(f"space {name!r}: duplicate basis labels")
        vars(self).update(name=name, dim=dim, basis_labels=labels)

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.name == other.name
            and self.dim == other.dim
            and self.basis_labels == other.basis_labels
        )

    def __hash__(self):
        return hash((self.name, self.dim, self.basis_labels))

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


def _feed(outer: dict, slot: int, inner: dict) -> dict:
    """Feed inner's vectors into one slot of outer, a table of vectors.

    The value at key a + b is outer applied to inner[a] in that slot: the
    sum of inner[a][m] * outer[k] over the keys k with m in the slot, where
    b is k less its slot. Only nonzero coordinates are joined, and a key
    whose terms cancel is dropped. The sums run on ints: outer's
    coordinates are cleared of their common denominator and each inner
    vector of its own, and each result coordinate is divided once by the
    two. On column tables, left keyed a + (m,) and right keyed b + (c,),
    `_feed(left, len(a), right)` composes: it holds left[a] right[b] e_c at
    key b + (c,) + a.
    """
    index, vectors = {}, []
    for key, val in outer.items():
        val = [val.dim, tuple(val.iter_nonzero())]  # [dimension, nonzero coordinates]
        vectors.append(val)
        index.setdefault(key[slot], []).append((key[:slot] + key[slot + 1 :], val))
    flat = [b for _, coords in vectors for _, b in coords]
    ints, den = _cleared(flat)
    if ints is not flat:  # put outer's coordinates on ints
        ints = iter(ints)
        for val in vectors:
            val[1] = tuple((t, next(ints)) for t, _ in val[1])
    out = {}
    for a, vec in inner.items():
        # the keys of different inner keys a never meet
        cs, d = _cleared(vec.entries)
        terms = {}
        for m, _ in vec.iter_nonzero():
            cm = cs[m]
            for rest, (dim, coords) in index.get(m, ()):
                acc = terms.get(rest)
                if acc is None:
                    acc = terms[rest] = [ZERO] * dim
                for t, b in coords:
                    acc[t] += cm * b
        q = den * d
        for rest, val in terms.items():
            if any(val):
                if q != 1:
                    val = [_div(x, q) if x else ZERO for x in val]
                out[a + rest] = Vector(val)
    return out


class _relabel:
    """table rekeyed by f of each key's indices, and negated if sign < 0.

    f must be one to one: it names a term's indices in the order of its key
    and returns them in the order of the law's scope. The entries are made
    as `items()` walks them, so a relabeled term holds no copy of its table.
    """

    __slots__ = ("table", "f", "sign")

    def __init__(self, table: dict, f, sign: int = 1):
        self.table, self.f, self.sign = table, f, sign

    def items(self):
        f, sign = self.f, self.sign
        for key, val in self.table.items():
            yield f(*key), (val if sign > 0 else -val)


def _sum(tables, keep=None) -> dict:
    """The sum of term tables, on the keys that keep accepts (all when
    keep is None). A key whose terms cancel keeps its zero value."""
    out = {}
    for table in tables:
        for t, value in table.items():
            if keep is None or keep(t):
                out[t] = out[t] + value if t in out else value
    return out


def _increasing(t) -> bool:
    return all(a < b for a, b in zip(t, t[1:]))


def _derivation(ops, k: int, bracket, increasing: bool = False) -> tuple:
    """(lhs, rhs) of the law that D is a derivation of bracket, of arity n,
    for ops a column table holding D e_c at key + (c,), the key of length k:
    D [x1, ..., xn] and the n terms [x1, ..., D xs, ..., xn], as term tables
    keyed key + (x1, ..., xn).

    On an alternating bracket one feed, of D into slot 0, serves every
    slot: the slot-s term is (-1)^s [D xs, x1, ..., xn without xs]. With
    `increasing` (a law on increasing tuples of an alternating bracket),
    the lhs is fed the stored keys and that one feed the keys whose other
    indices increase (all, when n = 2); the law's `keep` drops the rest.
    """
    n, ordered = bracket.arity, bracket.expand_ordered()
    lhs = _feed(ops, k, bracket.coords if increasing else ordered)
    if bracket.increasing:
        if increasing:
            ordered = {t: v for t, v in ordered.items() if _increasing(t[1:])}
        one = _feed(ordered, 0, ops)
        fed = [(one, (-1) ** s) for s in range(n)]
    else:
        fed = [(_feed(ordered, s, ops), 1) for s in range(n)]

    def put(s):  # key + (xs,) + the others -> key + (x1, ..., xn)
        j = k + 1 + s
        return lambda *t: t[:k] + t[k + 1 : j] + t[k : k + 1] + t[j:]

    rhs = [_relabel(table, put(s), sign) for s, (table, sign) in enumerate(fed)]
    return [_relabel(lhs, lambda *t: t[n:] + t[:n])], rhs


def _family(vectors) -> dict:
    """A list of vectors as a table keyed by its one index."""
    return {(i,): v for i, v in enumerate(vectors)}


def _substitute(table: dict, families) -> dict:
    """{(i, j, ...): table(X_i, Y_j, ...)}: one list of vectors X, Y, ...
    per slot of table, each fed into its slot."""
    last = len(families) - 1
    for vectors in reversed(families):
        table = _feed(table, last, _family(vectors))
    return table


def _columns(ops: dict) -> dict:
    """The nonzero columns op e_h of a table of operators, keyed key + (h,)."""
    return {
        key + (h,): Vector(col.get(i, ZERO) for i in range(op.nrows))
        for key, op in ops.items()
        for h, col in op.nonzero_columns()
    }


def _from_columns(table: dict, nrows: int, ncols: int) -> dict:
    """{key: operator} from a table that holds the operator's column c at
    key + (c,): the inverse of `_columns`."""
    cols = {}
    for key, vec in table.items():
        cols.setdefault(key[:-1], {})[key[-1]] = vec
    return {
        key: Matrix.from_cols([col.get(c, {}) for c in range(ncols)], nrows=nrows)
        for key, col in cols.items()
    }


def one_based(indices):
    """A (possibly nested) index tuple shifted to 1-based, as shown to users."""
    return tuple(
        one_based(x) if isinstance(x, tuple) else x + 1 for x in indices
    )


def _fits(what: str, got: tuple, want: tuple, key: tuple | None = None):
    """Refuse a part `what` of a container, or its value at key, whose shape,
    got, is not the declared one, want. A map's shape is its matrix's (dim
    target, dim source) and a trilinear table's is (dim domain, dim codomain)."""
    if got != want:
        where = "" if key is None else f" value at {one_based(key)}"
        got, want = ("x".join(map(str, shape)) for shape in (got, want))
        raise InputError(f"{what}{where} has shape {got}, expected {want}")


def _sparse_table(
    coords: dict, what: str, dims: tuple, shape: tuple, increasing: bool = False
) -> dict:
    """coords checked and cleaned, for the container it names `what`.

    Each key is a tuple of indices, slot s below dims[s]; with `increasing`,
    its indices must increase. Each value is made a Vector of dimension
    shape[0] when shape has one entry, and a Matrix of shape (rows, columns)
    when it has two. Zero values are dropped. Errors give the key 1-based.
    """
    kind = Vector if len(shape) == 1 else Matrix
    out = {}
    for key, val in coords.items():
        if len(key) != len(dims) or not all(0 <= i < n for i, n in zip(key, dims)):
            raise InputError(
                f"{what} key {one_based(key)} out of range for dimensions "
                + "x".join(map(str, dims))
            )
        if increasing and any(a >= b for a, b in zip(key, key[1:])):
            raise InputError(f"{what} key {one_based(key)} must be increasing")
        if not isinstance(val, kind):
            val = kind(val)
        got = (val.dim,) if kind is Vector else (val.nrows, val.ncols)
        _fits(what, got, shape, key)
        if not val.is_zero():
            out[key] = val
    return out


def _sorted_sign(key: tuple) -> tuple[tuple, int] | None:
    """(key sorted, the sign of the permutation that sorts it), or None
    when an index repeats."""
    if len(set(key)) < len(key):
        return None
    inversions = sum(a > b for n, a in enumerate(key) for b in key[n + 1 :])
    return tuple(sorted(key)), -1 if inversions % 2 else 1


# each order of the slots of an alternating map, with its sign, by arity
_ORDERS = {k: [(p, _sorted_sign(p)[1]) for p in permutations(range(k))] for k in (2, 3)}


class _Multilinear:
    """A multilinear map stored sparsely in `coords`, `{basis tuple: Vector
    or Matrix}`; a subclass builds `coords` and gives its `_zero()`. With
    `increasing` the map is alternating and only increasing keys are
    stored: another order of a key's indices carries the sign of its
    permutation, and a repeated index gives zero."""

    increasing = False

    def value(self, *key):
        """Value on the basis vectors e_key; None means zero."""
        if len(key) != self.arity:
            raise InputError(f"a map of arity {self.arity} got {len(key)} indices")
        sign = 1
        if self.increasing:
            found = _sorted_sign(key)
            if found is None:
                return None
            key, sign = found
        val = self.coords.get(key)
        return -val if sign < 0 and val is not None else val

    def eval(self, *vectors):
        """Value on vectors, by multilinearity: per stored key, the signed
        coordinate products over its orderings, summed, scale its value."""
        k = len(vectors)
        if k != self.arity:
            raise InputError(f"a map of arity {self.arity} got {k} vectors")
        orders = _ORDERS[k] if self.increasing else [(tuple(range(k)), 1)]
        entries = [tuple(v) for v in vectors]
        acc = self._zero()
        for key, val in self.coords.items():
            rows = [[e[i] for i in key] for e in entries]
            if not all(map(any, rows)):  # some slot's vector misses the key
                continue
            c = sum(s * prod(map(list.__getitem__, rows, p)) for p, s in orders)
            if c:
                acc = acc + val.scale(c)
        return acc

    def expand_ordered(self) -> dict:
        """Values on every ordered basis tuple, as a fresh dict."""
        if not self.increasing:
            return dict(self.coords)
        out = {}
        for key, val in self.coords.items():
            neg = -val
            for perm in permutations(key):
                out[perm] = val if _sorted_sign(perm)[1] > 0 else neg
        return out

    def items(self):
        return sorted(self.coords.items())


class TrilinearTable(_Multilinear):
    """Trilinear map V x V x V -> W from structure constants, no symmetry."""

    kind = "general"
    arity = 3

    def __init__(self, domain: Space, codomain: Space, coords: dict):
        self.domain = domain
        self.codomain = codomain
        self.coords = _sparse_table(
            coords, f"{self.kind} trilinear table", (domain.dim,) * 3,
            (codomain.dim,), self.increasing,
        )

    def _zero(self) -> Vector:
        return self.codomain.zero()

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
    increasing = True


class PairAction(_Multilinear):
    """Bilinear alternating assignment of operators, (x, y) -> End(target),
    stored on increasing source pairs."""

    increasing, arity = True, 2

    def __init__(self, source: Space, target: Space, coords: dict):
        self.source = source
        self.target = target
        self.coords = _sparse_table(
            coords, "pair action", (source.dim,) * 2, (target.dim,) * 2, True
        )

    def _zero(self) -> Matrix:
        return Matrix.zeros(self.target.dim, self.target.dim)

    def at(self, i: int, j: int) -> Matrix | None:
        """Operator for basis pair (e_i, e_j); None means zero."""
        return self.value(i, j)

    def apply(self, x: Vector, y: Vector, h: Vector) -> Vector:
        return self.eval(x, y).mul_vec(h)

    def apply_pair(self, i: int, j: int, h: Vector) -> Vector:
        return (self.value(i, j) or self._zero()).mul_vec(h)

    def __eq__(self, other):
        return (
            isinstance(other, PairAction)
            and self.source.dim == other.source.dim
            and self.target.dim == other.target.dim
            and self.coords == other.coords
        )


class WedgePairBasis:
    """Increasing pairs (i, j), i < j, in lexicographic order: a basis of wedge^2."""

    def __init__(self, space: Space):
        n = space.dim
        self.space = space
        self.pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def position(self, i: int, j: int) -> int:
        n = self.space.dim
        if not 0 <= i < j < n:
            raise InputError(f"not an increasing pair: {(i + 1, j + 1)}")
        return i * (2 * n - i - 1) // 2 + (j - i - 1)

    def signed(self, i: int, j: int) -> tuple[int, int]:
        """(position, sign) of e_i ^ e_j: a swapped pair is -1 times its
        increasing one, and `position` refuses i = j."""
        (a, b), sign = _sorted_sign((i, j)) or ((i, j), 1)
        return self.position(a, b), sign

    def column(self, w: Vector, j: int) -> Vector:
        """Column j of the antisymmetric matrix of the 2-vector w: entry r
        is the coordinate of e_r ^ e_j in w, and entry j is zero."""
        if w.dim != self.dim:
            raise InputError("column: vector dimension mismatch")
        col = [ZERO] * self.space.dim
        for r in range(self.space.dim):
            if r != j:
                pos, sign = self.signed(r, j)
                col[r] = sign * w[pos]
        return Vector(col)

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
