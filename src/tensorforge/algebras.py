"""Algebra containers and their defining-law checkers.

Five structures, all given by structure constants over exact rationals:

- ThreeLieAlgebra: alternating ternary bracket; each inner pair acts as a
  derivation of the bracket (the fundamental identity).
- ThreeLeibnizAlgebra: same identity without any symmetry assumption.
- LieAlgebra: binary alternating bracket satisfying the Jacobi identity.
- LeibnizLieAlgebra: a Lie algebra plus a binary product (written x > y here)
  obeying a left-multiplication law and two vanishing laws.
- ThreeLeibnizLieAlgebra: a 3-Lie bracket plus ternary braces obeying a
  five-term compatibility law and two vanishing laws.

Checkers reduce to canonical basis tuples only where multilinearity plus the
stored symmetry make that sound; everything else runs over all ordered tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from math import comb

from .errors import InputError, PreconditionError
from .linalg import Matrix, Vector, _rref
from .multilinear import (
    AlternatingTrilinearTable,
    Space,
    TrilinearTable,
    _extend,
    _feeds,
    format_vector,
)
from .report import Report, tuple_label


class ThreeLieAlgebra:
    def __init__(self, space: Space, bracket: AlternatingTrilinearTable):
        if bracket.domain.dim != space.dim or bracket.codomain.dim != space.dim:
            raise InputError("3-Lie bracket must map the space into itself")
        self.space = space
        self.bracket = bracket

    def value(self, i: int, j: int, k: int) -> Vector | None:
        return self.bracket.value(i, j, k)

    def eval(self, x: Vector, y: Vector, z: Vector) -> Vector:
        return self.bracket.eval(x, y, z)


class ThreeLeibnizAlgebra:
    def __init__(self, space: Space, bracket: TrilinearTable):
        if bracket.domain.dim != space.dim or bracket.codomain.dim != space.dim:
            raise InputError("ternary bracket must map the space into itself")
        self.space = space
        self.bracket = bracket

    def value(self, i: int, j: int, k: int) -> Vector | None:
        return self.bracket.value(i, j, k)

    def eval(self, x: Vector, y: Vector, z: Vector) -> Vector:
        return self.bracket.eval(x, y, z)


class LieAlgebra:
    """Binary bracket stored on increasing pairs."""

    def __init__(self, space: Space, coords: dict):
        self.space = space
        table = {}
        for (i, j), vec in coords.items():
            if not (0 <= i < j < space.dim):
                raise InputError(
                    f"Lie bracket key {(i + 1, j + 1)} must be an increasing "
                    f"pair within dimension {space.dim}"
                )
            if not isinstance(vec, Vector):
                vec = Vector(vec)
            if vec.dim != space.dim:
                raise InputError("Lie bracket value dimension mismatch")
            if not vec.is_zero():
                table[(i, j)] = vec
        self.coords = table

    def value(self, i: int, j: int) -> Vector | None:
        if i == j:
            return None
        if i < j:
            return self.coords.get((i, j))
        vec = self.coords.get((j, i))
        return None if vec is None else -vec

    def eval(self, x: Vector, y: Vector) -> Vector:
        acc = Vector.zero(self.space.dim)
        xe, ye = x.entries, y.entries
        for (i, j), vec in self.coords.items():
            c = xe[i] * ye[j] - xe[j] * ye[i]
            if c:
                acc = acc + vec.scale(c)
        return acc

    def items(self):
        return sorted(self.coords.items())


class LeibnizLieAlgebra:
    """A Lie algebra plus a binary product on ordered pairs (no symmetry)."""

    def __init__(self, lie: LieAlgebra, triangle: dict):
        self.lie = lie
        self.space = lie.space
        table = {}
        for (i, j), vec in triangle.items():
            for x in (i, j):
                if not 0 <= x < self.space.dim:
                    raise InputError(
                        f"product key {(i + 1, j + 1)} out of range"
                    )
            if not isinstance(vec, Vector):
                vec = Vector(vec)
            if vec.dim != self.space.dim:
                raise InputError("product value dimension mismatch")
            if not vec.is_zero():
                table[(i, j)] = vec
        self.triangle = table

    def product(self, i: int, j: int) -> Vector | None:
        return self.triangle.get((i, j))

    def items(self):
        return sorted(self.triangle.items())


class ThreeLeibnizLieAlgebra:
    """A 3-Lie bracket plus ternary braces (a general trilinear table)."""

    def __init__(self, lie3: ThreeLieAlgebra, braces: TrilinearTable):
        if braces.domain.dim != lie3.space.dim or braces.codomain.dim != lie3.space.dim:
            raise InputError("braces must map the space into itself")
        self.lie3 = lie3
        self.space = lie3.space
        self.braces = braces


@dataclass
class LinearMap:
    """Exact linear map between spaces; matrix is (dim target) x (dim source)."""

    source: Space
    target: Space
    matrix: Matrix

    def __post_init__(self):
        if (self.matrix.nrows, self.matrix.ncols) != (
            self.target.dim,
            self.source.dim,
        ):
            raise InputError(
                f"linear map matrix is {self.matrix.nrows}x{self.matrix.ncols}, "
                f"expected {self.target.dim}x{self.source.dim}"
            )

    def apply(self, v: Vector) -> Vector:
        return self.matrix.mul_vec(v)

    def column(self, i: int) -> Vector:
        return self.matrix.col(i)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        if inner.target.dim != self.source.dim:
            raise InputError("composition dimension mismatch")
        return LinearMap(inner.source, self.target, self.matrix.mul(inner.matrix))

    @classmethod
    def identity(cls, space: Space) -> "LinearMap":
        return cls(space, space, Matrix.identity(space.dim))

    def inverse(self) -> "LinearMap | None":
        if self.source.dim != self.target.dim:
            return None
        n = self.source.dim
        aug = self.matrix.hstack(Matrix.identity(n))
        rows, pivots = _rref(aug)
        if pivots != list(range(n)):
            return None
        inv = Matrix([row[n:] for row in rows])
        return LinearMap(self.target, self.source, inv)

    def is_invertible(self) -> bool:
        return self.inverse() is not None


def _vec_or_zero(space: Space, v: Vector | None) -> Vector:
    return space.zero() if v is None else v


def _fundamental_sides(table, b1, b2, c, d, e, zero):
    """Both sides of [b1, b2, [c, d, e]] = [[b1, b2, c], d, e]
    + [c, [b1, b2, d], e] + [c, d, [b1, b2, e]] on basis vectors."""
    value = table.value
    lhs = _extend(lambda m: value(b1, b2, m), value(c, d, e), zero)
    rhs = (
        _extend(lambda m: value(m, d, e), value(b1, b2, c), zero)
        + _extend(lambda m: value(c, m, e), value(b1, b2, d), zero)
        + _extend(lambda m: value(c, d, m), value(b1, b2, e), zero)
    )
    return lhs, rhs


def _fundamental_support(table) -> set:
    """Ordered 5-tuples (b1, b2, c, d, e) where a term of the fundamental
    identity of table can be nonzero: a join of its nonzero values into
    each slot of its keys, one join per term."""
    coords = table.expand_ordered()
    keys = coords.keys()
    out = {rest + v for v, rest in _feeds(coords, keys, 2)}  # [b1, b2, [c, d, e]]
    out.update(v + rest for v, rest in _feeds(coords, keys, 0))
    out.update(
        v[:2] + rest[:1] + v[2:] + rest[1:] for v, rest in _feeds(coords, keys, 1)
    )
    out.update(v[:2] + rest + v[2:] for v, rest in _feeds(coords, keys, 2))
    return out


def _alternating_support(table: AlternatingTrilinearTable) -> set:
    """Pairs x triples ((b1, b2), (c, d, e)), both increasing, where a term
    of the fundamental identity of an alternating table can be nonzero.

    A term nests one stored key t inside another key through a coordinate
    m of its value; the other key less m is a pair p. [p, t] is the left
    side, and [[b1, b2, c], d, e] and its two cyclic mates read t as
    {b1, b2, c} and p as the rest of the triple, for each c in t.
    """
    coords = table.coords
    out = set()
    for slot in range(3):
        for t, pair in _feeds(coords, coords.keys(), slot):
            out.add((pair, t))
            for c in t:
                if c not in pair:
                    rest = tuple(x for x in t if x != c)
                    out.add((rest, tuple(sorted(pair + (c,)))))
    return out


def check_3lie(a: ThreeLieAlgebra, title: str | None = None) -> Report:
    """Verify the fundamental identity of an alternating ternary bracket.

    Both sides are alternating in the outer pair and in the inner triple, so
    checking increasing pairs against increasing triples is exhaustive.
    """
    space = a.space
    n = space.dim
    zero = space.zero()
    rep = Report(title or f"3-Lie axioms on {space.name}")
    rep.law(
        "fundamental identity",
        "increasing pairs x increasing triples",
        sorted(_alternating_support(a.bracket)),
        lambda t: _fundamental_sides(a.bracket, *t[0], *t[1], zero),
        partial(format_vector, space),
        lambda t: f"pair {tuple_label(space, t[0])}, "
        f"triple {tuple_label(space, t[1])}",
        comb(n, 2) * comb(n, 3),
    )
    return rep


def check_3leibniz(a: ThreeLeibnizAlgebra, title: str | None = None) -> Report:
    """Verify the derivation identity with no symmetry: all ordered 5-tuples."""
    space = a.space
    zero = space.zero()
    rep = Report(title or f"ternary Leibniz axioms on {space.name}")
    rep.law(
        "fundamental identity",
        "all ordered basis 5-tuples",
        sorted(_fundamental_support(a.bracket)),
        lambda t: _fundamental_sides(a.bracket, *t, zero),
        partial(format_vector, space),
        partial(tuple_label, space),
        space.dim**5,
    )
    return rep


def check_lie(a: LieAlgebra, title: str | None = None) -> Report:
    """Jacobi identity on increasing basis triples."""
    space = a.space
    zero = space.zero()
    value = a.value
    rep = Report(title or f"Lie axioms on {space.name}")

    def jacobi(t):
        i, j, k = t
        jac = (
            _extend(lambda m: value(m, k), value(i, j), zero)
            + _extend(lambda m: value(m, i), value(j, k), zero)
            + _extend(lambda m: value(m, j), value(k, i), zero)
        )
        return jac, zero

    rep.law(
        "Jacobi identity",
        "increasing basis triples",
        combinations(range(space.dim), 3),
        jacobi,
        partial(format_vector, space),
        partial(tuple_label, space),
    )
    return rep


def check_leibniz_lie(a: LeibnizLieAlgebra, title: str | None = None) -> Report:
    """Verify the product laws of a Lie algebra with a compatible product."""
    space = a.space
    zero = space.zero()
    prod, lie = a.product, a.lie.value
    rep = Report(title or f"Leibniz-Lie axioms on {space.name}")
    jac = check_lie(a.lie)
    rep.absorb(jac, "underlying Lie algebra")

    def left_multiplication(t):
        i, j, k = t
        lhs = _extend(lambda m: prod(i, m), prod(j, k), zero)
        rhs = (
            _extend(lambda m: prod(m, k), prod(i, j), zero)
            + _extend(lambda m: prod(j, m), prod(i, k), zero)
            + _extend(lambda m: prod(m, k), lie(i, j), zero)
        )
        return lhs, rhs

    laws = (
        ("left multiplication law", left_multiplication),
        (
            "product kills brackets",
            lambda t: (_extend(lambda m: prod(t[0], m), lie(t[1], t[2]), zero), zero),
        ),
        (
            "bracket kills products",
            lambda t: (_extend(lambda m: lie(m, t[2]), prod(t[0], t[1]), zero), zero),
        ),
    )
    for name, sides in laws:
        rep.law(
            name,
            "all ordered basis triples",
            product(range(space.dim), repeat=3),
            sides,
            partial(format_vector, space),
            partial(tuple_label, space),
        )
    return rep


def check_3ll(a: ThreeLeibnizLieAlgebra, title: str | None = None) -> Report:
    """Verify the brace laws over a valid 3-Lie bracket.

    Refuses when the underlying bracket is not 3-Lie: the brace laws quote
    that bracket, so their verdict would be meaningless.
    """
    space = a.space
    zero = space.zero()
    rep = Report(title or f"ternary brace axioms on {space.name}")
    gate = check_3lie(ThreeLieAlgebra(space, a.lie3.bracket))
    if not gate.ok:
        rep.absorb(gate, "underlying bracket")
        return rep.refuse("underlying bracket fails the fundamental identity")

    brace = a.braces.value
    bracket = a.lie3.bracket.value

    def compatibility(t):
        h1, h2, h3, h4, h5 = t
        lhs, rhs = _fundamental_sides(a.braces, *t, zero)
        rhs = (
            rhs
            + _extend(lambda m: brace(m, h4, h5), bracket(h1, h2, h3), zero)
            + _extend(lambda m: brace(h3, m, h5), bracket(h1, h2, h4), zero)
        )
        return lhs, rhs

    laws = (
        ("brace compatibility law", compatibility),
        (
            "braces kill bracket outputs",
            lambda t: (
                _extend(lambda m: brace(t[0], t[1], m), bracket(*t[2:]), zero),
                zero,
            ),
        ),
        (
            "bracket kills brace outputs",
            lambda t: (
                _extend(lambda m: bracket(m, t[3], t[4]), brace(*t[:3]), zero),
                zero,
            ),
        ),
    )
    for name, sides in laws:
        rep.law(
            name,
            "all ordered basis 5-tuples",
            product(range(space.dim), repeat=5),
            sides,
            partial(format_vector, space),
            partial(tuple_label, space),
        )
    return rep


def subadjacent(a: ThreeLeibnizLieAlgebra) -> ThreeLeibnizAlgebra:
    """Entry-wise sum of bracket and braces; a ternary Leibniz algebra.

    Refuses when the input fails its own axioms.
    """
    gate = check_3ll(a)
    if not gate.ok:
        raise PreconditionError(
            "subadjacent bracket requires a valid input structure", gate
        )
    space = a.space
    dim = space.dim
    coords = {}
    bracket_vals = a.lie3.bracket.expand_ordered()
    brace_vals = a.braces.expand_ordered()
    for key in sorted(set(bracket_vals) | set(brace_vals)):
        total = _vec_or_zero(space, bracket_vals.get(key)) + _vec_or_zero(
            space, brace_vals.get(key)
        )
        if not total.is_zero():
            coords[key] = total
    return ThreeLeibnizAlgebra(
        space, TrilinearTable(space, space, coords)
    )


# per kind: (line, scope, the part of the structure it compares or None)
_HOM_LAWS = {
    "lie": (("binary bracket preserved", "increasing basis pairs", None),),
    "3lie": (("ternary bracket preserved", "increasing basis triples", None),),
    "3leibniz": (("ternary bracket preserved", "all ordered basis triples", None),),
    "3ll": (
        ("ternary bracket preserved", "increasing basis triples", "lie3"),
        ("braces preserved", "all ordered basis triples", "braces"),
    ),
}
_HOM_TUPLES = {
    "increasing basis pairs": lambda rng: combinations(rng, 2),
    "increasing basis triples": lambda rng: combinations(rng, 3),
    "all ordered basis triples": lambda rng: product(rng, repeat=3),
}


def check_hom(kind: str, f: LinearMap, src, dst, title: str | None = None) -> Report:
    """Verify that f carries the source structure constants to the target.

    kind is one of 'lie', '3lie', '3leibniz', '3ll'; tuples checked are the
    canonical ones for the stored symmetry of that kind.
    """
    rep = Report(title or f"structure map check ({kind})")
    if f.source.dim != src.space.dim or f.target.dim != dst.space.dim:
        raise InputError("map endpoints do not match the given structures")
    laws = _HOM_LAWS.get(kind)
    if laws is None:
        raise InputError(f"unknown structure kind {kind!r}")
    space = src.space
    dim = space.dim
    out_space = dst.space

    def push(v: Vector | None) -> Vector:
        return f.apply(_vec_or_zero(space, v))

    images = [f.column(i) for i in range(dim)]
    for name, scope, part in laws:
        source = src if part is None else getattr(src, part)
        target = dst if part is None else getattr(dst, part)
        rep.law(
            name,
            scope,
            _HOM_TUPLES[scope](range(dim)),
            lambda t: (
                push(source.value(*t)),
                target.eval(*(images[x] for x in t)),
            ),
            partial(format_vector, out_space),
            partial(tuple_label, space),
        )
    return rep
