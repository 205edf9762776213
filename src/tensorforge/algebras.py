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

from .errors import InputError, PreconditionError
from .linalg import Matrix, Vector, ZERO, _rref
from .multilinear import (
    AlternatingTrilinearTable,
    Space,
    TrilinearTable,
    format_vector,
)
from .report import Report, one_based, tuple_label


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

    def product_eval(self, x: Vector, y: Vector) -> Vector:
        acc = Vector.zero(self.space.dim)
        for (i, j), vec in self.triangle.items():
            c = x[i] * y[j]
            if c:
                acc = acc + vec.scale(c)
        return acc

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


def _apply_first(table, v: Vector | None, j: int, k: int, dim: int) -> Vector:
    """Linear extension of the bracket in its first slot: [v, e_j, e_k]."""
    acc = Vector.zero(dim)
    if v is None:
        return acc
    for m, c in v.iter_nonzero():
        val = table.value(m, j, k)
        if val is not None:
            acc = acc + val.scale(c)
    return acc


def _apply_second(table, i: int, v: Vector | None, k: int, dim: int) -> Vector:
    acc = Vector.zero(dim)
    if v is None:
        return acc
    for m, c in v.iter_nonzero():
        val = table.value(i, m, k)
        if val is not None:
            acc = acc + val.scale(c)
    return acc


def _apply_third(table, i: int, j: int, v: Vector | None, dim: int) -> Vector:
    acc = Vector.zero(dim)
    if v is None:
        return acc
    for m, c in v.iter_nonzero():
        val = table.value(i, j, m)
        if val is not None:
            acc = acc + val.scale(c)
    return acc


def check_3lie(a: ThreeLieAlgebra, title: str | None = None) -> Report:
    """Verify the fundamental identity of an alternating ternary bracket.

    Both sides are alternating in the outer pair and in the inner triple, so
    checking increasing pairs against increasing triples is exhaustive.
    """
    space = a.space
    dim = space.dim
    rep = Report(title or f"3-Lie axioms on {space.name}")
    line = rep.line(
        "fundamental identity", "increasing pairs x increasing triples"
    )
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    triples = [
        (p, q, r)
        for p in range(dim)
        for q in range(p + 1, dim)
        for r in range(q + 1, dim)
    ]
    for i, j in pairs:
        for p, q, r in triples:
            line.checked += 1
            lhs = _apply_third(a.bracket, i, j, a.value(p, q, r), dim)
            rhs = (
                _apply_first(a.bracket, a.value(i, j, p), q, r, dim)
                + _apply_second(a.bracket, p, a.value(i, j, q), r, dim)
                + _apply_third(a.bracket, p, q, a.value(i, j, r), dim)
            )
            if lhs != rhs:
                line.add_failure(
                    one_based(((i, j), (p, q, r))),
                    f"pair {tuple_label(space, (i, j))}, "
                    f"triple {tuple_label(space, (p, q, r))}",
                    format_vector(space, lhs),
                    format_vector(space, rhs),
                )
    return rep


def check_3leibniz(a: ThreeLeibnizAlgebra, title: str | None = None) -> Report:
    """Verify the derivation identity with no symmetry: all ordered 5-tuples."""
    space = a.space
    dim = space.dim
    rep = Report(title or f"ternary Leibniz axioms on {space.name}")
    line = rep.line("fundamental identity", "all ordered basis 5-tuples")
    table = a.bracket
    rng = range(dim)
    for b1 in rng:
        for b2 in rng:
            for c in rng:
                for d in rng:
                    for e in rng:
                        line.checked += 1
                        lhs = _apply_third(
                            table, b1, b2, table.value(c, d, e), dim
                        )
                        rhs = (
                            _apply_first(table, table.value(b1, b2, c), d, e, dim)
                            + _apply_second(table, c, table.value(b1, b2, d), e, dim)
                            + _apply_third(table, c, d, table.value(b1, b2, e), dim)
                        )
                        if lhs != rhs:
                            line.add_failure(
                                one_based((b1, b2, c, d, e)),
                                tuple_label(space, (b1, b2, c, d, e)),
                                format_vector(space, lhs),
                                format_vector(space, rhs),
                            )
    return rep


def check_lie(a: LieAlgebra, title: str | None = None) -> Report:
    """Jacobi identity on increasing basis triples."""
    space = a.space
    dim = space.dim
    rep = Report(title or f"Lie axioms on {space.name}")
    line = rep.line("Jacobi identity", "increasing basis triples")

    def bracket_with_basis(v: Vector | None, k: int) -> Vector:
        acc = Vector.zero(dim)
        if v is None:
            return acc
        for m, c in v.iter_nonzero():
            val = a.value(m, k)
            if val is not None:
                acc = acc + val.scale(c)
        return acc

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                line.checked += 1
                jac = (
                    bracket_with_basis(a.value(i, j), k)
                    + bracket_with_basis(a.value(j, k), i)
                    + bracket_with_basis(a.value(k, i), j)
                )
                if not jac.is_zero():
                    line.add_failure(
                        one_based((i, j, k)),
                        tuple_label(space, (i, j, k)),
                        format_vector(space, jac),
                        "0",
                    )
    return rep


def check_leibniz_lie(a: LeibnizLieAlgebra, title: str | None = None) -> Report:
    """Verify the product laws of a Lie algebra with a compatible product."""
    space = a.space
    dim = space.dim
    rep = Report(title or f"Leibniz-Lie axioms on {space.name}")
    jac = check_lie(a.lie)
    rep.absorb(jac, "underlying Lie algebra")

    def prod_first(v: Vector | None, k: int) -> Vector:
        acc = Vector.zero(dim)
        if v is None:
            return acc
        for m, c in v.iter_nonzero():
            val = a.product(m, k)
            if val is not None:
                acc = acc + val.scale(c)
        return acc

    def prod_second(i: int, v: Vector | None) -> Vector:
        acc = Vector.zero(dim)
        if v is None:
            return acc
        for m, c in v.iter_nonzero():
            val = a.product(i, m)
            if val is not None:
                acc = acc + val.scale(c)
        return acc

    def lie_first(v: Vector | None, k: int) -> Vector:
        acc = Vector.zero(dim)
        if v is None:
            return acc
        for m, c in v.iter_nonzero():
            val = a.lie.value(m, k)
            if val is not None:
                acc = acc + val.scale(c)
        return acc

    rng = range(dim)
    law = rep.line("left multiplication law", "all ordered basis triples")
    vanish1 = rep.line("product kills brackets", "all ordered basis triples")
    vanish2 = rep.line("bracket kills products", "all ordered basis triples")
    for i in rng:
        for j in rng:
            for k in rng:
                law.checked += 1
                lhs = prod_second(i, a.product(j, k))
                rhs = (
                    prod_first(a.product(i, j), k)
                    + prod_second(j, a.product(i, k))
                    + prod_first(a.lie.value(i, j), k)
                )
                if lhs != rhs:
                    law.add_failure(
                        one_based((i, j, k)),
                        tuple_label(space, (i, j, k)),
                        format_vector(space, lhs),
                        format_vector(space, rhs),
                    )
                vanish1.checked += 1
                v1 = prod_second(i, a.lie.value(j, k))
                if not v1.is_zero():
                    vanish1.add_failure(
                        one_based((i, j, k)),
                        tuple_label(space, (i, j, k)),
                        format_vector(space, v1),
                        "0",
                    )
                vanish2.checked += 1
                v2 = lie_first(a.product(i, j), k)
                if not v2.is_zero():
                    vanish2.add_failure(
                        one_based((i, j, k)),
                        tuple_label(space, (i, j, k)),
                        format_vector(space, v2),
                        "0",
                    )
    return rep


def check_3ll(a: ThreeLeibnizLieAlgebra, title: str | None = None) -> Report:
    """Verify the brace laws over a valid 3-Lie bracket.

    Refuses when the underlying bracket is not 3-Lie: the brace laws quote
    that bracket, so their verdict would be meaningless.
    """
    space = a.space
    dim = space.dim
    rep = Report(title or f"ternary brace axioms on {space.name}")
    gate = check_3lie(ThreeLieAlgebra(space, a.lie3.bracket))
    if not gate.ok:
        rep.absorb(gate, "underlying bracket")
        return rep.refuse("underlying bracket fails the fundamental identity")

    braces = a.braces
    bracket = a.lie3.bracket
    law = rep.line(
        "brace compatibility law", "all ordered basis 5-tuples"
    )
    vanish_inner = rep.line(
        "braces kill bracket outputs", "all ordered basis 5-tuples"
    )
    vanish_outer = rep.line(
        "bracket kills brace outputs", "all ordered basis 5-tuples"
    )
    rng = range(dim)
    for h1 in rng:
        for h2 in rng:
            for h3 in rng:
                for h4 in rng:
                    for h5 in rng:
                        law.checked += 1
                        lhs = _apply_third(
                            braces, h1, h2, braces.value(h3, h4, h5), dim
                        )
                        rhs = (
                            _apply_first(
                                braces, braces.value(h1, h2, h3), h4, h5, dim
                            )
                            + _apply_second(
                                braces, h3, braces.value(h1, h2, h4), h5, dim
                            )
                            + _apply_third(
                                braces, h3, h4, braces.value(h1, h2, h5), dim
                            )
                            + _apply_first(
                                braces, bracket.value(h1, h2, h3), h4, h5, dim
                            )
                            + _apply_second(
                                braces, h3, bracket.value(h1, h2, h4), h5, dim
                            )
                        )
                        if lhs != rhs:
                            law.add_failure(
                                one_based((h1, h2, h3, h4, h5)),
                                tuple_label(space, (h1, h2, h3, h4, h5)),
                                format_vector(space, lhs),
                                format_vector(space, rhs),
                            )
                        vanish_inner.checked += 1
                        v1 = _apply_third(
                            braces, h1, h2, bracket.value(h3, h4, h5), dim
                        )
                        if not v1.is_zero():
                            vanish_inner.add_failure(
                                one_based((h1, h2, h3, h4, h5)),
                                tuple_label(space, (h1, h2, h3, h4, h5)),
                                format_vector(space, v1),
                                "0",
                            )
                        vanish_outer.checked += 1
                        v2 = _apply_first(
                            bracket, braces.value(h1, h2, h3), h4, h5, dim
                        )
                        if not v2.is_zero():
                            vanish_outer.add_failure(
                                one_based((h1, h2, h3, h4, h5)),
                                tuple_label(space, (h1, h2, h3, h4, h5)),
                                format_vector(space, v2),
                                "0",
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


def check_hom(kind: str, f: LinearMap, src, dst, title: str | None = None) -> Report:
    """Verify that f carries the source structure constants to the target.

    kind is one of 'lie', '3lie', '3leibniz', '3ll'; tuples checked are the
    canonical ones for the stored symmetry of that kind.
    """
    rep = Report(title or f"structure map check ({kind})")
    if f.source.dim != src.space.dim or f.target.dim != dst.space.dim:
        raise InputError("map endpoints do not match the given structures")
    space = src.space
    dim = space.dim
    out_space = dst.space

    def push(v: Vector | None) -> Vector:
        return f.apply(_vec_or_zero(space, v))

    images = [f.column(i) for i in range(dim)]

    if kind == "lie":
        line = rep.line("binary bracket preserved", "increasing basis pairs")
        for i in range(dim):
            for j in range(i + 1, dim):
                line.checked += 1
                lhs = push(src.value(i, j))
                rhs = dst.eval(images[i], images[j])
                if lhs != rhs:
                    line.add_failure(
                        one_based((i, j)),
                        tuple_label(space, (i, j)),
                        format_vector(out_space, lhs),
                        format_vector(out_space, rhs),
                    )
    elif kind == "3lie":
        line = rep.line("ternary bracket preserved", "increasing basis triples")
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(j + 1, dim):
                    line.checked += 1
                    lhs = push(src.value(i, j, k))
                    rhs = dst.eval(images[i], images[j], images[k])
                    if lhs != rhs:
                        line.add_failure(
                            one_based((i, j, k)),
                            tuple_label(space, (i, j, k)),
                            format_vector(out_space, lhs),
                            format_vector(out_space, rhs),
                        )
    elif kind == "3leibniz":
        line = rep.line("ternary bracket preserved", "all ordered basis triples")
        rng = range(dim)
        for i in rng:
            for j in rng:
                for k in rng:
                    line.checked += 1
                    lhs = push(src.value(i, j, k))
                    rhs = dst.eval(images[i], images[j], images[k])
                    if lhs != rhs:
                        line.add_failure(
                            one_based((i, j, k)),
                            tuple_label(space, (i, j, k)),
                            format_vector(out_space, lhs),
                            format_vector(out_space, rhs),
                        )
    elif kind == "3ll":
        bline = rep.line("ternary bracket preserved", "increasing basis triples")
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(j + 1, dim):
                    bline.checked += 1
                    lhs = push(src.lie3.value(i, j, k))
                    rhs = dst.lie3.eval(images[i], images[j], images[k])
                    if lhs != rhs:
                        bline.add_failure(
                            one_based((i, j, k)),
                            tuple_label(space, (i, j, k)),
                            format_vector(out_space, lhs),
                            format_vector(out_space, rhs),
                        )
        gline = rep.line("braces preserved", "all ordered basis triples")
        rng = range(dim)
        for i in rng:
            for j in rng:
                for k in rng:
                    gline.checked += 1
                    lhs = push(src.braces.value(i, j, k))
                    rhs = dst.braces.eval(images[i], images[j], images[k])
                    if lhs != rhs:
                        gline.add_failure(
                            one_based((i, j, k)),
                            tuple_label(space, (i, j, k)),
                            format_vector(out_space, lhs),
                            format_vector(out_space, rhs),
                        )
    else:
        raise InputError(f"unknown structure kind {kind!r}")
    return rep
