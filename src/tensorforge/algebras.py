"""Algebra containers, the data built on them, and the algebras' law checkers.

The algebras, all given by structure constants over exact rationals:

- ThreeLieAlgebra: alternating ternary bracket; each inner pair acts as a
  derivation of the bracket (the fundamental identity).
- ThreeLeibnizAlgebra: same identity without any symmetry assumption.
- LieAlgebra: binary alternating bracket satisfying the Jacobi identity.
- LeibnizLieAlgebra: a Lie algebra plus a binary product (written x > y here)
  obeying a left-multiplication law and two vanishing laws.
- ThreeLeibnizLieAlgebra: a 3-Lie bracket plus ternary braces obeying a
  five-term compatibility law and two vanishing laws.

The data built on them is here too, each class an `__init__` checking shapes
by `_fits`: representations, coherent actions and embedding-tensor problems,
three-operator representations, traces, Lie-level actions and tensors, and
deformation directions. The laws of a three-operator representation are
checked here, next to the ternary Leibniz identity they extend; the other
laws live in `actions`, `induced_lie` and `deformations`, so reading a
document or checking one of these structures loads none of those.

Checkers reduce to canonical basis tuples only where multilinearity plus the
stored symmetry make that sound; everything else runs over all ordered tuples.
"""

from __future__ import annotations

from functools import partial
from math import comb

from .errors import InputError
from .linalg import Matrix, Vector, _rref
from .multilinear import (
    AlternatingTrilinearTable,
    PairAction,
    Space,
    TrilinearTable,
    _Frozen,
    _Multilinear,
    _columns,
    _derivation,
    _family,
    _feed,
    _fits,
    _increasing,
    _relabel,
    _sparse_table,
    _substitute,
    _sum,
)
from .report import Report, tuple_label


class _TernaryAlgebra:
    """A space with a ternary bracket that maps it into itself; a subclass
    names its bracket in `_what`, for the error."""

    def __init__(self, space: Space, bracket: TrilinearTable):
        _fits(self._what, (bracket.domain.dim, bracket.codomain.dim), (space.dim,) * 2)
        self.space = space
        self.bracket = bracket

    def value(self, i: int, j: int, k: int) -> Vector | None:
        return self.bracket.value(i, j, k)

    def eval(self, x: Vector, y: Vector, z: Vector) -> Vector:
        return self.bracket.eval(x, y, z)


class ThreeLieAlgebra(_TernaryAlgebra):
    _what = "3-Lie bracket"

    def __init__(self, space: Space, bracket: AlternatingTrilinearTable):
        if not bracket.increasing:
            raise InputError("3-Lie bracket must be an alternating table")
        super().__init__(space, bracket)


class ThreeLeibnizAlgebra(_TernaryAlgebra):
    _what = "ternary bracket"


class LieAlgebra(_Multilinear):
    """Binary bracket stored on increasing pairs."""

    increasing, arity = True, 2

    def __init__(self, space: Space, coords: dict):
        self.space = space
        self.coords = _sparse_table(
            coords, "Lie bracket", (space.dim,) * 2, (space.dim,), True
        )

    def _zero(self) -> Vector:
        return self.space.zero()


class LeibnizLieAlgebra:
    """A Lie algebra plus a binary product on ordered pairs (no symmetry)."""

    def __init__(self, lie: LieAlgebra, triangle: dict):
        self.lie = lie
        self.space = lie.space
        n = lie.space.dim
        self.triangle = _sparse_table(triangle, "product", (n, n), (n,))

    def product(self, i: int, j: int) -> Vector | None:
        return self.triangle.get((i, j))

    def items(self):
        return sorted(self.triangle.items())


class ThreeLeibnizLieAlgebra:
    """A 3-Lie bracket plus ternary braces (a general trilinear table)."""

    def __init__(self, lie3: ThreeLieAlgebra, braces: TrilinearTable):
        shape = (braces.domain.dim, braces.codomain.dim)
        _fits("braces", shape, (lie3.space.dim,) * 2)
        self.lie3 = lie3
        self.space = lie3.space
        self.braces = braces


class LinearMap:
    """Exact linear map between spaces; matrix is (dim target) x (dim source).

    Maps are compared as values: equal spaces and equal matrices.
    """

    def __init__(self, source: Space, target: Space, matrix: Matrix):
        _fits("linear map", (matrix.nrows, matrix.ncols), (target.dim, source.dim))
        self.source = source
        self.target = target
        self.matrix = matrix

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.target.dim, self.source.dim

    def apply(self, v: Vector) -> Vector:
        return self.matrix.mul_vec(v)

    def column(self, i: int) -> Vector:
        return self.matrix.col(i)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        _fits("inner map", inner.shape, (self.source.dim, inner.source.dim))
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


class RepresentationData(_Frozen):
    """A 3-Lie algebra L acting on a carrier space by pair operators.

    Frozen, so that its memoized gate report `_verified` stays valid.
    """

    def __init__(self, algebra: ThreeLieAlgebra, carrier: Space, rho: PairAction):
        _fits("rho", (rho.source.dim, rho.target.dim), (algebra.space.dim, carrier.dim))
        vars(self).update(algebra=algebra, carrier=carrier, rho=rho, _verified=None)


class CoherentActionData(_Frozen):
    """A representation whose carrier itself carries a 3-Lie bracket.

    Frozen, so that its memoized gate report `_verified` stays valid.
    """

    def __init__(
        self, rep: RepresentationData, target_bracket: AlternatingTrilinearTable
    ):
        shape = (target_bracket.domain.dim, target_bracket.codomain.dim)
        _fits("target bracket", shape, (rep.carrier.dim,) * 2)
        vars(self).update(rep=rep, target_bracket=target_bracket, _verified=None)

    @property
    def algebra(self) -> ThreeLieAlgebra:
        return self.rep.algebra

    @property
    def carrier(self) -> Space:
        return self.rep.carrier

    @property
    def rho(self) -> PairAction:
        return self.rep.rho


class EmbeddingTensorProblem(_Frozen):
    """A coherent action together with a candidate tensor H -> L.

    Frozen, so that its memos stay valid: the gate reports by triple mode
    (`_net_reports`) and the cochain complex (`_complex`).
    """

    def __init__(self, action: CoherentActionData, tensor: LinearMap):
        _fits("tensor", tensor.shape, (action.algebra.space.dim, action.carrier.dim))
        vars(self).update(action=action, tensor=tensor, _net_reports={}, _complex=None)

    @property
    def l_space(self) -> Space:
        return self.action.algebra.space

    @property
    def h_space(self) -> Space:
        return self.action.carrier

    @property
    def l_bracket(self) -> AlternatingTrilinearTable:
        return self.action.algebra.bracket

    @property
    def h_bracket(self) -> AlternatingTrilinearTable:
        return self.action.target_bracket

    @property
    def rho(self) -> PairAction:
        return self.action.rho

    def tensor_columns(self) -> list[Vector]:
        return [self.tensor.column(i) for i in range(self.h_space.dim)]


class ThreeLeibnizRep:
    """Representation of a ternary Leibniz algebra by three operator families.

    l_act[(i, j)] is the operator of the pair (e_i, e_j) acting from the left;
    m_act[(i, j)] acts in the middle slot (u -> action of (e_i, u, e_j));
    r_act[(i, j)] acts from the right (u -> action of (u, e_i, e_j)).
    Keys are ordered pairs with no symmetry; absent keys are zero.
    """

    def __init__(
        self,
        algebra: ThreeLeibnizAlgebra,
        carrier: Space,
        l_act: dict,
        m_act: dict,
        r_act: dict,
    ):
        self.algebra = algebra
        self.carrier = carrier
        keys, shape = (algebra.space.dim,) * 2, (carrier.dim,) * 2
        self.l_act = _sparse_table(l_act, "left action", keys, shape)
        self.m_act = _sparse_table(m_act, "middle action", keys, shape)
        self.r_act = _sparse_table(r_act, "right action", keys, shape)


class TraceMap:
    """A linear functional on a space, stored by its basis coefficients.

    Traces are compared as values: equal spaces and equal coefficients.
    """

    def __init__(self, space: Space, covector: Vector):
        _fits("trace covector", (covector.dim,), (space.dim,))
        self.space = space
        self.covector = covector

    def __eq__(self, other):
        return (
            isinstance(other, TraceMap)
            and self.space == other.space
            and self.covector == other.covector
        )

    def apply(self, v: Vector):
        return self.covector.dot(v)

    def at(self, i: int):
        return self.covector[i]


class LieCoherentAction:
    """A Lie algebra acting on another Lie algebra by operators.

    rho maps each basis vector of the acting algebra, keyed by its 1-tuple
    (i,), to an operator on the carrier; absent keys act as zero.
    """

    def __init__(self, lie: LieAlgebra, carrier: LieAlgebra, rho: dict):
        self.lie = lie
        self.carrier = carrier
        shape = (carrier.space.dim,) * 2
        self.rho = _sparse_table(rho, "action", (lie.space.dim,), shape)

    def operator(self, i: int) -> Matrix:
        vdim = self.carrier.space.dim
        return self.rho.get((i,), Matrix.zeros(vdim, vdim))


class LieNet:
    """A Lie-level embedding tensor: a coherent Lie action plus a map H -> L."""

    def __init__(self, action: LieCoherentAction, tensor: LinearMap):
        if tensor.source != action.carrier.space:
            raise InputError("tensor source must be the carrier space")
        if tensor.target != action.lie.space:
            raise InputError("tensor target must be the acting algebra")
        self.action = action
        self.tensor = tensor


class Deformation:
    """A tensor problem together with one deformation direction H -> L."""

    def __init__(self, problem: EmbeddingTensorProblem, direction: LinearMap):
        want = (problem.l_space.dim, problem.h_space.dim)
        _fits("direction", direction.shape, want)
        self.problem = problem
        self.direction = direction


def check_3lie(a: ThreeLieAlgebra) -> Report:
    """Verify the fundamental identity of an alternating ternary bracket:
    each ad(b1, b2) = [b1, b2, -] is a derivation of the bracket.

    `ThreeLieAlgebra` holds only alternating brackets, so both sides are
    alternating in the outer pair and in the inner triple, and checking
    increasing pairs against increasing triples is exhaustive.
    """
    space = a.space
    # ad(b1, b2) = [b1, b2, -] with b1 < b2
    ad = {t: v for t, v in a.bracket.expand_ordered().items() if t[0] < t[1]}
    rep = Report(f"3-Lie axioms on {space.name}")
    rep.law(
        "fundamental identity",
        "increasing pairs x increasing triples",
        comb(space.dim, 2) * comb(space.dim, 3),
        *(
            [_relabel(t, lambda b1, b2, c, d, e: ((b1, b2), (c, d, e))) for t in side]
            for side in _derivation(ad, 2, a.bracket, True)
        ),
        space,
        lambda t: f"pair {tuple_label(space, t[0])}, "
        f"triple {tuple_label(space, t[1])}",
        keep=lambda t: _increasing(t[1]),
    )
    return rep


def check_3leibniz(a: ThreeLeibnizAlgebra) -> Report:
    """Verify the derivation identity with no symmetry: all ordered 5-tuples."""
    space = a.space
    rep = Report(f"ternary Leibniz axioms on {space.name}")
    rep.law(
        "fundamental identity",
        "all ordered basis 5-tuples",
        space.dim**5,
        *_derivation(a.bracket.expand_ordered(), 2, a.bracket),
        space,
        partial(tuple_label, space),
    )
    return rep


def check_3leibniz_rep(r: ThreeLeibnizRep) -> Report:
    """Verify the five compatibility laws of the three operator families.

    Refuses when the underlying algebra fails its own fundamental identity.
    """
    rep = Report("ternary Leibniz representation check")
    gate = check_3leibniz(r.algebra)
    if not rep.gate(
        gate, "underlying algebra", "underlying algebra fails the fundamental identity"
    ):
        return rep

    space = r.algebra.space
    bracket = r.algebra.bracket.expand_ordered()
    # act(i, j) e_c, keyed (i, j, c), for the three families
    left, middle, right = (_columns(act) for act in (r.l_act, r.m_act, r.r_act))
    laws, expansions = [], []
    for name, act in (("left", left), ("middle", middle), ("right", right)):
        # l(a1, a2) act(a3, a4) = act(a3, a4) l(a1, a2)
        #     + act([a1, a2, a3], a4) + act(a3, [a1, a2, a4])
        after_left = _feed(left, 2, act)  # keyed (a3, a4, c, a1, a2)
        into_second = _feed(act, 1, bracket)  # keyed (a1, a2, a4, a3, c)
        laws.append(
            (
                f"left-{name} composition law",
                [_relabel(after_left, lambda a3, a4, c, a1, a2: (a1, a2, a3, a4, c))],
                [
                    _relabel(
                        _feed(act, 2, left),
                        lambda a1, a2, c, a3, a4: (a1, a2, a3, a4, c),
                    ),
                    _feed(act, 0, bracket),
                    _relabel(
                        into_second, lambda a1, a2, a4, a3, c: (a1, a2, a3, a4, c)
                    ),
                ],
            )
        )
        if act is left:
            continue
        # act(a1, [a2, a3, a4]) = r(a3, a4) act(a1, a2)
        #     + m(a2, a4) act(a1, a3) + l(a2, a3) act(a1, a4)
        expansions.append(
            (
                f"{name} bracket-expansion law",
                [
                    _relabel(
                        into_second, lambda a2, a3, a4, a1, c: (a1, a2, a3, a4, c)
                    )
                ],
                [
                    _relabel(
                        _feed(right, 2, act),
                        lambda a1, a2, c, a3, a4: (a1, a2, a3, a4, c),
                    ),
                    _relabel(
                        _feed(middle, 2, act),
                        lambda a1, a3, c, a2, a4: (a1, a2, a3, a4, c),
                    ),
                    _relabel(after_left, lambda a1, a4, c, a2, a3: (a1, a2, a3, a4, c)),
                ],
            )
        )
    for name, lhs, rhs in laws + expansions:
        rep.law(
            name,
            "all ordered basis 4-tuples",
            space.dim**4,
            lhs,
            rhs,
            Matrix.zeros(r.carrier.dim, r.carrier.dim),
            partial(tuple_label, space),
        )
    return rep


def check_lie(a: LieAlgebra) -> Report:
    """Jacobi identity on increasing basis triples."""
    space = a.space
    bracket = a.expand_ordered()
    nested = _feed(bracket, 0, bracket)  # [[i, j], k]
    rep = Report(f"Lie axioms on {space.name}")
    rep.law(
        "Jacobi identity",
        "increasing basis triples",
        comb(space.dim, 3),
        [
            nested,
            _relabel(nested, lambda j, k, i: (i, j, k)),
            _relabel(nested, lambda k, i, j: (i, j, k)),
        ],
        [],
        space,
        partial(tuple_label, space),
        keep=_increasing,
    )
    return rep


def check_leibniz_lie(a: LeibnizLieAlgebra) -> Report:
    """Verify the product laws of a Lie algebra with a compatible product."""
    space = a.space
    prod, lie = a.triangle, a.lie.expand_ordered()
    rep = Report(f"Leibniz-Lie axioms on {space.name}")
    jac = check_lie(a.lie)
    rep.absorb(jac, "underlying Lie algebra")

    right_fed = _feed(prod, 1, prod)  # i > (j > k), keyed (j, k, i)
    laws = (
        (
            "left multiplication law",
            [_relabel(right_fed, lambda j, k, i: (i, j, k))],
            [
                _feed(prod, 0, prod),
                _relabel(right_fed, lambda i, k, j: (i, j, k)),
                _feed(prod, 0, lie),
            ],
        ),
        (
            "product kills brackets",
            [_relabel(_feed(prod, 1, lie), lambda j, k, i: (i, j, k))],
            [],
        ),
        ("bracket kills products", [_feed(lie, 0, prod)], []),
    )
    for name, lhs, rhs in laws:
        rep.law(
            name,
            "all ordered basis triples",
            space.dim**3,
            lhs,
            rhs,
            space,
            partial(tuple_label, space),
        )
    return rep


def check_3ll(a: ThreeLeibnizLieAlgebra) -> Report:
    """Verify the brace laws over a valid 3-Lie bracket.

    Refuses when the underlying bracket is not 3-Lie: the brace laws quote
    that bracket, so their verdict would be meaningless.
    """
    space = a.space
    rep = Report(f"ternary brace axioms on {space.name}")
    gate = check_3lie(ThreeLieAlgebra(space, a.lie3.bracket))
    if not rep.gate(
        gate, "underlying bracket", "underlying bracket fails the fundamental identity"
    ):
        return rep

    brace = a.braces.expand_ordered()
    bracket = a.lie3.bracket.expand_ordered()
    lhs, rhs = _derivation(brace, 2, a.braces)
    # {[h1, h2, h3], h4, h5} and {h3, [h1, h2, h4], h5}
    rhs += [
        _feed(brace, 0, bracket),
        _relabel(_feed(brace, 1, bracket), lambda a, b, d, c, e: (a, b, c, d, e)),
    ]
    laws = (
        ("brace compatibility law", lhs, rhs),
        (
            "braces kill bracket outputs",
            [_relabel(_feed(brace, 2, bracket), lambda c, d, e, a, b: (a, b, c, d, e))],
            [],
        ),
        ("bracket kills brace outputs", [_feed(bracket, 0, brace)], []),
    )
    for name, lhs, rhs in laws:
        rep.law(
            name,
            "all ordered basis 5-tuples",
            space.dim**5,
            lhs,
            rhs,
            space,
            partial(tuple_label, space),
        )
    return rep


def subadjacent(a: ThreeLeibnizLieAlgebra) -> ThreeLeibnizAlgebra:
    """Entry-wise sum of bracket and braces; a ternary Leibniz algebra.

    Refuses when the input fails its own axioms.
    """
    check_3ll(a).require("subadjacent bracket requires a valid input structure")
    table = _sum([a.lie3.bracket.expand_ordered(), a.braces.expand_ordered()])
    return ThreeLeibnizAlgebra(a.space, TrilinearTable(a.space, a.space, table))


# per kind: (line, scope, the table of a structure it compares)
_HOM_LAWS = {
    "lie": (("binary bracket preserved", "increasing basis pairs", lambda s: s),),
    "3lie": (
        ("ternary bracket preserved", "increasing basis triples", lambda s: s.bracket),
    ),
    "3leibniz": (
        ("ternary bracket preserved", "all ordered basis triples", lambda s: s.bracket),
    ),
    "3ll": (
        (
            "ternary bracket preserved",
            "increasing basis triples",
            lambda s: s.lie3.bracket,
        ),
        ("braces preserved", "all ordered basis triples", lambda s: s.braces),
    ),
}
# per scope: (arity, tuple count for dimension n, the keys in the scope)
_HOM_SCOPES = {
    "increasing basis pairs": (2, lambda n: comb(n, 2), _increasing),
    "increasing basis triples": (3, lambda n: comb(n, 3), _increasing),
    "all ordered basis triples": (3, lambda n: n**3, None),
}


def check_hom(kind: str, f: LinearMap, src, dst) -> Report:
    """Verify that f carries the source structure constants to the target.

    kind is one of 'lie', '3lie', '3leibniz', '3ll'; tuples checked are the
    canonical ones for the stored symmetry of that kind.
    """
    rep = Report(f"structure map check ({kind})")
    _fits("structure map", f.shape, (dst.space.dim, src.space.dim))
    laws = _HOM_LAWS.get(kind)
    if laws is None:
        raise InputError(f"unknown structure kind {kind!r}")
    space = src.space
    images = [f.column(i) for i in range(space.dim)]
    for name, scope, part in laws:
        arity, count, keep = _HOM_SCOPES[scope]
        rep.law(
            name,
            scope,
            count(space.dim),
            [_feed(_family(images), 0, part(src).coords)],
            [_substitute(part(dst).expand_ordered(), [images] * arity)],
            dst.space,
            partial(tuple_label, space),
            keep=keep,
        )
    return rep
