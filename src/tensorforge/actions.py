"""Pair actions of 3-Lie algebras, coherence, and embedding tensors.

A representation assigns to each basis pair of L an operator on H, bilinearly
and alternately, subject to two composition laws. A coherent action is a
representation on another 3-Lie algebra H whose operators are derivations of
the H-bracket with annihilating image. An embedding tensor is a linear map
H -> L intertwining the two brackets through the action; its failure set and
its graph criterion are both computed exactly.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product
from math import comb

from .algebras import (
    LinearMap,
    ThreeLeibnizAlgebra,
    ThreeLeibnizLieAlgebra,
    ThreeLieAlgebra,
    check_3lie,
    check_hom,
)
from .errors import InputError, PreconditionError
from .linalg import Matrix, Vector
from .multilinear import (
    AlternatingTrilinearTable,
    PairAction,
    Space,
    TrilinearTable,
    _extend,
    _feeds,
    _products,
    format_matrix,
    format_vector,
)
from .report import Report, tuple_label


@dataclass(frozen=True)
class RepresentationData:
    """A 3-Lie algebra L acting on a carrier space by pair operators."""

    algebra: ThreeLieAlgebra
    carrier: Space
    rho: PairAction
    _verified: Report | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.rho.source.dim != self.algebra.space.dim:
            raise InputError("action source must be the acting algebra's space")
        if self.rho.target.dim != self.carrier.dim:
            raise InputError("action target must be the carrier space")


@dataclass(frozen=True)
class CoherentActionData:
    """A representation whose carrier itself carries a 3-Lie bracket."""

    rep: RepresentationData
    target_bracket: AlternatingTrilinearTable
    _verified: Report | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.target_bracket.domain.dim != self.rep.carrier.dim:
            raise InputError("target bracket must live on the carrier space")

    @property
    def algebra(self) -> ThreeLieAlgebra:
        return self.rep.algebra

    @property
    def carrier(self) -> Space:
        return self.rep.carrier

    @property
    def rho(self) -> PairAction:
        return self.rep.rho


@dataclass(frozen=True)
class EmbeddingTensorProblem:
    """A coherent action together with a candidate tensor H -> L."""

    action: CoherentActionData
    tensor: LinearMap
    _net_reports: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _complexes: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.tensor.source.dim != self.action.carrier.dim:
            raise InputError("tensor source must be the carrier space")
        if self.tensor.target.dim != self.action.algebra.space.dim:
            raise InputError("tensor target must be the acting algebra's space")

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


def check_representation(r: RepresentationData, title: str | None = None) -> Report:
    """Verify the two pair-operator composition laws on ordered 4-tuples.

    Refuses when the acting algebra itself fails the fundamental identity.
    The default-title report is memoized on the (immutable) data object, so
    repeated gating is free; callers must not mutate the returned report.
    """
    if title is not None:
        return _check_representation_impl(r, title)
    if r._verified is None:
        object.__setattr__(r, "_verified", _check_representation_impl(r, None))
    return r._verified


def _operators(rho: PairAction) -> dict:
    """The nonzero operators of rho on every ordered pair."""
    ops = dict(rho.coords)
    ops.update(((j, i), -mat) for (i, j), mat in rho.coords.items())
    return ops


def _representation_supports(r: RepresentationData, ops: dict) -> tuple:
    """Ordered 4-tuples where a term of the fundamental law, and of the
    commutator law, can be nonzero: joins of the bracket into the operator
    keys, and pairs of operators whose product can be nonzero."""
    bracket = r.algebra.bracket.expand_ordered()
    # rho([l1, l2, l3], l4)
    into_first = {v + rest for v, rest in _feeds(bracket, ops, 0)}
    products = _products(ops, ops)
    # rho(l2, l3) rho(l1, l4), rho(l3, l1) rho(l2, l4), rho(l1, l2) rho(l3, l4)
    fundamental = into_first | {
        t
        for a, b in products
        for t in (b[:1] + a + b[1:], (a[1], b[0], a[0], b[1]), a + b)
    }
    # rho(l1, l2) rho(l3, l4), rho(l3, l4) rho(l1, l2), rho(l3, [l1, l2, l4])
    commutator = into_first | {t for a, b in products for t in (a + b, b + a)}
    commutator.update(v[:2] + rest + v[2:] for v, rest in _feeds(bracket, ops, 1))
    return fundamental, commutator


def _check_representation_impl(r: RepresentationData, title: str | None) -> Report:
    rep = Report(title or "pair-action representation check")
    gate = check_3lie(r.algebra)
    if not gate.ok:
        rep.absorb(gate, "acting algebra")
        return rep.refuse("acting algebra fails the fundamental identity")

    space = r.algebra.space
    dim = space.dim
    value = r.algebra.value
    ops = _operators(r.rho)
    zero = Matrix.zeros(r.carrier.dim, r.carrier.dim)

    def op(i: int, j: int) -> Matrix:
        return ops.get((i, j), zero)

    def fundamental(t):
        l1, l2, l3, l4 = t
        lhs = _extend(lambda m: ops.get((m, l4)), value(l1, l2, l3), zero)
        rhs = (
            op(l2, l3).mul(op(l1, l4))
            + op(l3, l1).mul(op(l2, l4))
            + op(l1, l2).mul(op(l3, l4))
        )
        return lhs, rhs

    def commutator(t):
        l1, l2, l3, l4 = t
        lhs = op(l1, l2).mul(op(l3, l4))
        rhs = (
            op(l3, l4).mul(op(l1, l2))
            + _extend(lambda m: ops.get((m, l4)), value(l1, l2, l3), zero)
            + _extend(lambda m: ops.get((l3, m)), value(l1, l2, l4), zero)
        )
        return lhs, rhs

    for (name, sides), support in zip(
        (
            ("action fundamental law", fundamental),
            ("action commutator law", commutator),
        ),
        _representation_supports(r, ops),
    ):
        rep.law(
            name,
            "all ordered basis 4-tuples",
            sorted(support),
            sides,
            format_matrix,
            partial(tuple_label, space),
            dim**4,
        )
    return rep


def check_coherent_action(c: CoherentActionData, title: str | None = None) -> Report:
    """Verify coherence: H is 3-Lie, operators are derivations, images annihilate.

    Refuses when the underlying representation check refuses or fails.
    The default-title report is memoized on the (immutable) data object, so
    repeated gating is free; callers must not mutate the returned report.
    """
    if title is not None:
        return _check_coherent_action_impl(c, title)
    if c._verified is None:
        object.__setattr__(c, "_verified", _check_coherent_action_impl(c, None))
    return c._verified


def _check_coherent_action_impl(c: CoherentActionData, title: str | None) -> Report:
    rep = Report(title or "coherent action check")
    gate = check_representation(c.rep)
    if gate.verdict != "pass":
        rep.absorb(gate, "representation")
        return rep.refuse("representation laws do not hold")

    lspace = c.algebra.space
    hspace = c.carrier
    zero = hspace.zero()
    hb = c.target_bracket.value
    ops = c.rho.coords
    no_op = Matrix.zeros(hspace.dim, hspace.dim)

    target_gate = check_3lie(ThreeLieAlgebra(hspace, c.target_bracket))
    rep.absorb(target_gate, "carrier bracket")

    def derivation(t):
        (i, j), (h1, h2, h3) = t
        mat = ops.get((i, j), no_op)
        hval = hb(h1, h2, h3)
        lhs = zero if hval is None else mat.mul_vec(hval)
        rhs = (
            _extend(lambda m: hb(m, h2, h3), mat.col(h1), zero)
            + _extend(lambda m: hb(h1, m, h3), mat.col(h2), zero)
            + _extend(lambda m: hb(h1, h2, m), mat.col(h3), zero)
        )
        return lhs, rhs

    def annihilation(t):
        (i, j), (h1, h2, h3) = t
        mat = ops.get((i, j), no_op)
        return _extend(lambda m: hb(m, h2, h3), mat.col(h1), zero), zero

    for (name, sides), support in zip(
        (
            ("derivation law", derivation),
            ("annihilation law", annihilation),
        ),
        _coherence_supports(c, ops),
    ):
        rep.law(
            name,
            "increasing pairs x all ordered carrier triples",
            sorted(support),
            sides,
            partial(format_vector, hspace),
            lambda t: f"pair {tuple_label(lspace, t[0])}, "
            f"triple {tuple_label(hspace, t[1])}",
            comb(lspace.dim, 2) * hspace.dim**3,
        )
    return rep


def _coherence_supports(c: CoherentActionData, ops: dict) -> tuple:
    """Increasing pairs x ordered carrier triples where a term of the
    derivation law, and of the annihilation law, can be nonzero: joins of
    the carrier bracket into the operators' columns and back."""
    bracket = c.target_bracket.expand_ordered()
    # the nonzero columns rho(i, j) e_h, keyed (i, j, h)
    columns = {
        pair + (h,): op.col(h) for pair, op in ops.items() for (_, h), _ in op.items()
    }
    # [rho(i, j) h1, h2, h3]
    annihilation = {
        (v[:2], v[2:] + rest) for v, rest in _feeds(columns, bracket, 0)
    }
    # [h1, rho(i, j) h2, h3], [h1, h2, rho(i, j) h3]
    derivation = annihilation | {
        (v[:2], rest[:1] + v[2:] + rest[1:])
        for v, rest in _feeds(columns, bracket, 1)
    }
    derivation.update(
        (v[:2], rest + v[2:]) for v, rest in _feeds(columns, bracket, 2)
    )
    # rho(i, j) [h1, h2, h3]
    by_column = [key[2:] + key[:2] for key in columns]
    derivation.update((pair, t) for t, pair in _feeds(bracket, by_column, 0))
    return derivation, annihilation


def hemisemidirect_table(c: CoherentActionData) -> ThreeLeibnizAlgebra:
    """The combined bracket on L + H, built without checking coherence.

    [l1+h1, l2+h2, l3+h3] = [l1,l2,l3]_L + rho(l1,l2)h3 + [h1,h2,h3]_H.
    """
    lspace = c.algebra.space
    hspace = c.carrier
    ldim, hdim = lspace.dim, hspace.dim
    labels = tuple(f"l_{s}" for s in lspace.basis_labels) + tuple(
        f"h_{s}" for s in hspace.basis_labels
    )
    total = Space(f"{lspace.name}(+){hspace.name}", ldim + hdim, labels)

    def embed_l(v: Vector) -> Vector:
        return Vector(v.entries + (0,) * hdim)

    def embed_h(v: Vector) -> Vector:
        return Vector((0,) * ldim + v.entries)

    coords = {}
    for key, vec in c.algebra.bracket.expand_ordered().items():
        coords[key] = embed_l(vec)
    for (i, j), mat in c.rho.items():
        for k in range(hdim):
            coords[(i, j, ldim + k)] = embed_h(mat.col(k))
            coords[(j, i, ldim + k)] = embed_h(-mat.col(k))
    for (i, j, k), vec in c.target_bracket.expand_ordered().items():
        coords[(ldim + i, ldim + j, ldim + k)] = embed_h(vec)
    return ThreeLeibnizAlgebra(total, TrilinearTable(total, total, coords))


def hemisemidirect(c: CoherentActionData) -> ThreeLeibnizAlgebra:
    """Guarded hemisemidirect product; refuses on a non-coherent action."""
    gate = check_coherent_action(c)
    if not gate.ok:
        raise PreconditionError(
            "hemisemidirect product requires a coherent action", gate
        )
    return hemisemidirect_table(c)


def check_net(
    p: EmbeddingTensorProblem, mode: str = "all", title: str | None = None
) -> Report:
    """Verify the embedding-tensor condition on basis triples of H.

    mode 'all' checks every ordered triple; mode 'increasing' checks only
    i < j < k. The condition is not alternating, so 'all' is the sound
    default; 'increasing' exists to expose exactly that gap.
    The default-title report is memoized per mode on the (immutable)
    problem, so repeated gating is free; callers must not mutate it.
    """
    if mode not in ("all", "increasing"):
        raise InputError(f"unknown triple mode {mode!r}")
    if title is not None:
        return _check_net_impl(p, mode, title)
    if mode not in p._net_reports:
        p._net_reports[mode] = _check_net_impl(p, mode, None)
    return p._net_reports[mode]


def _check_net_impl(
    p: EmbeddingTensorProblem, mode: str, title: str | None
) -> Report:
    rep = Report(title or "embedding tensor check")
    gate = check_coherent_action(p.action)
    if gate.verdict != "pass":
        rep.absorb(gate, "coherent action")
        return rep.refuse("the action is not coherent")

    lspace, hspace = p.l_space, p.h_space
    hdim = hspace.dim
    lam = p.tensor
    lam_cols = p.tensor_columns()
    lb, hb, rho = p.l_bracket, p.h_bracket, p.rho

    support = _tensor_support(p, [(lam_cols,) * 3], [(lam_cols,) * 2], True)
    if mode == "all":
        scope, count = "all ordered carrier triples", hdim**3
    else:
        scope, count = "increasing carrier triples", comb(hdim, 3)
        support = {t for t in support if t[0] < t[1] < t[2]}

    def condition(t):
        i, j, k = t
        lhs = lb.eval(lam_cols[i], lam_cols[j], lam_cols[k])
        inner = rho.apply(lam_cols[i], lam_cols[j], hspace.basis_vector(k))
        hval = hb.value(i, j, k)
        if hval is not None:
            inner = inner + hval
        return lhs, lam.apply(inner)

    rep.law(
        "embedding-tensor condition",
        scope,
        sorted(support),
        condition,
        partial(format_vector, lspace),
        partial(tuple_label, hspace),
        count,
    )
    return rep


def _tensor_support(
    p: EmbeddingTensorProblem, brackets, actions, carrier: bool
) -> set:
    """Ordered carrier triples (i, j, k) where a term of a tensor-condition
    law can be nonzero.

    Each entry of brackets is three column families (X, Y, Z), lists of
    L-vectors indexed by the basis of H, for a term [X_i, Y_j, Z_k] of the
    L-bracket; each entry of actions is (X, Y) for a term
    rho(X_i, Y_j) e_k; carrier adds the terms [e_i, e_j, e_k] of the
    H-bracket. A family's column i can feed a key's index a only when its
    entry a is nonzero, so each term's support is a product of the
    columns hit by each index of a nonzero key.
    """

    def hits(family):
        rows = [[] for _ in range(p.l_space.dim)]
        for i, col in enumerate(family):
            for a, _ in col.iter_nonzero():
                rows[a].append(i)
        return rows

    out = set()
    keys = p.l_bracket.expand_ordered()
    for term in brackets:
        x, y, z = map(hits, term)
        for a, b, c in keys:
            out.update(product(x[a], y[b], z[c]))
    ops = _operators(p.rho)
    for term in actions:
        x, y = map(hits, term)
        for (a, b), op in ops.items():
            out.update(product(x[a], y[b], {h for (_, h), _ in op.items()}))
    if carrier:
        out.update(p.h_bracket.expand_ordered())
    return out


# The point of the tensor's graph over an H-part; it equals any (L-part,
# H-part) pair that lies on the graph.
_OnGraph = namedtuple("_OnGraph", "l_part h_part")


def graph_check(p: EmbeddingTensorProblem, title: str | None = None) -> Report:
    """Closure of the tensor's graph inside the hemisemidirect product.

    The graph of the tensor is spanned by (tensor(h), h); a combined-bracket
    value (x, y) lies on it exactly when x = tensor(y). The verdict always
    coincides with the full ordered-triple tensor condition; the report
    records that cross-check.
    """
    rep = Report(title or "graph closure check")
    gate = check_coherent_action(p.action)
    if gate.verdict != "pass":
        rep.absorb(gate, "coherent action")
        return rep.refuse("the action is not coherent")

    combined = hemisemidirect_table(p.action)
    lspace, hspace = p.l_space, p.h_space
    ldim, hdim = lspace.dim, hspace.dim
    lam = p.tensor
    lam_cols = p.tensor_columns()
    graph_basis = [
        Vector(lam_cols[i].entries + hspace.basis_vector(i).entries)
        for i in range(hdim)
    ]

    def closure(t):
        out = combined.eval(*(graph_basis[i] for i in t))
        h_part = Vector(out.entries[ldim:])
        return (Vector(out.entries[:ldim]), h_part), _OnGraph(lam.apply(h_part), h_part)

    def show(side):
        if isinstance(side, _OnGraph):
            return f"graph element over {format_vector(hspace, side.h_part)}"
        l_part, h_part = side
        return f"({format_vector(lspace, l_part)} ; {format_vector(hspace, h_part)})"

    # the graph condition has the terms of the tensor condition, so the same support
    support = _tensor_support(p, [(lam_cols,) * 3], [(lam_cols,) * 2], True)
    rep.law(
        "graph closure",
        "all ordered graph-basis triples",
        sorted(support),
        closure,
        show,
        partial(tuple_label, hspace),
        hdim**3,
    )
    agreement = check_net(p, mode="all")
    rep.note(
        "tensor-condition cross-check: "
        + ("agrees" if agreement.ok == rep.ok else "DISAGREES")
    )
    return rep


def _braces(p: EmbeddingTensorProblem) -> dict:
    """The nonzero braces rho(tensor e_i, tensor e_j) e_k, keyed (i, j, k)."""
    lam_cols = p.tensor_columns()
    coords = {}
    for i, j in product(range(p.h_space.dim), repeat=2):
        op = p.rho.eval(lam_cols[i], lam_cols[j])
        for k in sorted({k for (_, k), _ in op.items()}):
            coords[(i, j, k)] = op.col(k)
    return coords


def _descendent_table(p: EmbeddingTensorProblem) -> TrilinearTable:
    """The descendent bracket on H: the braces plus the carrier bracket."""
    coords = _braces(p)
    for key, hval in p.h_bracket.expand_ordered().items():
        coords[key] = coords[key] + hval if key in coords else hval
    return TrilinearTable(p.h_space, p.h_space, dict(sorted(coords.items())))


def _require_net(p: EmbeddingTensorProblem, what: str) -> None:
    gate = check_net(p, mode="all")
    if not gate.ok:
        raise PreconditionError(
            f"{what} requires a valid embedding tensor", gate
        )


def descendent(p: EmbeddingTensorProblem) -> ThreeLeibnizAlgebra:
    """The bracket induced on H by a valid tensor; refuses otherwise.

    Also certifies that the tensor is a structure map from the new bracket
    to the L-bracket; that certification cannot fail for a valid tensor, and
    a violation raises instead of returning a wrong structure.
    """
    _require_net(p, "the descendent bracket")
    table = _descendent_table(p)
    lam_cols = p.tensor_columns()
    for i, j, k in product(range(p.h_space.dim), repeat=3):
        val = table.value(i, j, k)
        left = p.l_space.zero() if val is None else p.tensor.apply(val)
        if left != p.l_bracket.eval(lam_cols[i], lam_cols[j], lam_cols[k]):
            raise PreconditionError(
                "descendent bracket is not intertwined by the tensor; "
                "the tensor condition must have been violated"
            )
    return ThreeLeibnizAlgebra(p.h_space, table)


def induced_3ll(p: EmbeddingTensorProblem) -> ThreeLeibnizLieAlgebra:
    """The brace structure induced on H by a valid tensor; refuses otherwise.

    Braces are rho(tensor h1, tensor h2) h3; together with the H-bracket they
    satisfy the brace laws, and bracket + braces equals the descendent bracket.
    """
    _require_net(p, "the induced brace structure")
    braces = TrilinearTable(p.h_space, p.h_space, _braces(p))
    lie3 = ThreeLieAlgebra(p.h_space, p.h_bracket)
    return ThreeLeibnizLieAlgebra(lie3, braces)


@dataclass
class NetHomomorphism:
    """A pair of maps (f_L, f_H) between two embedding-tensor problems."""

    source: EmbeddingTensorProblem
    target: EmbeddingTensorProblem
    f_l: LinearMap
    f_h: LinearMap

    def __post_init__(self):
        if self.f_l.source.dim != self.source.l_space.dim:
            raise InputError("f_L source dimension mismatch")
        if self.f_l.target.dim != self.target.l_space.dim:
            raise InputError("f_L target dimension mismatch")
        if self.f_h.source.dim != self.source.h_space.dim:
            raise InputError("f_H source dimension mismatch")
        if self.f_h.target.dim != self.target.h_space.dim:
            raise InputError("f_H target dimension mismatch")


def check_net_hom(h: NetHomomorphism, title: str | None = None) -> Report:
    """Verify that (f_L, f_H) is a map of embedding tensors.

    Refuses unless both problems have valid tensors and both component maps
    preserve the respective brackets. On top of the two defining conditions
    (tensor intertwining and action intertwining) the report certifies the
    implied facts: f_H preserves descendent brackets and induced braces.
    """
    rep = Report(title or "embedding tensor map check")
    for label, problem in (("source", h.source), ("target", h.target)):
        gate = check_net(problem, mode="all")
        if not gate.ok:
            rep.absorb(gate, f"{label} tensor")
            return rep.refuse(f"{label} problem has no valid tensor")
    src, dst = h.source, h.target
    fl_gate = check_hom(
        "3lie",
        h.f_l,
        ThreeLieAlgebra(src.l_space, src.l_bracket),
        ThreeLieAlgebra(dst.l_space, dst.l_bracket),
    )
    fh_gate = check_hom(
        "3lie",
        h.f_h,
        ThreeLieAlgebra(src.h_space, src.h_bracket),
        ThreeLieAlgebra(dst.h_space, dst.h_bracket),
    )
    if not (fl_gate.ok and fh_gate.ok):
        rep.absorb(fl_gate, "f_L bracket preservation")
        rep.absorb(fh_gate, "f_H bracket preservation")
        return rep.refuse("component maps do not preserve the brackets")

    hspace_src = src.h_space
    lspace_src = src.l_space
    inter = rep.law(
        "tensor intertwining",
        "carrier basis vectors",
        ((i,) for i in range(hspace_src.dim)),
        lambda t: (
            dst.tensor.apply(h.f_h.column(t[0])),
            h.f_l.apply(src.tensor.column(t[0])),
        ),
        partial(format_vector, dst.l_space),
        lambda t: f"({hspace_src.label(t[0])})",
    )

    def action_sides(t):
        ((i, j),) = t
        e_i, e_j = lspace_src.basis_vector(i), lspace_src.basis_vector(j)
        lhs = h.f_h.matrix.mul(src.rho.eval(e_i, e_j))
        rhs = dst.rho.eval(h.f_l.column(i), h.f_l.column(j)).mul(h.f_h.matrix)
        return lhs, rhs

    act = rep.law(
        "action intertwining",
        "increasing algebra pairs (operator identity)",
        ((pair,) for pair in combinations(range(lspace_src.dim), 2)),
        action_sides,
        format_matrix,
        lambda t: f"pair {tuple_label(lspace_src, t[0])}",
    )

    if inter.passed and act.passed:
        desc_src = _descendent_table(src)
        desc_dst = _descendent_table(dst)
        fh_cols = [h.f_h.column(i) for i in range(hspace_src.dim)]
        lam_cols_src = src.tensor_columns()
        zero_h = hspace_src.zero()

        def descendent_sides(t):
            i, j, k = t
            val = desc_src.value(i, j, k)
            lhs = h.f_h.apply(val if val is not None else zero_h)
            return lhs, desc_dst.eval(fh_cols[i], fh_cols[j], fh_cols[k])

        def brace_sides(t):
            i, j, k = t
            lhs = h.f_h.apply(
                src.rho.apply(
                    lam_cols_src[i], lam_cols_src[j], hspace_src.basis_vector(k)
                )
            )
            rhs = dst.rho.apply(
                dst.tensor.apply(fh_cols[i]),
                dst.tensor.apply(fh_cols[j]),
                fh_cols[k],
            )
            return lhs, rhs

        for name, sides in (
            ("descendent bracket preserved", descendent_sides),
            ("induced braces preserved", brace_sides),
        ):
            rep.law(
                name,
                "all ordered carrier triples",
                product(range(hspace_src.dim), repeat=3),
                sides,
                partial(format_vector, dst.h_space),
                partial(tuple_label, hspace_src),
            )
    return rep
