"""Pair actions of 3-Lie algebras, coherence, and embedding tensors.

A representation assigns to each basis pair of L an operator on H, bilinearly
and alternately, subject to two composition laws. A coherent action is a
representation on another 3-Lie algebra H whose operators are derivations of
the H-bracket with annihilating image. An embedding tensor is a linear map
H -> L intertwining the two brackets through the action; its failure set and
its graph criterion are both computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product

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
    format_matrix,
    format_vector,
)
from .report import Report, one_based, tuple_label


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


def _check_representation_impl(r: RepresentationData, title: str | None) -> Report:
    rep = Report(title or "pair-action representation check")
    gate = check_3lie(r.algebra)
    if not gate.ok:
        rep.absorb(gate, "acting algebra")
        return rep.refuse("acting algebra fails the fundamental identity")

    space = r.algebra.space
    dim = space.dim
    hdim = r.carrier.dim
    rho = r.rho
    value = r.algebra.value
    zero = Matrix.zeros(hdim, hdim)

    def op(i: int, j: int) -> Matrix:
        mat = rho.at(i, j)
        return zero if mat is None else mat

    ops = [[op(i, j) for j in range(dim)] for i in range(dim)]

    def fundamental(t):
        l1, l2, l3, l4 = t
        lhs = _extend(lambda m: rho.at(m, l4), value(l1, l2, l3), zero)
        rhs = (
            ops[l2][l3].mul(ops[l1][l4])
            + ops[l3][l1].mul(ops[l2][l4])
            + ops[l1][l2].mul(ops[l3][l4])
        )
        return lhs, rhs

    def commutator(t):
        l1, l2, l3, l4 = t
        lhs = ops[l1][l2].mul(ops[l3][l4])
        rhs = (
            ops[l3][l4].mul(ops[l1][l2])
            + _extend(lambda m: rho.at(m, l4), value(l1, l2, l3), zero)
            + _extend(lambda m: rho.at(l3, m), value(l1, l2, l4), zero)
        )
        return lhs, rhs

    for name, sides in (
        ("action fundamental law", fundamental),
        ("action commutator law", commutator),
    ):
        rep.law(
            name,
            "all ordered basis 4-tuples",
            product(range(dim), repeat=4),
            sides,
            format_matrix,
            partial(tuple_label, space),
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
    rho = c.rho

    target_gate = check_3lie(ThreeLieAlgebra(hspace, c.target_bracket))
    rep.absorb(target_gate, "carrier bracket")

    def derivation(t):
        (i, j), (h1, h2, h3) = t
        mat = rho.at(i, j)
        if mat is None:
            return zero, zero
        val = hb(h1, h2, h3)
        lhs = zero if val is None else mat.mul_vec(val)
        rhs = (
            _extend(lambda m: hb(m, h2, h3), mat.col(h1), zero)
            + _extend(lambda m: hb(h1, m, h3), mat.col(h2), zero)
            + _extend(lambda m: hb(h1, h2, m), mat.col(h3), zero)
        )
        return lhs, rhs

    def annihilation(t):
        (i, j), (h1, h2, h3) = t
        mat = rho.at(i, j)
        if mat is None:
            return zero, zero
        return _extend(lambda m: hb(m, h2, h3), mat.col(h1), zero), zero

    for name, sides in (
        ("derivation law", derivation),
        ("annihilation law", annihilation),
    ):
        rep.law(
            name,
            "increasing pairs x all ordered carrier triples",
            product(
                combinations(range(lspace.dim), 2),
                product(range(hspace.dim), repeat=3),
            ),
            sides,
            partial(format_vector, hspace),
            lambda t: f"pair {tuple_label(lspace, t[0])}, "
            f"triple {tuple_label(hspace, t[1])}",
        )
    return rep


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
            col = mat.col(k)
            if col.is_zero():
                continue
            coords[(i, j, ldim + k)] = embed_h(col)
            coords[(j, i, ldim + k)] = embed_h(-col)
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

    if mode == "all":
        scope = "all ordered carrier triples"
        triples = product(range(hdim), repeat=3)
    else:
        scope = "increasing carrier triples"
        triples = combinations(range(hdim), 3)

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
        triples,
        condition,
        partial(format_vector, lspace),
        partial(tuple_label, hspace),
    )
    return rep


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
    graph_basis = [
        Vector(lam.column(i).entries + hspace.basis_vector(i).entries)
        for i in range(hdim)
    ]

    line = rep.line("graph closure", "all ordered graph-basis triples")
    for i in range(hdim):
        for j in range(hdim):
            for k in range(hdim):
                line.checked += 1
                out = combined.eval(
                    graph_basis[i], graph_basis[j], graph_basis[k]
                )
                l_part = Vector(out.entries[:ldim])
                h_part = Vector(out.entries[ldim:])
                if l_part != lam.apply(h_part):
                    line.add_failure(
                        one_based((i, j, k)),
                        tuple_label(hspace, (i, j, k)),
                        f"({format_vector(lspace, l_part)} ; "
                        f"{format_vector(hspace, h_part)})",
                        f"graph element over {format_vector(hspace, h_part)}",
                    )
    agreement = check_net(p, mode="all")
    rep.note(
        "tensor-condition cross-check: "
        + ("agrees" if agreement.ok == rep.ok else "DISAGREES")
    )
    return rep


def _descendent_table(p: EmbeddingTensorProblem) -> TrilinearTable:
    hspace = p.h_space
    hdim = hspace.dim
    lam_cols = p.tensor_columns()
    coords = {}
    for i in range(hdim):
        for j in range(hdim):
            for k in range(hdim):
                vec = p.rho.apply(
                    lam_cols[i], lam_cols[j], hspace.basis_vector(k)
                )
                hval = p.h_bracket.value(i, j, k)
                if hval is not None:
                    vec = vec + hval
                if not vec.is_zero():
                    coords[(i, j, k)] = vec
    return TrilinearTable(hspace, hspace, coords)


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
    alg = ThreeLeibnizAlgebra(p.h_space, table)
    lam_cols = p.tensor_columns()
    hdim = p.h_space.dim
    for i in range(hdim):
        for j in range(hdim):
            for k in range(hdim):
                left = p.tensor.apply(
                    table.eval(
                        p.h_space.basis_vector(i),
                        p.h_space.basis_vector(j),
                        p.h_space.basis_vector(k),
                    )
                )
                right = p.l_bracket.eval(lam_cols[i], lam_cols[j], lam_cols[k])
                if left != right:
                    raise PreconditionError(
                        "descendent bracket is not intertwined by the tensor; "
                        "the tensor condition must have been violated"
                    )
    return alg


def induced_3ll(p: EmbeddingTensorProblem) -> ThreeLeibnizLieAlgebra:
    """The brace structure induced on H by a valid tensor; refuses otherwise.

    Braces are rho(tensor h1, tensor h2) h3; together with the H-bracket they
    satisfy the brace laws, and bracket + braces equals the descendent bracket.
    """
    _require_net(p, "the induced brace structure")
    hspace = p.h_space
    hdim = hspace.dim
    lam_cols = p.tensor_columns()
    coords = {}
    for i in range(hdim):
        for j in range(hdim):
            for k in range(hdim):
                vec = p.rho.apply(
                    lam_cols[i], lam_cols[j], hspace.basis_vector(k)
                )
                if not vec.is_zero():
                    coords[(i, j, k)] = vec
    braces = TrilinearTable(hspace, hspace, coords)
    lie3 = ThreeLieAlgebra(hspace, p.h_bracket)
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
        mat = src.rho.at(i, j)
        lhs = (
            h.f_h.matrix.mul(mat)
            if mat is not None
            else Matrix.zeros(dst.h_space.dim, hspace_src.dim)
        )
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
