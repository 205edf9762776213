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
from functools import partial
from itertools import product
from math import comb

from .algebras import (
    CoherentActionData,
    EmbeddingTensorProblem,
    LinearMap,
    RepresentationData,
    ThreeLeibnizAlgebra,
    ThreeLeibnizLieAlgebra,
    ThreeLieAlgebra,
    _increasing,
    check_3lie,
    check_hom,
)
from .errors import InputError
from .linalg import Matrix
from .multilinear import (
    Space,
    TrilinearTable,
    _columns,
    _derivation,
    _family,
    _feed,
    _fits,
    _relabel,
    _substitute,
    _sum,
    format_vector,
)
from .report import Report, tuple_label


def check_representation(r: RepresentationData) -> Report:
    """Verify the two pair-operator composition laws on ordered 4-tuples.

    Refuses when the acting algebra itself fails the fundamental identity.
    The report is memoized on the (immutable) data object, so repeated
    gating is free; callers must not mutate the returned report.
    """
    if r._verified is not None:
        return r._verified
    rep = Report("pair-action representation check")
    gate = check_3lie(r.algebra)
    if rep.gate(
        gate, "acting algebra", "acting algebra fails the fundamental identity"
    ):
        space = r.algebra.space
        cols = _columns(r.rho.expand_ordered())  # rho(i, j) e_c
        bracket = r.algebra.bracket.expand_ordered()
        into_first = _feed(cols, 0, bracket)  # rho([l1, l2, l3], l4)
        # rho(i, j) rho(k, l) e_c, keyed (k, l, c, i, j)
        products = _feed(cols, 2, cols)
        laws = (
            (
                "action fundamental law",
                [into_first],
                [
                    _relabel(products, lambda l1, l4, c, l2, l3: (l1, l2, l3, l4, c)),
                    _relabel(products, lambda l2, l4, c, l3, l1: (l1, l2, l3, l4, c)),
                    _relabel(products, lambda l3, l4, c, l1, l2: (l1, l2, l3, l4, c)),
                ],
            ),
            (
                "action commutator law",
                [_relabel(products, lambda l3, l4, c, l1, l2: (l1, l2, l3, l4, c))],
                [
                    _relabel(products, lambda l1, l2, c, l3, l4: (l1, l2, l3, l4, c)),
                    into_first,
                    _relabel(  # rho(l3, [l1, l2, l4])
                        _feed(cols, 1, bracket),
                        lambda l1, l2, l4, l3, c: (l1, l2, l3, l4, c),
                    ),
                ],
            ),
        )
        for name, lhs, rhs in laws:
            rep.law(
                name,
                "all ordered basis 4-tuples",
                space.dim**4,
                lhs,
                rhs,
                Matrix.zeros(r.carrier.dim, r.carrier.dim),
                partial(tuple_label, space),
            )
    object.__setattr__(r, "_verified", rep)
    return rep


def check_coherent_action(c: CoherentActionData) -> Report:
    """Verify coherence: H is 3-Lie, operators are derivations, images annihilate.

    Refuses when the underlying representation check refuses or fails.
    The report is memoized on the (immutable) data object, so repeated
    gating is free; callers must not mutate the returned report.
    """
    if c._verified is not None:
        return c._verified
    rep = Report("coherent action check")
    gate = check_representation(c.rep)
    if rep.gate(gate, "representation", "representation laws do not hold"):
        lspace = c.algebra.space
        hspace = c.carrier
        target_gate = check_3lie(ThreeLieAlgebra(hspace, c.target_bracket))
        rep.absorb(target_gate, "carrier bracket")

        # each rho(i, j), keyed (i, j, h), a derivation of the carrier bracket
        lhs, rhs = (
            [_relabel(t, lambda i, j, h1, h2, h3: ((i, j), (h1, h2, h3))) for t in side]
            for side in _derivation(_columns(c.rho.coords), 2, c.target_bracket)
        )
        # the annihilation law is [rho(i, j) h1, h2, h3] = 0, the slot-0 term
        laws = (("derivation law", lhs, rhs), ("annihilation law", rhs[:1], []))
        for name, lhs, rhs in laws:
            rep.law(
                name,
                "increasing pairs x all ordered carrier triples",
                comb(lspace.dim, 2) * hspace.dim**3,
                lhs,
                rhs,
                hspace,
                lambda t: f"pair {tuple_label(lspace, t[0])}, "
                f"triple {tuple_label(hspace, t[1])}",
            )
    object.__setattr__(c, "_verified", rep)
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
    basis = [total.basis_vector(i) for i in range(total.dim)]
    into_l, into_h = _family(basis[:ldim]), _family(basis[ldim:])
    terms = [
        _feed(into_l, 0, c.algebra.bracket.expand_ordered()),
        _relabel(
            _feed(into_h, 0, _columns(c.rho.expand_ordered())),
            lambda i, j, k: (i, j, ldim + k),
        ),
        _relabel(
            _feed(into_h, 0, c.target_bracket.expand_ordered()),
            lambda i, j, k: (ldim + i, ldim + j, ldim + k),
        ),
    ]
    return ThreeLeibnizAlgebra(total, TrilinearTable(total, total, _sum(terms)))


def hemisemidirect(c: CoherentActionData) -> ThreeLeibnizAlgebra:
    """Guarded hemisemidirect product; refuses on a non-coherent action."""
    check_coherent_action(c).require(
        "hemisemidirect product requires a coherent action"
    )
    return hemisemidirect_table(c)


def check_net(p: EmbeddingTensorProblem, mode: str = "all") -> Report:
    """Verify the embedding-tensor condition on basis triples of H.

    mode 'all' checks every ordered triple; mode 'increasing' checks only
    i < j < k. The condition is not alternating, so 'all' is the sound
    default; 'increasing' exists to expose exactly that gap.
    The report is memoized per mode on the (immutable) problem, so
    repeated gating is free; callers must not mutate it.
    """
    if mode not in ("all", "increasing"):
        raise InputError(f"unknown triple mode {mode!r}")
    if mode in p._net_reports:
        return p._net_reports[mode]
    rep = Report("embedding tensor check")
    gate = check_coherent_action(p.action)
    if rep.gate(gate, "coherent action", "the action is not coherent"):
        n = p.h_space.dim
        if mode == "all":
            scope, count, keep = "all ordered carrier triples", n**3, None
        else:
            scope, count, keep = "increasing carrier triples", comb(n, 3), _increasing
        rep.law(
            "embedding-tensor condition",
            scope,
            count,
            *_order(p, [], 0),
            p.l_space,
            partial(tuple_label, p.h_space),
            keep=keep,
        )
    p._net_reports[mode] = rep
    return rep


def _bracket_of(p: EmbeddingTensorProblem, x, y, z) -> dict:
    """{(i, j, k): [X_i, Y_j, Z_k]} of the L-bracket, for three lists of
    L-vectors indexed by a basis."""
    return _substitute(p.l_bracket.expand_ordered(), [x, y, z])


def _action_of(p: EmbeddingTensorProblem, x, y) -> dict:
    """{(i, j, k): rho(X_i, Y_j) e_k}, for two lists of L-vectors indexed by
    a basis; k runs over the basis of H."""
    return _substitute(_columns(p.rho.expand_ordered()), [x, y])


def _order(p: EmbeddingTensorProblem, M: list, k: int) -> tuple:
    """The t^k coefficient of the tensor condition of T + tM, for the tensor
    T and a direction M given by their columns, as (lhs, rhs) lists of term
    tables keyed (a, b, c): lhs [X e_a, Y e_b, Z e_c] and rhs
    S rho(X e_a, Y e_b) e_c, over the choices of T or M for X, Y, Z and for
    S, X, Y that take M k times. The choice S; T, T feeds S into the
    descendent bracket, so that term holds S [e_a, e_b, e_c] too."""
    maps = (p.tensor_columns(), M)
    picks = [pick for pick in product((0, 1), repeat=3) if sum(pick) == k]
    lhs = [_bracket_of(p, *(maps[c] for c in pick)) for pick in picks]
    rhs = []
    for s, a, b in picks:
        acted = _descendent(p) if a == b == 0 else _action_of(p, maps[a], maps[b])
        rhs.append(_feed(_family(maps[s]), 0, acted))
    return lhs, rhs


# The point of the tensor's graph over an H-part; it equals any (L-part,
# H-part) pair that lies on the graph.
_OnGraph = namedtuple("_OnGraph", "l_part h_part")


def graph_check(p: EmbeddingTensorProblem) -> Report:
    """Closure of the tensor's graph inside the hemisemidirect product.

    The graph of the tensor is spanned by (tensor(h), h). The combined
    bracket of three of those basis vectors is ([tensor e_i, tensor e_j,
    tensor e_k], d(i, j, k)), with d the descendent bracket; it lies on the
    graph exactly when its L-part is tensor(d(i, j, k)). The verdict always
    coincides with the full ordered-triple tensor condition; the report
    records that cross-check.
    """
    rep = Report("graph closure check")
    gate = check_coherent_action(p.action)
    if not rep.gate(gate, "coherent action", "the action is not coherent"):
        return rep

    lspace, hspace = p.l_space, p.h_space
    lam_cols = p.tensor_columns()
    l_parts = _bracket_of(p, lam_cols, lam_cols, lam_cols)
    h_parts = _descendent(p)
    zero = (lspace.zero(), hspace.zero())
    points = {
        t: (l_parts.get(t, zero[0]), h_parts.get(t, zero[1]))
        for t in l_parts.keys() | h_parts.keys()
    }

    def show(side):
        if isinstance(side, _OnGraph):
            return f"graph element over {format_vector(hspace, side.h_part)}"
        l_part, h_part = side
        return f"({format_vector(lspace, l_part)} ; {format_vector(hspace, h_part)})"

    rep.law(
        "graph closure",
        "all ordered graph-basis triples",
        hspace.dim**3,
        [points],
        [{t: _OnGraph(p.tensor.apply(h), h) for t, (_, h) in points.items()}],
        zero,
        partial(tuple_label, hspace),
        show=show,
    )
    agreement = check_net(p, mode="all")
    rep.note(
        "tensor-condition cross-check: "
        + ("agrees" if agreement.ok == rep.ok else "DISAGREES")
    )
    return rep


def _descendent(p: EmbeddingTensorProblem) -> dict:
    """The descendent bracket's term tables summed: rho(tensor e_i,
    tensor e_j) e_k + [e_i, e_j, e_k], keyed (i, j, k)."""
    return _sum([_braces(p), p.h_bracket.expand_ordered()])


def _braces(p: EmbeddingTensorProblem) -> dict:
    """The nonzero braces rho(tensor e_i, tensor e_j) e_k, keyed (i, j, k)."""
    lam_cols = p.tensor_columns()
    return _action_of(p, lam_cols, lam_cols)


def _descendent_table(p: EmbeddingTensorProblem) -> TrilinearTable:
    """The descendent bracket on H: the braces plus the carrier bracket."""
    return TrilinearTable(p.h_space, p.h_space, _descendent(p))


def descendent(p: EmbeddingTensorProblem) -> ThreeLeibnizAlgebra:
    """The bracket induced on H by a valid tensor; refuses otherwise."""
    check_net(p, mode="all").require(
        "the descendent bracket requires a valid embedding tensor"
    )
    return ThreeLeibnizAlgebra(p.h_space, _descendent_table(p))


def induced_3ll(p: EmbeddingTensorProblem) -> ThreeLeibnizLieAlgebra:
    """The brace structure induced on H by a valid tensor; refuses otherwise.

    Braces are rho(tensor h1, tensor h2) h3; together with the H-bracket they
    satisfy the brace laws, and bracket + braces equals the descendent bracket.
    """
    check_net(p, mode="all").require(
        "the induced brace structure requires a valid embedding tensor"
    )
    braces = TrilinearTable(p.h_space, p.h_space, _braces(p))
    lie3 = ThreeLieAlgebra(p.h_space, p.h_bracket)
    return ThreeLeibnizLieAlgebra(lie3, braces)


class NetHomomorphism:
    """A pair of maps (f_L, f_H) between two embedding-tensor problems."""

    def __init__(
        self,
        source: EmbeddingTensorProblem,
        target: EmbeddingTensorProblem,
        f_l: LinearMap,
        f_h: LinearMap,
    ):
        _fits("f_L", f_l.shape, (target.l_space.dim, source.l_space.dim))
        _fits("f_H", f_h.shape, (target.h_space.dim, source.h_space.dim))
        self.source = source
        self.target = target
        self.f_l = f_l
        self.f_h = f_h


def check_net_hom(h: NetHomomorphism) -> Report:
    """Verify that (f_L, f_H) is a map of embedding tensors.

    Refuses unless both problems have valid tensors and both component maps
    preserve the respective brackets. On top of the two defining conditions
    (tensor intertwining and action intertwining) the report certifies the
    implied facts: f_H preserves descendent brackets and induced braces.
    """
    rep = Report("embedding tensor map check")
    for label, problem in (("source", h.source), ("target", h.target)):
        gate = check_net(problem, mode="all")
        if not rep.gate(
            gate, f"{label} tensor", f"{label} problem has no valid tensor"
        ):
            return rep
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

    hspace_src, lspace_src = src.h_space, src.l_space
    fh_cols = [h.f_h.column(i) for i in range(hspace_src.dim)]
    fl_cols = [h.f_l.column(i) for i in range(lspace_src.dim)]
    fh = _family(fh_cols)
    inter = rep.law(
        "tensor intertwining",
        "carrier basis vectors",
        hspace_src.dim,
        [_feed(_family(dst.tensor_columns()), 0, fh)],
        [_feed(_family(fl_cols), 0, _family(src.tensor_columns()))],
        dst.l_space,
        partial(tuple_label, hspace_src),
    )
    # rho_dst(f_L e_i, f_L e_j) e_c, keyed (i, j, c)
    pushed = _substitute(_columns(dst.rho.expand_ordered()), [fl_cols, fl_cols])
    act = rep.law(
        "action intertwining",
        "increasing algebra pairs (operator identity)",
        comb(lspace_src.dim, 2),
        [_relabel(_feed(fh, 0, _columns(src.rho.coords)), lambda i, j, c: ((i, j), c))],
        [_relabel(_feed(pushed, 2, fh), lambda c, i, j: ((i, j), c))],
        Matrix.zeros(dst.h_space.dim, hspace_src.dim),
        lambda t: f"pair {tuple_label(lspace_src, t[0])}",
        keep=lambda t: t[0][0] < t[0][1],
    )

    if inter.passed and act.passed:
        laws = (
            ("descendent bracket preserved", _descendent),
            ("induced braces preserved", _braces),
        )
        for name, table in laws:
            rep.law(
                name,
                "all ordered carrier triples",
                hspace_src.dim**3,
                [_feed(fh, 0, table(src))],
                [_substitute(table(dst), [fh_cols] * 3)],
                dst.h_space,
                partial(tuple_label, hspace_src),
            )
    return rep
