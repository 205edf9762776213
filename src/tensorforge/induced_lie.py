"""Lifting Lie-level data to the ternary world along a trace functional.

A trace is a linear functional vanishing on brackets. It turns a Lie
bracket into an alternating ternary one, a Lie action into a pair action,
and a Lie embedding tensor into a ternary one, provided the traces on both
sides agree through the tensor. The binary product of a Leibniz-Lie
algebra lifts the same way to ternary braces.
"""

from __future__ import annotations

from .algebras import (
    CoherentActionData,
    EmbeddingTensorProblem,
    LeibnizLieAlgebra,
    LieAlgebra,
    LieCoherentAction,
    LieNet,
    RepresentationData,
    ThreeLeibnizLieAlgebra,
    ThreeLieAlgebra,
    TraceMap,
    check_leibniz_lie,
    check_lie,
)
from .errors import InputError
from .linalg import Matrix, ZERO
from .multilinear import (
    AlternatingTrilinearTable,
    PairAction,
    TrilinearTable,
    _columns,
    _derivation,
    _family,
    _feed,
    _increasing,
    _relabel,
    _substitute,
    _sum,
)
from .report import Report, Scope, tuple_label


def check_trace(t: TraceMap, algebra) -> Report:
    """Does the functional vanish on all products of the algebra?

    Accepts a Lie algebra (brackets only) or a Leibniz-Lie algebra
    (brackets and the binary product).
    """
    if isinstance(algebra, LeibnizLieAlgebra):
        lie = algebra.lie
        products = algebra
    elif isinstance(algebra, LieAlgebra):
        lie = algebra
        products = None
    else:
        raise InputError("trace check expects a Lie or Leibniz-Lie algebra")
    if t.space != lie.space:
        raise InputError("trace and algebra live on different spaces")

    rep = Report("trace check")
    laws = [("vanishes on brackets", "increasing", True, lie.coords)]
    if products is not None:
        laws.append(("vanishes on products", "all ordered", False, products.triangle))
    for name, pairs, increasing, values in laws:
        rep.law(
            name, Scope(f"{pairs} basis pairs", (None, lie.space, 2, increasing)),
            [{pair: t.apply(v) for pair, v in values.items()}], [], ZERO,
        )
    return rep


def _scaled(t: TraceMap, table: dict) -> dict:
    """{(i,) + key: t(e_i) table[key]}: the outer product of the trace's
    coefficients with a table."""
    return {
        (i,) + key: val.scale(c)
        for i, c in t.covector.iter_nonzero()
        for key, val in table.items()
    }


def _ternary_from_binary(lie: LieAlgebra, t: TraceMap) -> AlternatingTrilinearTable:
    """t(e_i) [e_j, e_k] + t(e_j) [e_k, e_i] + t(e_k) [e_i, e_j] on
    increasing triples."""
    cycled = _scaled(t, lie.expand_ordered())  # t(e_i) [e_j, e_k]
    terms = [
        cycled,
        _relabel(cycled, lambda j, k, i: (i, j, k)),
        _relabel(cycled, lambda k, i, j: (i, j, k)),
    ]
    return AlternatingTrilinearTable(
        lie.space, lie.space, _sum(terms, keep=_increasing)
    )


def threelie_from_lie(lie: LieAlgebra, t: TraceMap) -> ThreeLieAlgebra:
    """The alternating ternary bracket cycled out of a bracket and a trace.

    Requires the trace to vanish on brackets; the result then satisfies
    the fundamental identity automatically.
    """
    check_lie(lie).require("the input must be a Lie algebra")
    check_trace(t, lie).require("the functional must vanish on brackets")
    return ThreeLieAlgebra(lie.space, _ternary_from_binary(lie, t))


def check_lie_coherent(a: LieCoherentAction) -> Report:
    """Verify the three laws of a coherent Lie-algebra action.

    Refuses when the acting algebra is not Lie; a bad carrier bracket or a
    broken law is an ordinary failure.
    """
    rep = Report("coherent Lie action check")
    gate = check_lie(a.lie)
    if not rep.gate(
        gate, "acting algebra", "the acting algebra fails the Jacobi identity"
    ):
        return rep
    rep.absorb(check_lie(a.carrier), "carrier bracket")

    lspace = a.lie.space
    hspace = a.carrier.space
    columns = _columns(a.rho)  # rho(i) e_h, keyed (i, h)
    products = _feed(columns, 1, columns)  # rho(i) rho(j) e_c, keyed (j, c, i)

    rep.law(
        "commutator law",
        Scope("increasing acting pairs", (None, lspace, 2, True)),
        [_feed(columns, 0, a.lie.coords)],
        [
            _relabel(products, lambda j, c, i: (i, j, c)),
            _relabel(products, lambda i, c, j: (i, j, c), -1),
        ],
        Matrix.zeros(hspace.dim, hspace.dim),
    )
    # each rho(i), keyed (i, h), a derivation of the carrier bracket
    lhs, rhs = _derivation(columns, 1, a.carrier, True)
    laws = (
        ("derivation law", "increasing", True, lhs, rhs),
        # [rho(i) h1, h2] = 0, the slot-0 term, on every ordered pair
        ("annihilation law", "all ordered", False, rhs[:1], []),
    )
    for name, pairs, increasing, lhs, rhs in laws:
        rep.law(
            name,
            Scope(
                f"basis operators x {pairs} carrier pairs",
                (None, lspace, 1, False),
                (None, hspace, 2, increasing),
                where=lambda t: f"{lspace.label(t[0])} on {tuple_label(hspace, t[1])}",
            ),
            lhs, rhs, hspace,
        )
    return rep


def rho_sigma(a: LieCoherentAction, t: TraceMap) -> PairAction:
    """The pair action induced by a Lie action and a trace on the actor."""
    if t.space != a.lie.space:
        raise InputError("trace must live on the acting algebra")
    ops = _scaled(t, a.rho)  # t(e_i) rho(e_j), keyed (i, j)
    terms = [ops, _relabel(ops, lambda j, i: (i, j), -1)]
    return PairAction(a.lie.space, a.carrier.space, _sum(terms, keep=_increasing))


def _lift_action(a: LieCoherentAction, sigma_l, sigma_h, gated=True):
    """The ternary action that `a` lifts to along a trace on each side: both
    brackets cycled out of their traces, and `rho_sigma`. Gated, it requires
    a coherent action and traces that vanish on brackets; `lift_net` runs
    its own gates instead."""
    if gated:
        check_lie_coherent(a).require("the binary action is not coherent")
        for t, lie in ((sigma_l, a.lie), (sigma_h, a.carrier)):
            check_trace(t, lie).require("the functional must vanish on brackets")
    acting = ThreeLieAlgebra(a.lie.space, _ternary_from_binary(a.lie, sigma_l))
    rep = RepresentationData(acting, a.carrier.space, rho_sigma(a, sigma_l))
    return CoherentActionData(rep, _ternary_from_binary(a.carrier, sigma_h))


def check_lie_net(n: LieNet) -> Report:
    """Verify the binary embedding-tensor condition on all ordered pairs."""
    rep = Report("Lie embedding tensor check")
    gate = check_lie_coherent(n.action)
    if not rep.gate(gate, "action", "the underlying action is not coherent"):
        return rep

    a = n.action
    hspace = a.carrier.space
    cols = [n.tensor.column(h) for h in range(hspace.dim)]
    tensor = _family(cols)
    # rho(T e_i) e_j + [e_i, e_j], keyed (i, j)
    inner = [
        _feed(_columns(a.rho), 0, tensor),
        a.carrier.expand_ordered(),
    ]
    rep.law(
        "embedding-tensor condition",
        Scope("all ordered carrier pairs", (None, hspace, 2, False)),
        [_substitute(a.lie.expand_ordered(), [cols, cols])],
        [_feed(tensor, 0, table) for table in inner],
        a.lie.space,
    )
    return rep


def lift_net(
    n: LieNet, sigma_l: TraceMap, sigma_h: TraceMap
) -> EmbeddingTensorProblem:
    """Lift a Lie embedding tensor to a ternary one along compatible traces.

    Requires: the Lie tensor condition, both traces vanishing on their
    brackets, and trace compatibility through the tensor. The lifted
    problem then satisfies the ternary tensor condition.
    """
    check_lie_net(n).require("the Lie-level tensor condition fails")
    check_trace(sigma_l, n.action.lie).require(
        "the trace on the acting algebra must vanish on brackets"
    )
    check_trace(sigma_h, n.action.carrier).require(
        "the trace on the carrier must vanish on brackets"
    )

    compat = Report("trace compatibility check")
    hspace = n.action.carrier.space
    compat.law(
        "traces agree through the tensor",
        Scope(
            "carrier basis vectors",
            (None, hspace, 1, False),
            where=lambda t: hspace.label(t[0]),
        ),
        [{(u,): sigma_l.apply(n.tensor.column(u)) for u in range(hspace.dim)}],
        [{(u,): sigma_h.at(u) for u in range(hspace.dim)}],
        ZERO,
    )
    compat.require("the traces disagree through the tensor")
    return EmbeddingTensorProblem(
        _lift_action(n.action, sigma_l, sigma_h, gated=False), n.tensor
    )


def three_ll_from_leibniz_lie(
    g: LeibnizLieAlgebra, t: TraceMap
) -> ThreeLeibnizLieAlgebra:
    """Lift a Leibniz-Lie algebra to a ternary one along a trace.

    The trace must vanish on brackets and on products; the ternary braces
    antisymmetrize the product against the trace in the first two slots.
    """
    check_leibniz_lie(g).require("the input must be a Leibniz-Lie algebra")
    check_trace(t, g).require("the functional must vanish on brackets and products")
    space = g.lie.space
    prod = _scaled(t, g.triangle)  # t(e_i) e_j > e_k
    braces = _sum([prod, _relabel(prod, lambda j, i, k: (i, j, k), -1)])
    lie3 = ThreeLieAlgebra(space, _ternary_from_binary(g.lie, t))
    return ThreeLeibnizLieAlgebra(lie3, TrilinearTable(space, space, braces))
