"""One pinned witness for every law line that no fixture makes fail.

Each input is the smallest one found that breaks the line; the pins are
the tuple count, the failure count and the first witness exactly as the
report prints it. Lines that the gates in front of them make unreachable
pin their tuple count or their note text instead.
"""

from fractions import Fraction

from tensorforge import (
    AlternatingTrilinearTable,
    CoherentActionData,
    Deformation,
    EmbeddingTensorProblem,
    LieAlgebra,
    LinearMap,
    Matrix,
    NetHomomorphism,
    PairAction,
    RepresentationData,
    Report,
    Space,
    ThreeLeibnizAlgebra,
    ThreeLeibnizLieAlgebra,
    ThreeLieAlgebra,
    TrilinearTable,
    are_equivalent,
    check_3leibniz_rep,
    check_3ll,
    check_coherent_action,
    check_higher_order,
    check_hom,
    check_lie_coherent,
    check_net_hom,
)
from tensorforge import deformations
from tensorforge.algebras import LieCoherentAction, ThreeLeibnizRep

from oracles import example_problem

V2 = Space("V", 2)
V3 = Space("V", 3)
L2 = Space("L", 2)
L4 = Space("L", 4)
H3 = Space("H", 3)


def mat(rows) -> Matrix:
    return Matrix([[Fraction(x) for x in row] for row in rows])


def pin(rep, name):
    """(checked, failures, first witness) of the line called `name`."""
    line = next(line for line in rep.checks if line.name == name)
    first = line.failures[0] if line.failures else None
    witness = first and (first.indices, first.where, first.lhs, first.rhs)
    return line.checked, len(line.failures), witness


def e11(n):
    return mat([[1 if (r, c) == (0, 0) else 0 for c in range(n)] for r in range(n)])


# [e1, e2, e3] = e3: every alternating bracket in dimension 3 is 3-Lie
BRACKET3 = ThreeLieAlgebra(
    V3, AlternatingTrilinearTable(V3, V3, {(0, 1, 2): V3.basis_vector(2)})
)
CARRIER3 = AlternatingTrilinearTable(H3, H3, {(0, 1, 2): H3.basis_vector(2)})


def test_brace_vanishing_laws():
    braces = TrilinearTable(V3, V3, {(0, 0, 2): V3.basis_vector(0)})
    rep = check_3ll(ThreeLeibnizLieAlgebra(BRACKET3, braces))
    assert pin(rep, "braces kill bracket outputs") == (
        243, 6, ((1, 1, 1, 2, 3), "(e1, e1, e1, e2, e3)", "e1", "0")
    )
    assert pin(rep, "bracket kills brace outputs") == (
        243, 2, ((1, 1, 3, 2, 3), "(e1, e1, e3, e2, e3)", "e3", "0")
    )


def test_check_hom_kinds_without_a_fixture_witness():
    twice2 = LinearMap(V2, V2, Matrix.diagonal([2, 2]))
    lie = LieAlgebra(V2, {(0, 1): V2.basis_vector(0)})
    assert pin(check_hom("lie", twice2, lie, lie), "binary bracket preserved") == (
        1, 1, ((1, 2), "(e1, e2)", "2*e1", "4*e1")
    )
    t3 = ThreeLeibnizAlgebra(
        V2, TrilinearTable(V2, V2, {(0, 1, 1): V2.basis_vector(0)})
    )
    rep = check_hom("3leibniz", twice2, t3, t3)
    assert pin(rep, "ternary bracket preserved") == (
        8, 1, ((1, 2, 2), "(e1, e2, e2)", "2*e1", "8*e1")
    )
    twice3 = LinearMap(V3, V3, Matrix.diagonal([2, 2, 2]))
    braced = ThreeLeibnizLieAlgebra(
        BRACKET3, TrilinearTable(V3, V3, {(0, 0, 2): V3.basis_vector(1)})
    )
    rep = check_hom("3ll", twice3, braced, braced)
    assert [line.name for line in rep.checks] == [
        "ternary bracket preserved", "braces preserved"
    ]
    assert pin(rep, "ternary bracket preserved") == (
        1, 1, ((1, 2, 3), "(e1, e2, e3)", "2*e3", "8*e3")
    )
    assert pin(rep, "braces preserved") == (
        27, 1, ((1, 1, 3), "(e1, e1, e3)", "2*e2", "8*e2")
    )


def test_coherent_action_derivation_law():
    abelian = ThreeLieAlgebra(L2, AlternatingTrilinearTable(L2, L2, {}))
    rho = PairAction(L2, H3, {(0, 1): e11(3)})
    action = CoherentActionData(RepresentationData(abelian, H3, rho), CARRIER3)
    rep = check_coherent_action(action)
    assert pin(rep, "derivation law") == (
        27, 6,
        (((1, 2), (1, 2, 3)), "pair (e1, e2), triple (e1, e2, e3)", "0", "e3"),
    )


def test_net_hom_implied_lines_count_every_carrier_triple(adjoint_problem):
    # both lines follow from the gates and the two defining conditions, so
    # no input reaches a failure; their tuple counts are what can be pinned
    p = adjoint_problem
    h = NetHomomorphism(
        p, p, LinearMap.identity(p.l_space), LinearMap.identity(p.h_space)
    )
    rep = check_net_hom(h)
    assert rep.ok
    assert pin(rep, "descendent bracket preserved") == (64, 0, None)
    assert pin(rep, "induced braces preserved") == (64, 0, None)


def test_ternary_leibniz_rep_laws_two_to_five():
    one = Space("A", 1)
    algebra = ThreeLeibnizAlgebra(one, TrilinearTable(one, one, {}))
    carrier = Space("C", 2)
    r = ThreeLeibnizRep(
        algebra,
        carrier,
        {(0, 0): mat([[1, 0], [0, 0]])},
        {(0, 0): mat([[0, 1], [0, 0]])},
        {(0, 0): mat([[0, 0], [1, 0]])},
    )
    rep = check_3leibniz_rep(r)
    where = ((1, 1, 1, 1), "(e1, e1, e1, e1)")
    assert pin(rep, "left-left composition law") == (1, 0, None)
    assert pin(rep, "left-middle composition law") == (1, 1, (*where, "[1,2]=1", "0"))
    assert pin(rep, "left-right composition law") == (1, 1, (*where, "0", "[2,1]=1"))
    assert pin(rep, "middle bracket-expansion law") == (
        1, 1, (*where, "0", "[1,2]=1, [2,2]=1")
    )
    assert pin(rep, "right bracket-expansion law") == (1, 1, (*where, "0", "[1,1]=1"))


def test_third_order_condition():
    p = example_problem(0)
    d = Deformation(p, LinearMap(p.h_space, p.l_space, Matrix.diagonal([1, 1, 1, 0])))
    rep = check_higher_order(d)
    assert pin(rep, "second-order condition") == (
        64, 6, ((1, 2, 3), "(a1, a2, a3)", "2*a4", "0")
    )
    assert pin(rep, "third-order condition") == (
        64, 6, ((1, 2, 3), "(a1, a2, a3)", "a4", "0")
    )


def test_lie_coherent_action_laws():
    abelian = LieAlgebra(L2, {})
    carrier = LieAlgebra(H3, {(0, 1): H3.basis_vector(2)})
    action = LieCoherentAction(
        abelian, carrier, {(0,): e11(3), (1,): mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])}
    )
    rep = check_lie_coherent(action)
    assert pin(rep, "commutator law") == (1, 1, ((1, 2), "(e1, e2)", "0", "[1,2]=1"))
    assert pin(rep, "derivation law") == (
        6, 1, ((1, (1, 2)), "e1 on (e1, e2)", "0", "e3")
    )
    assert pin(rep, "annihilation law") == (
        18, 2, ((1, (1, 2)), "e1 on (e1, e2)", "e3", "0")
    )


def test_witness_side_condition_notes(adjoint_doc):
    # on a valid problem the side conditions follow from the gates
    same, _, rep = are_equivalent(
        adjoint_doc.resolve("deformations", "d_coboundary"),
        adjoint_doc.resolve("deformations", "d_zero"),
    )
    assert same
    assert rep.notes[1:] == [
        "witness side condition: derivation on the outer bracket holds",
        "witness side condition: derivation on the carrier bracket holds",
        "witness side condition: action compatibility holds",
    ]
    # an ungated problem whose bracket is not 3-Lie reaches every failure
    v = L4.basis_vector
    bracket = AlternatingTrilinearTable(L4, L4, {(0, 1, 2): v(0), (0, 1, 3): v(1)})
    rho = PairAction(L4, H3, {(0, 1): e11(3)})
    problem = EmbeddingTensorProblem(
        CoherentActionData(
            RepresentationData(ThreeLieAlgebra(L4, bracket), H3, rho), CARRIER3
        ),
        LinearMap(H3, L4, Matrix.zeros(4, 3)),
    )
    side = Report("side conditions")
    deformations._witness_side_conditions(side, problem, [(v(0), v(1))])
    assert side.checks == []
    assert side.notes == [
        "witness side condition: derivation on the outer bracket fails "
        "(first at (e1, e3, e4))",
        "witness side condition: derivation on the carrier bracket fails "
        "(first at (e1, e2, e3))",
        "witness side condition: action compatibility fails (first at (e1, e4))",
    ]


def test_equivalence_witness_recomputation_failure(adjoint_doc, monkeypatch):
    # the recomputation guards the wedge decomposition; break that to reach it
    monkeypatch.setattr(deformations, "_decompose_wedge", lambda x, dim: [])
    same, witness, rep = are_equivalent(
        adjoint_doc.resolve("deformations", "d_coboundary"),
        adjoint_doc.resolve("deformations", "d_zero"),
    )
    assert (same, witness, rep.verdict) == (False, None, "fail")
    assert pin(rep, "witness reproduces the difference") == (
        1, 1, ((1,), "recomputed coboundary", "0", "[12]=-1/2")
    )
