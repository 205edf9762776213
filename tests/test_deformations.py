"""First-order deformation directions, higher-order obstructions, equivalence."""

import random
from fractions import Fraction

import pytest

from tensorforge import (
    CochainComplex,
    Deformation,
    InputError,
    LinearMap,
    Matrix,
    are_equivalent,
    check_higher_order,
    check_infinitesimal,
    classify,
)

from oracles import (
    example_problem,
    oracle_class_representatives,
    rand_matrix,
    rand_unimodular,
    rand_vector,
    random_valid_problem,
    transport_problem,
)


def direction(problem, matrix) -> Deformation:
    lm = LinearMap(problem.h_space, problem.l_space, matrix)
    return Deformation(problem, lm)


def test_fixture_directions(adjoint_doc):
    d_zero = adjoint_doc.resolve("deformations", "d_zero")
    d_cocycle = adjoint_doc.resolve("deformations", "d_cocycle")
    d_coboundary = adjoint_doc.resolve("deformations", "d_coboundary")
    assert check_infinitesimal(d_zero).ok
    assert check_infinitesimal(d_cocycle).ok
    assert check_infinitesimal(d_coboundary).ok


def test_first_order_check_is_the_cocycle_condition(adjoint_problem, adjoint_complex):
    rng = random.Random(20250819)
    d1 = adjoint_complex.delta_matrix(1)
    hits = 0
    for _ in range(25):
        m = rand_matrix(rng, 4, 4)
        d = direction(adjoint_problem, m)
        direct = check_infinitesimal(d).ok
        phi = adjoint_complex.cochain_from_linear_map(d.direction)
        via_matrix = d1.mul_vec(adjoint_complex.vec(phi)).is_zero()
        assert direct == via_matrix
        hits += direct
    assert 0 <= hits < 25  # random directions are mostly obstructed


def test_higher_order_obstruction_of_the_identity_direction(adjoint_doc):
    d_cocycle = adjoint_doc.resolve("deformations", "d_cocycle")
    rep = check_higher_order(d_cocycle)
    assert rep.verdict == "fail"
    second = next(line for line in rep.checks if "second" in line.name)
    assert len(second.failures) == 6
    d_zero = adjoint_doc.resolve("deformations", "d_zero")
    assert check_higher_order(d_zero).ok


def test_coboundary_is_equivalent_to_zero_with_verified_witness(
    adjoint_doc, adjoint_problem, adjoint_complex
):
    d_coboundary = adjoint_doc.resolve("deformations", "d_coboundary")
    d_zero = adjoint_doc.resolve("deformations", "d_zero")
    same, witness, rep = are_equivalent(d_coboundary, d_zero)
    assert same and rep.ok
    assert witness is not None and witness.pieces
    # re-verify the witness exactly: the wedge sum's boundary must equal
    # the difference of the two directions
    total = None
    for a, b in witness.pieces:
        phi = adjoint_complex.delta0_cochain(a, b)
        total = phi if total is None else total + phi
    got = adjoint_complex.linear_map_from_cochain(total).matrix
    diff = d_coboundary.direction.matrix - d_zero.direction.matrix
    assert got == diff
    assert any("witness side condition" in note for note in rep.notes)


def test_true_classes_are_not_equivalent_to_zero(adjoint_doc):
    d_cocycle = adjoint_doc.resolve("deformations", "d_cocycle")
    d_zero = adjoint_doc.resolve("deformations", "d_zero")
    same, witness, rep = are_equivalent(d_cocycle, d_zero)
    assert not same and witness is None
    assert rep.verdict == "fail"


def test_shifting_by_boundaries_preserves_the_class(adjoint_problem, adjoint_complex):
    rng = random.Random(4)
    base = direction(adjoint_problem, Matrix.identity(4))
    for _ in range(10):
        a1, a2 = rand_vector(rng, 4), rand_vector(rng, 4)
        shift = adjoint_complex.linear_map_from_cochain(
            adjoint_complex.delta0_cochain(a1, a2)
        )
        moved = direction(adjoint_problem, base.direction.matrix + shift.matrix)
        same, witness, rep = are_equivalent(base, moved)
        assert same and rep.ok
        if witness.pieces:
            total = None
            for a, b in witness.pieces:
                phi = adjoint_complex.delta0_cochain(a, b)
                total = phi if total is None else total + phi
            got = adjoint_complex.linear_map_from_cochain(total).matrix
            # convention: the witness boundary equals first minus second
            assert got == base.direction.matrix - moved.direction.matrix


def test_classify_golden_values(adjoint_problem):
    cls = classify(adjoint_problem)
    assert (cls.cocycle_dim, cls.coboundary_dim, cls.class_dim) == (4, 3, 1)
    assert len(cls.representatives) == 1
    rep_map = cls.representatives[0]
    assert rep_map.matrix == Matrix.identity(4)
    d = Deformation(adjoint_problem, rep_map)
    assert check_infinitesimal(d).ok


def test_classify_abelian(abelian_problem):
    cls = classify(abelian_problem)
    assert (cls.cocycle_dim, cls.coboundary_dim, cls.class_dim) == (4, 0, 4)
    assert len(cls.representatives) == 4
    for rep_map in cls.representatives:
        assert check_infinitesimal(Deformation(abelian_problem, rep_map)).ok
    # distinct representatives are never equivalent to each other
    first, second = cls.representatives[:2]
    same, _, _ = are_equivalent(
        Deformation(abelian_problem, first), Deformation(abelian_problem, second)
    )
    assert not same


def test_classify_representatives_match_the_greedy_oracle():
    rng = random.Random(20261018)
    problems = []
    for k in (Fraction(0), Fraction(1, 2)):
        base = example_problem(k)
        problems.append(base)
        problems.append(
            transport_problem(base, rand_unimodular(rng, 4), rand_unimodular(rng, 4))
        )
    problems += [random_valid_problem(random.Random(seed)) for seed in range(4)]
    several_over_a_coboundary = False
    for p in problems:
        cls = classify(p)
        got = [rep.matrix for rep in cls.representatives]
        assert got == oracle_class_representatives(p)
        assert len(got) == cls.class_dim
        if cls.coboundary_dim >= 1 and len(got) >= 2:
            several_over_a_coboundary = True
    assert several_over_a_coboundary


def test_equivalence_requires_the_same_problem(adjoint_doc, abelian_problem):
    d1 = adjoint_doc.resolve("deformations", "d_zero")
    d2 = Deformation(
        abelian_problem,
        LinearMap(
            abelian_problem.h_space,
            abelian_problem.l_space,
            Matrix.zeros(2, 2),
        ),
    )
    with pytest.raises(InputError):
        are_equivalent(d1, d2)


def test_deformation_direction_shape_is_validated(adjoint_problem):
    from tensorforge import Space

    odd = Space("X", 3)
    with pytest.raises(InputError):
        Deformation(
            adjoint_problem,
            LinearMap(odd, adjoint_problem.l_space, Matrix.zeros(4, 3)),
        )
