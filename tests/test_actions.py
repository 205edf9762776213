"""Pair representations, coherent actions, embedding tensors, graphs."""

import dataclasses
import random
from fractions import Fraction

import pytest

from tensorforge import (
    LinearMap,
    Matrix,
    NetHomomorphism,
    PreconditionError,
    check_3leibniz,
    check_3ll,
    check_coherent_action,
    check_net,
    check_net_hom,
    check_representation,
    descendent,
    graph_check,
    hemisemidirect,
    hemisemidirect_table,
    induced_3ll,
    load_document,
    subadjacent,
)

from oracles import example_problem, random_problem, random_valid_problem


def test_example_representation_and_action_pass(adjoint_doc):
    assert check_representation(adjoint_doc.resolve("representations")).ok
    assert check_coherent_action(adjoint_doc.resolve("actions")).ok


def test_broken_representation_fails_a_named_law(fixtures_dir):
    doc = load_document(str(fixtures_dir / "broken_rep.json"))
    rep = check_representation(doc.resolve("representations"))
    assert rep.verdict == "fail"
    assert any(line.failures for line in rep.checks)


def test_broken_action_fails_annihilation(fixtures_dir):
    doc = load_document(str(fixtures_dir / "broken_action.json"))
    rep = check_coherent_action(doc.resolve("actions"))
    assert rep.verdict == "fail"
    failing = {line.name for line in rep.checks if line.failures}
    assert "annihilation law" in failing


def test_net_condition_family_over_the_parameter():
    for k in (Fraction(0), Fraction(1, 2)):
        assert check_net(example_problem(k)).ok
    for k in (Fraction(1), Fraction(2), Fraction(-3)):
        p = example_problem(k)
        full = check_net(p, mode="all")
        assert full.verdict == "fail"
        cond = next(line for line in full.checks if line.failures)
        assert cond.checked == 64 and len(cond.failures) == 4
        first = cond.failures[0]
        assert first.indices == (1, 3, 2)
        # LHS = -2k a4, RHS = -(2k+1)k a4 on that triple
        assert first.lhs != first.rhs
        thin = check_net(p, mode="increasing")
        assert thin.ok
        assert thin.checks[-1].checked == 4


def test_net_witness_values_at_one():
    rep = check_net(example_problem(1))
    cond = next(line for line in rep.checks if line.failures)
    by_tuple = {f.indices: (f.lhs, f.rhs) for f in cond.failures}
    assert set(by_tuple) == {(1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)}
    assert by_tuple[(1, 3, 2)] == ("-2*a4", "-3*a4")
    assert by_tuple[(3, 1, 2)] == ("2*a4", "3*a4")


def test_check_net_refuses_incoherent_actions(fixtures_dir):
    doc = load_document(str(fixtures_dir / "broken_action.json"))
    problem_doc = load_document(str(fixtures_dir / "broken_net.json"))
    # broken_net has a coherent action but a bad tensor: plain failure
    assert check_net(problem_doc.resolve("nets")).verdict == "fail"
    # an incoherent action refuses instead of reporting tensor failures
    from tensorforge import EmbeddingTensorProblem

    act = doc.resolve("actions")
    lsp, hsp = act.algebra.space, act.carrier
    p = EmbeddingTensorProblem(
        act, LinearMap(hsp, lsp, Matrix.zeros(lsp.dim, hsp.dim))
    )
    assert check_net(p).verdict == "refused"
    assert check_net(p).exit_status == 3


def test_unknown_triple_mode_is_an_input_error():
    from tensorforge import InputError

    with pytest.raises(InputError):
        check_net(example_problem(0), mode="sideways")


def test_graph_criterion_agrees_with_the_direct_condition():
    rng = random.Random(20250819)
    for _ in range(25):
        p = random_problem(rng)
        assert graph_check(p).ok == check_net(p).ok


def test_graph_check_on_fixture_problems(adjoint_problem, abelian_problem, fixtures_dir):
    assert graph_check(adjoint_problem).ok
    assert graph_check(abelian_problem).ok
    broken = load_document(str(fixtures_dir / "broken_net.json")).resolve("nets")
    assert not graph_check(broken).ok


def test_hemisemidirect_brackets_satisfy_the_ternary_identity(adjoint_doc):
    combined = hemisemidirect(adjoint_doc.resolve("actions"))
    assert combined.space.dim == 8
    assert check_3leibniz(combined).ok
    labels = combined.space.basis_labels
    assert labels[0].startswith("l_") and labels[-1].startswith("h_")


def test_hemisemidirect_table_on_a_broken_action_fails(fixtures_dir):
    doc = load_document(str(fixtures_dir / "broken_action.json"))
    act = doc.resolve("actions")
    with pytest.raises(PreconditionError):
        hemisemidirect(act)
    table = hemisemidirect_table(act)
    rep = check_3leibniz(table)
    assert rep.verdict == "fail"
    assert any(line.failures for line in rep.checks)


def test_descendent_and_induced_structures_cohere(adjoint_problem):
    desc = descendent(adjoint_problem)
    assert check_3leibniz(desc).ok

    braced = induced_3ll(adjoint_problem)
    assert check_3ll(braced).ok

    sub = subadjacent(braced)
    dim = desc.space.dim
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                a = sub.bracket.value(i, j, k)
                b = desc.bracket.value(i, j, k)
                assert (a is None and b is None) or a == b


def test_descendent_intertwines_with_the_tensor(adjoint_problem):
    p = adjoint_problem
    desc = descendent(p)
    lam = p.tensor
    dim = p.h_space.dim
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                inner = desc.bracket.value(i, j, k)
                left = lam.apply(inner) if inner is not None else None
                right = p.l_bracket.eval(
                    lam.column(i), lam.column(j), lam.column(k)
                )
                left_vec = left if left is not None else right.scale(0)
                assert left_vec == right


def test_descendent_refuses_non_tensors(fixtures_dir):
    broken = load_document(str(fixtures_dir / "broken_net.json")).resolve("nets")
    with pytest.raises(PreconditionError):
        descendent(broken)
    with pytest.raises(PreconditionError):
        induced_3ll(broken)


def test_net_homomorphism_checks(adjoint_doc, adjoint_problem):
    sigma = adjoint_doc.resolve("maps", "sigma")
    hom = NetHomomorphism(adjoint_problem, adjoint_problem, sigma, sigma)
    assert check_net_hom(hom).ok

    ident = LinearMap.identity(adjoint_problem.h_space)
    hom_id = NetHomomorphism(adjoint_problem, adjoint_problem, ident, ident)
    assert check_net_hom(hom_id).ok

    # not a bracket map at all: the checker refuses before the two conditions
    skew = LinearMap(
        adjoint_problem.h_space, adjoint_problem.h_space, Matrix.diagonal([1, 1, 1, 3])
    )
    rep = check_net_hom(NetHomomorphism(adjoint_problem, adjoint_problem, skew, skew))
    assert rep.verdict == "refused"

    # bracket-preserving on both sides but the tensor square does not commute
    mixed = NetHomomorphism(adjoint_problem, adjoint_problem, ident, sigma)
    rep = check_net_hom(mixed)
    assert rep.verdict == "fail"
    failing = {line.name for line in rep.checks if line.failures}
    assert "tensor intertwining" in failing


def test_random_valid_problems_pass_everything():
    rng = random.Random(99)
    for _ in range(8):
        p = random_valid_problem(rng)
        assert check_net(p).ok
        assert graph_check(p).ok
        assert check_3leibniz(descendent(p)).ok


def test_gate_data_is_frozen_and_memoizes_its_reports():
    p = example_problem(Fraction(1, 2))
    for obj, name in (
        (p.action.rep, "carrier"),
        (p.action, "target_bracket"),
        (p, "tensor"),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    rep_gate = check_representation(p.action.rep)
    assert rep_gate.ok and check_representation(p.action.rep) is rep_gate
    action_gate = check_coherent_action(p.action)
    assert check_coherent_action(p.action) is action_gate
    assert check_net(p) is check_net(p, mode="all")
    assert check_net(p, mode="increasing") is not check_net(p)
