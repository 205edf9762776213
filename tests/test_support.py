"""Support-driven law evaluation against the full scan it replaces.

Every law with a join evaluates its sides only on the tuples where a term
can be nonzero. Patching the private support helpers to return the whole
scope turns each of them back into the full scan, so the two runs must give
identical reports, witnesses and counts included.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tensorforge import (
    AlternatingTrilinearTable,
    CochainComplex,
    CoherentActionData,
    Deformation,
    EmbeddingTensorProblem,
    LinearMap,
    Matrix,
    PairAction,
    Report,
    RepresentationData,
    Space,
    ThreeLeibnizAlgebra,
    ThreeLieAlgebra,
    TrilinearTable,
    Vector,
    are_equivalent,
    check_3leibniz,
    check_3leibniz_rep,
    check_3lie,
    check_coherent_action,
    check_higher_order,
    check_infinitesimal,
    check_net,
    check_representation,
    load_document,
)
from tensorforge import actions, algebras, cohomology, deformations
from tensorforge.actions import _descendent_table
from tensorforge.cohomology import _induced_rep_unchecked

from oracles import example_problem, rand_scalar, rand_unimodular, transport_problem

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _full(*ranges):
    return set(product(*ranges))


@contextmanager
def full_scan():
    """Every support helper returns its law's whole scope."""

    def pairs_x_triples(m, n):
        return _full(combinations(range(m), 2), combinations(range(n), 3))

    def ordered(n, k):
        return _full(*[range(n)] * k)

    def triples(p, *terms):
        return ordered(p.h_space.dim, 3)

    def coherence(c, ops):
        n = c.carrier.dim
        both = _full(combinations(range(c.algebra.space.dim), 2), ordered(n, 3))
        return both, both

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            algebras,
            "_alternating_support",
            lambda table: pairs_x_triples(table.domain.dim, table.domain.dim),
        )
        mp.setattr(
            algebras, "_fundamental_support", lambda table: ordered(table.domain.dim, 5)
        )
        mp.setattr(
            actions,
            "_representation_supports",
            lambda r, ops: (ordered(r.algebra.space.dim, 4),) * 2,
        )
        mp.setattr(actions, "_coherence_supports", coherence)
        mp.setattr(actions, "_tensor_support", triples)
        mp.setattr(deformations, "_tensor_support", triples)
        mp.setattr(
            cohomology,
            "_rep3_supports",
            lambda r, *families: [ordered(r.algebra.space.dim, 4)] * 5,
        )
        yield


def _dump(reports):
    return [(rep.to_json(None), rep.render_text(None)) for rep in reports]


def _differential(build):
    """Reports of fresh objects from build(), with supports and without."""
    fast = _dump(build())
    with full_scan():
        slow = _dump(build())
    assert fast == slow
    return fast


# -- documents: the fixtures, including every broken one ----------------------


def _fixture_reports(path):
    doc = load_document(str(path))
    entries = doc.entries
    reports = [check_3lie(a) for a in entries["three_lie"].values()]
    reports += [check_3leibniz(a) for a in entries["three_leibniz"].values()]
    reports += [
        check_representation(r, "rep") for r in entries["representations"].values()
    ]
    reports += [check_coherent_action(c, "action") for c in entries["actions"].values()]
    for p in entries["nets"].values():
        reports += [check_net(p, mode, "net") for mode in ("all", "increasing")]
        reports.append(check_3leibniz_rep(_induced_rep_unchecked(p)))
        descendent = ThreeLeibnizAlgebra(p.h_space, _descendent_table(p))
        reports.append(check_3leibniz(descendent))
    reports += [check_3leibniz_rep(r) for r in entries["three_leibniz_reps"].values()]
    for d in entries["deformations"].values():
        reports += [check_infinitesimal(d), check_higher_order(d)]
    return reports


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem
)
def test_fixture_reports_match_the_full_scan(path):
    _differential(lambda: _fixture_reports(path))


# -- seeded sparse, dense-basis and perturbed problems -------------------------


def _perturbed(p, rng):
    """The problem with one or two random entries of one table changed."""
    l, h = p.l_space, p.h_space
    l_bracket, h_bracket = dict(p.l_bracket.coords), dict(p.h_bracket.coords)
    rho, tensor = dict(p.rho.coords), [list(row) for row in p.tensor.matrix.rows]
    target = rng.choice(["l_bracket", "h_bracket", "rho", "tensor"])
    for _ in range(rng.randint(1, 2)):
        c = rand_scalar(rng, nonzero=True)
        if target == "tensor":
            tensor[rng.randrange(l.dim)][rng.randrange(h.dim)] = c
        elif target == "rho":
            key = tuple(sorted(rng.sample(range(l.dim), 2)))
            rows = [[Fraction(0)] * h.dim for _ in range(h.dim)]
            rows[rng.randrange(h.dim)][rng.randrange(h.dim)] = c
            rho[key] = Matrix(rows) + rho.get(key, Matrix.zeros(h.dim, h.dim))
        else:
            coords, space = (l_bracket, l) if target == "l_bracket" else (h_bracket, h)
            vec = [Fraction(0)] * space.dim
            vec[rng.randrange(space.dim)] = c
            coords[tuple(sorted(rng.sample(range(space.dim), 3)))] = Vector(vec)
    alg = ThreeLieAlgebra(l, AlternatingTrilinearTable(l, l, l_bracket))
    action = CoherentActionData(
        RepresentationData(alg, h, PairAction(l, h, rho)),
        AlternatingTrilinearTable(h, h, h_bracket),
    )
    return EmbeddingTensorProblem(action, LinearMap(h, l, Matrix(tensor)))


def _problem(seed, kind):
    rng = random.Random(seed)
    p = example_problem(rng.choice([0, Fraction(1, 2), 1, 2]))
    if kind == "dense":
        gl, gh = rand_unimodular(rng, 4, 6), rand_unimodular(rng, 4, 6)
        p = transport_problem(p, gl, gh)
    elif kind == "perturbed":
        p = _perturbed(p, rng)
    direction = Matrix(
        [[rng.choice([0, 0, rand_scalar(rng)]) for _ in range(4)] for _ in range(4)]
    )
    return p, Deformation(p, LinearMap(p.h_space, p.l_space, direction))


def _problem_reports(seed, kind):
    p, d = _problem(seed, kind)
    coords = {**_descendent_table(p).coords, **p.h_bracket.expand_ordered()}
    general = TrilinearTable(p.h_space, p.h_space, coords)
    return [
        check_3lie(p.action.algebra),
        check_3lie(ThreeLieAlgebra(p.h_space, p.h_bracket)),
        check_3leibniz(ThreeLeibnizAlgebra(p.h_space, general)),
        check_representation(p.action.rep),
        check_coherent_action(p.action),
        check_net(p, "all"),
        check_net(p, "increasing"),
        check_3leibniz_rep(_induced_rep_unchecked(p)),
        check_infinitesimal(d),
        check_higher_order(d),
    ]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["sparse", "dense", "perturbed"]),
)
def test_problem_reports_match_the_full_scan(seed, kind):
    _differential(lambda: _problem_reports(seed, kind))


def test_perturbations_reach_failing_laws():
    """The perturbed family does exercise failing tuples on the support."""
    failing = set()
    for seed in range(12):
        for rep in _problem_reports(seed, "perturbed"):
            failing.update(line.name for line in rep.checks if not line.passed)
    for name in (
        "fundamental identity",
        "action fundamental law",
        "derivation law",
        "embedding-tensor condition",
        "left-left composition law",
        "first-order tensor condition",
        "second-order condition",
    ):
        assert name in failing, failing


# -- the runner's contract -------------------------------------------------------


def _sparse_bracket(n, entries, seed):
    """A few random bracket entries, each valued in a later basis vector,
    so that brackets nest."""
    rng = random.Random(seed)
    space = Space("L", n)
    coords = {}
    for key in rng.sample(list(combinations(range(n - 1), 3)), entries):
        vec = [Fraction(0)] * n
        vec[rng.randrange(key[2] + 1, n)] = Fraction(rng.choice((-1, 1, 2)))
        coords[key] = Vector(vec)
    return ThreeLieAlgebra(space, AlternatingTrilinearTable(space, space, coords))


def test_sides_run_only_on_the_support(monkeypatch):
    algebra = _sparse_bracket(12, 12, 0)
    support = algebras._alternating_support(algebra.bracket)
    calls = []
    original = algebras._fundamental_sides

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(algebras, "_fundamental_sides", counted)
    line = check_3lie(algebra).checks[0]
    assert line.checked == comb(12, 2) * comb(12, 3)
    assert 0 < len(calls) <= len(support) < line.checked // 5


SCOPES = {
    "increasing pairs x increasing triples": lambda m, n: product(
        combinations(range(m), 2), combinations(range(n), 3)
    ),
    "increasing pairs x all ordered carrier triples": lambda m, n: product(
        combinations(range(m), 2), product(range(n), repeat=3)
    ),
    "all ordered basis 5-tuples": lambda m, n: product(range(n), repeat=5),
    "all ordered basis 4-tuples": lambda m, n: product(range(n), repeat=4),
    "all ordered basis triples": lambda m, n: product(range(n), repeat=3),
    "all ordered carrier triples": lambda m, n: product(range(n), repeat=3),
    "increasing carrier triples": lambda m, n: combinations(range(n), 3),
}


@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_sorted_order_is_the_scan_order(scope):
    for m in range(6):
        for n in range(6):
            scan = list(SCOPES[scope](m, n))
            assert sorted(scan) == scan


def test_every_joined_scope_is_known(monkeypatch):
    """Every law that passes a count uses a scope whose scan order is the
    sorted order above, and hands the runner a sorted support."""
    seen = {}
    original = Report.law

    def law(self, name, scope, tuples, sides, show, where, count=None):
        tuples = list(tuples)
        if count is not None:
            seen[scope] = seen.get(scope, 0) + 1
            assert tuples == sorted(set(tuples)), (name, scope)
        return original(self, name, scope, tuples, sides, show, where, count)

    monkeypatch.setattr(Report, "law", law)
    for path in sorted(FIXTURES.glob("*.json")):
        _fixture_reports(path)
    _problem_reports(0, "dense")
    assert set(seen) == set(SCOPES)


def test_one_cochain_complex_per_problem(monkeypatch):
    doc = load_document(str(FIXTURES / "example_2_8.json"))
    d1 = doc.resolve("deformations", "d_cocycle")
    d2 = doc.resolve("deformations", "d_zero")
    built = []
    original = CochainComplex.__init__

    def init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CochainComplex, "__init__", init)
    equivalent, _, _ = are_equivalent(d1, d2)
    assert equivalent is False
    assert len(built) == 1
