"""Laws as sums of sparse term tables, against the full scan they replace.

Every checker builds each side of each law from term tables that hold a
term only where it can be nonzero. The full-scan references in `oracles`
evaluate both sides tuple by tuple on every tuple of every scope; the two
must give identical reports, witnesses and counts included, on the
fixtures and on seeded sparse, dense-basis and perturbed problems.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from tensorforge import (
    AlternatingTrilinearTable,
    CochainComplex,
    CoherentActionData,
    Deformation,
    EmbeddingTensorProblem,
    LieAlgebra,
    LieCoherentAction,
    LinearMap,
    Matrix,
    NetHomomorphism,
    PairAction,
    PreconditionError,
    Report,
    RepresentationData,
    Space,
    ThreeLeibnizAlgebra,
    ThreeLeibnizLieAlgebra,
    ThreeLeibnizRep,
    ThreeLieAlgebra,
    TraceMap,
    TrilinearTable,
    Vector,
    are_equivalent,
    check_3leibniz,
    check_3leibniz_rep,
    check_3lie,
    check_3ll,
    check_coherent_action,
    check_higher_order,
    check_hom,
    check_infinitesimal,
    check_leibniz_lie,
    check_lie,
    check_lie_coherent,
    check_lie_net,
    check_net,
    check_net_hom,
    check_representation,
    check_trace,
    graph_check,
    hemisemidirect_table,
    induced_3ll,
    lift_net,
    load_document,
    rat,
    rho_sigma,
    subadjacent,
    three_ll_from_leibniz_lie,
)
from tensorforge.actions import _braces, _descendent_table
from tensorforge.cohomology import _induced_rep_unchecked
from tensorforge.deformations import _is_bracket_derivation, _witness_side_conditions
from tensorforge.induced_lie import _ternary_from_binary
from tensorforge.multilinear import _columns

import oracles
from oracles import (
    example_problem,
    rand_invertible,
    rand_matrix,
    rand_scalar,
    rand_unimodular,
    rand_vector,
    random_leibniz_lie_with_trace,
    random_lie_net,
    transport_problem,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _dump(rep):
    return rep.to_json(None), rep.render_text(None)


def _assert_same(pairs):
    """Each package report is identical to its full-scan reference report.

    pairs holds (report, reference): the reference is built only here, so
    that tests of the package reports alone do not pay for the full scans.
    """
    for fast, slow in pairs:
        assert _dump(fast) == _dump(slow())


def _pair(check, *args, **kwargs):
    """A package report and the thunk of its reference, oracles.ref_<check>."""
    reference = getattr(oracles, f"ref_{check.__name__}")
    return check(*args, **kwargs), partial(reference, *args, **kwargs)


def _built(reference, args):
    """A fresh report, filled in by a reference that adds lines or notes."""
    rep = Report("side conditions")
    reference(rep, *args)
    return rep


def _net_pairs(p):
    rep3 = _induced_rep_unchecked(p)
    # the builders agree with dense column-by-column references
    assert _descendent_table(p).coords == oracles.ref_descendent_coords(p)
    ref3 = oracles.ref_induced_rep(p)
    assert (rep3.l_act, rep3.m_act, rep3.r_act) == (ref3.l_act, ref3.m_act, ref3.r_act)
    return [
        _pair(check_net, p, "all"),
        _pair(check_net, p, "increasing"),
        _pair(graph_check, p),
        _pair(check_3leibniz_rep, rep3),
        _pair(check_3leibniz, rep3.algebra),  # the descendent bracket
    ]


def _lie_net_pairs(net, sigma_l, sigma_h):
    pairs = [_pair(check_lie_net, net), _pair(check_lie_coherent, net.action)]
    compat = oracles.ref_trace_compatibility(net, sigma_l, sigma_h)
    try:
        lift_net(net, sigma_l, sigma_h)
    except PreconditionError as exc:
        if exc.report.title == compat.title:
            pairs.append((exc.report, lambda: compat))
    else:
        assert compat.ok
    return pairs


# -- documents: the fixtures, including every broken one ----------------------


def _fixture_pairs(path):
    doc = load_document(str(path))
    entries = doc.entries
    checks = {
        "three_lie": check_3lie,
        "three_leibniz": check_3leibniz,
        "lie": check_lie,
        "leibniz_lie": check_leibniz_lie,
        "three_leibniz_lie": check_3ll,
        "representations": check_representation,
        "actions": check_coherent_action,
        "three_leibniz_reps": check_3leibniz_rep,
        "lie_actions": check_lie_coherent,
        "lie_nets": check_lie_net,
    }
    pairs = [
        _pair(check, obj)
        for kind, check in checks.items()
        for obj in entries[kind].values()
    ]
    for p in entries["nets"].values():
        pairs += _net_pairs(p)
        for f in entries["maps"].values():
            if f.source == f.target == p.h_space == p.l_space:
                hom = NetHomomorphism(p, p, f, f)
                alg = p.action.algebra
                pairs += [
                    _pair(check_net_hom, hom),
                    _pair(check_hom, "3lie", f, alg, alg),
                ]
    for d in entries["deformations"].values():
        pairs += [_pair(check_infinitesimal, d), _pair(check_higher_order, d)]
    algebras = list(entries["lie"].values()) + list(entries["leibniz_lie"].values())
    for trace in entries["traces"].values():
        for algebra in algebras:
            if algebra.space == trace.space:
                pairs.append(_pair(check_trace, trace, algebra))
    for net in entries["lie_nets"].values():
        traces = list(entries["traces"].values())
        for sigma_l, sigma_h in product(traces, repeat=2):
            if (sigma_l.space, sigma_h.space) == (
                net.action.lie.space,
                net.action.carrier.space,
            ):
                pairs += _lie_net_pairs(net, sigma_l, sigma_h)
    return pairs


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem
)
def test_fixture_reports_match_the_full_scan(path):
    _assert_same(_fixture_pairs(path))


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


def _exact(p):
    """p with each scalar an int where it is integral, as a parsed document
    holds it: the oracles build every scalar as a Fraction."""
    l, h = p.l_space, p.h_space

    def vector(v):
        return Vector([rat(a) for a in v])

    def matrix(m):
        return Matrix([vector(row) for row in m.rows])

    def bracket(table):
        coords = {key: vector(v) for key, v in table.coords.items()}
        return AlternatingTrilinearTable(table.domain, table.codomain, coords)

    rho = {key: matrix(m) for key, m in p.rho.coords.items()}
    action = CoherentActionData(
        RepresentationData(
            ThreeLieAlgebra(l, bracket(p.l_bracket)), h, PairAction(l, h, rho)
        ),
        bracket(p.h_bracket),
    )
    return EmbeddingTensorProblem(action, LinearMap(h, l, matrix(p.tensor.matrix)))


def _problem(seed, kind):
    """(base problem, problem, its maps from base, a deformation direction)."""
    rng = random.Random(seed)
    base = p = example_problem(rng.choice([0, Fraction(1, 2), 1, 2]))
    gl = gh = Matrix.identity(4)
    if kind == "dense":
        gl, gh = rand_unimodular(rng, 4, 6), rand_unimodular(rng, 4, 6)
        p = transport_problem(p, gl, gh)
    elif kind == "rational":
        gl, gh = rand_invertible(rng, 4), rand_unimodular(rng, 4, 6)
        base, p = _exact(base), _exact(transport_problem(p, gl, gh))
    elif kind == "perturbed":
        p = _perturbed(p, rng)
    direction = Matrix(
        [[rng.choice([0, 0, rand_scalar(rng)]) for _ in range(4)] for _ in range(4)]
    )
    maps = (LinearMap(p.l_space, p.l_space, gl), LinearMap(p.h_space, p.h_space, gh))
    return base, p, maps, Deformation(p, LinearMap(p.h_space, p.l_space, direction))


def _problem_pairs(seed, kind):
    base, p, (fl, fh), d = _problem(seed, kind)
    rng = random.Random(seed)
    coords = {**_descendent_table(p).coords, **p.h_bracket.expand_ordered()}
    general = ThreeLeibnizAlgebra(
        p.h_space, TrilinearTable(p.h_space, p.h_space, coords)
    )
    h3 = ThreeLieAlgebra(p.h_space, p.h_bracket)
    braced = ThreeLeibnizLieAlgebra(
        h3, TrilinearTable(p.h_space, p.h_space, _braces(p))
    )
    other = LinearMap(p.h_space, p.h_space, rand_matrix(rng, 4, 4))
    pairs = [
        _pair(check_3lie, p.action.algebra),
        _pair(check_3lie, h3),
        _pair(check_3leibniz, general),
        _pair(check_3ll, braced),
        _pair(check_representation, p.action.rep),
        _pair(check_coherent_action, p.action),
        _pair(check_infinitesimal, d),
        _pair(check_higher_order, d),
    ]
    for kind_, f, src in (
        ("3lie", other, h3),
        ("3leibniz", other, general),
        ("3ll", other, braced),
        ("3ll", LinearMap.identity(p.h_space), braced),
    ):
        pairs.append(_pair(check_hom, kind_, f, src, src))
    for hom in (
        NetHomomorphism(base, p, fl, fh),
        NetHomomorphism(
            p, p, LinearMap.identity(p.l_space), LinearMap.identity(p.h_space)
        ),
        NetHomomorphism(p, p, fl, other),
    ):
        pairs.append(_pair(check_net_hom, hom))
    pairs += _net_pairs(p)
    # the side conditions of an equivalence witness
    pieces = [(rand_vector(rng, 4), rand_vector(rng, 4)) for _ in range(2)]
    op = rand_matrix(rng, 4, 4)
    for check, args, reference, ref_args in (
        (
            _witness_side_conditions,
            (p, pieces),
            oracles.ref_witness_side_conditions,
            (p, pieces),
        ),
        (
            _is_bracket_derivation,
            ("derivation", p.h_bracket, _columns({(): op})),
            oracles.ref_is_bracket_derivation,
            ("derivation", p.h_bracket, op),
        ),
    ):
        fast = Report("side conditions")
        check(fast, *args)
        pairs.append((fast, partial(_built, reference, ref_args)))
    # Lie-level structures, and a map that breaks the bracket
    lie_rng = random.Random(seed + 1)
    net, sigma_l, sigma_h = random_lie_net(lie_rng)
    pairs += _lie_net_pairs(net, sigma_l, sigma_h)
    skewed = TraceMap(sigma_h.space, rand_vector(lie_rng, sigma_h.space.dim))
    pairs += _lie_net_pairs(net, sigma_l, skewed)
    leibniz, trace = random_leibniz_lie_with_trace(lie_rng)
    lie = net.action.lie
    n = lie.space.dim
    twist = LinearMap(lie.space, lie.space, rand_matrix(lie_rng, n, n))
    pairs += [
        _pair(check_leibniz_lie, leibniz),
        _pair(check_trace, trace, leibniz),
        _pair(check_hom, "lie", twist, lie, lie),
    ]
    return pairs


def _operator_pairs(seed):
    """Three random operator families, whose products do not vanish, and a
    random Lie action on a non-abelian carrier, whose derivation terms do
    not: in the valid problems all of these are zero."""
    rng = random.Random(seed)
    base = example_problem(rng.choice([0, Fraction(1, 2), 1, 2]))
    l = base.l_space
    algebra = ThreeLeibnizAlgebra(
        l, TrilinearTable(l, l, base.l_bracket.expand_ordered())
    )
    keys = list(product(range(l.dim), repeat=2))
    families = [
        {key: rand_matrix(rng, 2, 2) for key in rng.sample(keys, 4)} for _ in range(3)
    ]
    net, _, _ = random_lie_net(rng)
    heisenberg = LieAlgebra(Space("H", 3), {(0, 1): Vector([0, 0, 1])})
    ops = {(i,): rand_matrix(rng, 3, 3) for i in range(net.action.lie.space.dim)}
    return [
        _pair(check_3leibniz_rep, ThreeLeibnizRep(algebra, Space("V", 2), *families)),
        _pair(check_lie_coherent, LieCoherentAction(net.action.lie, heisenberg, ops)),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_random_operators_match_the_full_scan(seed):
    _assert_same(_operator_pairs(seed))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["sparse", "dense", "perturbed"]),
)
def test_problem_reports_match_the_full_scan(seed, kind):
    _assert_same(_problem_pairs(seed, kind))


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_rational_basis_reports_match_the_full_scan(seed):
    """Moved through a change of basis with p/q entries on L and an integral
    one on H, the problem holds non-integral Fractions on L and ints on H,
    and the laws that join the two spaces mix them."""
    _, p, _, _ = _problem(seed, "rational")
    types = {
        type(a)
        for table in (p.l_bracket, p.h_bracket)
        for v in table.coords.values()
        for a in v
    }
    assume(types == {int, Fraction})
    _assert_same(_problem_pairs(seed, "rational"))


def test_perturbations_reach_failing_laws():
    """The perturbed and random families do exercise failing tuples of the
    term tables."""
    failing = set()
    for seed in range(12):
        for rep, _ in _problem_pairs(seed, "perturbed") + _operator_pairs(seed):
            failing.update(line.name for line in rep.checks if not line.passed)
    for name in (
        "fundamental identity",
        "action fundamental law",
        "derivation law",
        "embedding-tensor condition",
        "graph closure",
        "left-left composition law",
        "first-order tensor condition",
        "second-order condition",
        "right bracket-expansion law",
        "commutator law",
        "annihilation law",
        "ternary bracket preserved",
        "braces preserved",
        "tensor intertwining",
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


def _recorded(monkeypatch):
    """Every Report.law call from now on, as (scope text, count, kept keys,
    size): the keys of its term tables that lie in the scope, less the column
    index of an operator law's keys, each as its witness shows it, and the
    total size of the tables. Every value of a term table must be a vector,
    but for a trace's scalars and graph-check's point pairs."""
    calls = []
    original = Report.law

    def law(self, name, scope, lhs, rhs, values, **show):
        entries = [(t, v) for table in [*lhs, *rhs] for t, v in table.items()]
        if isinstance(values, (Space, Matrix)):
            kind = Vector
        elif isinstance(values, tuple):
            kind = tuple
        else:
            kind = (int, Fraction)
        assert all(isinstance(v, kind) for _, v in entries), name
        operator = isinstance(values, Matrix)
        keys = {t[:-1] if operator else t for t, _ in entries}
        keys = {scope.shown(t) for t in keys if scope.keep is None or scope.keep(t)}
        calls.append((scope.text, scope.count, keys, len(entries)))
        return original(self, name, scope, lhs, rhs, values, **show)

    monkeypatch.setattr(Report, "law", law)
    return calls


def test_term_tables_stay_small_on_a_sparse_bracket(monkeypatch):
    algebra = _sparse_bracket(12, 12, 0)
    calls = _recorded(monkeypatch)
    line = check_3lie(algebra).checks[0]
    assert line.checked == comb(12, 2) * comb(12, 3)
    ((_, count, _, size),) = calls
    assert count == line.checked
    assert 0 < size < count // 5


SCOPES = {
    "increasing pairs x increasing triples": lambda m, n: product(
        combinations(range(m), 2), combinations(range(n), 3)
    ),
    "increasing pairs x all ordered carrier triples": lambda m, n: product(
        combinations(range(m), 2), product(range(n), repeat=3)
    ),
    "increasing algebra pairs (operator identity)": lambda m, n: (
        (pair,) for pair in combinations(range(m), 2)
    ),
    "basis operators x increasing carrier pairs": lambda m, n: product(
        range(m), combinations(range(n), 2)
    ),
    "basis operators x all ordered carrier pairs": lambda m, n: product(
        range(m), product(range(n), repeat=2)
    ),
    "all ordered basis 5-tuples": lambda m, n: product(range(n), repeat=5),
    "all ordered basis 4-tuples": lambda m, n: product(range(n), repeat=4),
    "all ordered basis triples": lambda m, n: product(range(n), repeat=3),
    "all ordered carrier triples": lambda m, n: product(range(n), repeat=3),
    "all ordered graph-basis triples": lambda m, n: product(range(n), repeat=3),
    "all ordered basis pairs": lambda m, n: product(range(n), repeat=2),
    "all ordered carrier pairs": lambda m, n: product(range(n), repeat=2),
    "increasing carrier triples": lambda m, n: combinations(range(n), 3),
    "increasing basis triples": lambda m, n: combinations(range(n), 3),
    "increasing basis pairs": lambda m, n: combinations(range(n), 2),
    "increasing acting pairs": lambda m, n: combinations(range(n), 2),
    "carrier basis vectors": lambda m, n: ((u,) for u in range(n)),
}


@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_sorted_order_is_the_scan_order(scope):
    for m in range(6):
        for n in range(6):
            scan = list(SCOPES[scope](m, n))
            assert sorted(scan) == scan


def test_every_scope_is_known(monkeypatch):
    """Every law names a scope whose scan order is the sorted order above,
    counts the tuples of that scope, and keeps its table keys inside it."""
    calls = _recorded(monkeypatch)
    for path in sorted(FIXTURES.glob("*.json")):
        _fixture_pairs(path)
    _problem_pairs(0, "dense")
    assert {scope for scope, *_ in calls} == set(SCOPES)
    scans = {}
    for scope, count, keys, _ in calls:
        for m, n in product(range(7), repeat=2):
            if (scope, m, n) not in scans:
                scans[scope, m, n] = set(SCOPES[scope](m, n))
            scan = scans[scope, m, n]
            if len(scan) == count and keys <= scan:
                break
        else:
            raise AssertionError(f"keys outside {scope!r} or a wrong count {count}")


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


# -- builders against the loops they replace -----------------------------------


def _q(rng):
    """A random scalar, often with a denominator: the goldens cover only
    integral fixtures."""
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else 0


def _table(rng, keys, value):
    return {key: value() for key in keys if rng.random() < 0.6}


@pytest.mark.parametrize("seed", range(8))
def test_builders_match_their_loop_references(seed):
    """Each builder that sums term tables equals the dense loop it replaced,
    on random tables and non-integral traces and operators; the descendent
    bracket, the induced representation, the degree-0 differential and the
    witness side conditions are compared with theirs above and in
    test_cohomology."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 4), rng.randint(1, 3)
    L, H = Space("L", n), Space("H", m)

    def vec(space):
        return lambda: Vector([_q(rng) for _ in range(space.dim)])

    def op():
        return Matrix([[_q(rng) for _ in range(m)] for _ in range(m)])

    lie = LieAlgebra(L, _table(rng, combinations(range(n), 2), vec(L)))
    trace = TraceMap(L, vec(L)())
    assert _ternary_from_binary(lie, trace) == oracles.ref_ternary_from_binary(
        lie, trace
    )
    action = LieCoherentAction(
        lie, LieAlgebra(H, {}), _table(rng, ((i,) for i in range(n)), op)
    )
    assert rho_sigma(action, trace) == oracles.ref_rho_sigma(action, trace)

    coherent = CoherentActionData(
        RepresentationData(
            ThreeLieAlgebra(
                L, AlternatingTrilinearTable(
                    L, L, _table(rng, combinations(range(n), 3), vec(L))
                )
            ),
            H,
            PairAction(L, H, _table(rng, combinations(range(n), 2), op)),
        ),
        AlternatingTrilinearTable(H, H, _table(rng, combinations(range(m), 3), vec(H))),
    )
    built, ref = hemisemidirect_table(coherent), oracles.ref_hemisemidirect_table(coherent)
    assert (built.space, built.bracket) == (ref.space, ref.bracket)

    leibniz, trace = random_leibniz_lie_with_trace(rng)
    lifted = three_ll_from_leibniz_lie(leibniz, trace)
    assert lifted.lie3.bracket == oracles.ref_ternary_from_binary(leibniz.lie, trace)
    assert lifted.braces == oracles.ref_three_ll_braces(leibniz, trace)
    for braced in (lifted, induced_3ll(oracles.random_valid_problem(rng))):
        assert subadjacent(braced).bracket == oracles.ref_subadjacent(braced).bracket
