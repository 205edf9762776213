"""Induced representations, the cochain complex, and its golden dimensions.

The dimension goldens here were frozen from two independent eliminations
(the package kernels and the test oracle, which share no code); the tests
recompute both sides on every run.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tensorforge import (
    Cochain,
    CochainComplex,
    InputError,
    LinearMap,
    Matrix,
    NetHomomorphism,
    PreconditionError,
    Vector,
    check_3leibniz_rep,
    check_net,
    cohomology_dims,
    delta0,
    induced_rep,
    load_document,
    pushforward,
    pushforward_matrix,
    rank,
)

from tensorforge.cli import main

from oracles import (
    example_problem,
    oracle_rank,
    rand_invertible,
    rand_unimodular,
    rand_vector,
    random_valid_problem,
    ref_delta_matrix,
    ref_induced_rep,
    ref_pushforward,
    ref_pushforward_matrix,
    transport_problem,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN_RANKS = {0: 3, 1: 12, 2: 75}
GOLDEN_DIMS = {1: (4, 3, 1), 2: (21, 12, 9)}
GOLDEN_COCHAIN_DIMS = {1: 16, 2: 96}


def test_golden_dimensions(adjoint_complex):
    for n, want in GOLDEN_COCHAIN_DIMS.items():
        assert adjoint_complex.cochain_dim(n) == want
    for n, want in GOLDEN_DIMS.items():
        assert adjoint_complex.cohomology_dims(n) == want


def test_golden_degree_three(adjoint_complex):
    # 3456x576 with 4062 nonzeros: too big for the dense oracle in tier-1
    d3 = adjoint_complex.delta_matrix(3)
    assert (d3.nrows, d3.ncols) == (3456, 576)
    assert rank(d3) == 468
    assert adjoint_complex.cohomology_dims(3) == (108, 75, 33)


def test_golden_degree_four(adjoint_complex):
    # (cochains, cocycles, coboundaries, classes); delta_4 is 20736x3456
    cx = adjoint_complex
    assert (cx.cochain_dim(4), *cx.cohomology_dims(4)) == (3456, 603, 468, 135)


def test_golden_dimensions_abelian(abelian_problem):
    cx = CochainComplex(abelian_problem)
    assert cx.cochain_dim(1) == 4
    assert cx.cohomology_dims(1) == (4, 0, 4)
    assert cx.cohomology_dims(2) == (4, 0, 4)


def test_delta_ranks_match_the_independent_oracle(adjoint_complex):
    for n, want in GOLDEN_RANKS.items():
        m = adjoint_complex.delta_matrix(n)
        assert oracle_rank([list(row) for row in m.rows]) == want


def test_consecutive_deltas_compose_to_zero(adjoint_complex):
    deltas = [adjoint_complex.delta_matrix(n) for n in range(5)]
    for lower, upper in zip(deltas, deltas[1:]):  # through delta_4 delta_3
        assert upper.mul(lower).is_zero()


def test_delta_of_degree_zero_images_vanishes(adjoint_complex, adjoint_problem):
    rng = random.Random(815)
    ldim = adjoint_problem.l_space.dim
    for _ in range(20):
        a1, a2 = rand_vector(rng, ldim), rand_vector(rng, ldim)
        phi = adjoint_complex.delta0_cochain(a1, a2)
        assert adjoint_complex.apply_delta(phi).is_zero()
    # the module-level helper builds its own complex but agrees
    a1, a2 = rand_vector(rng, ldim), rand_vector(rng, ldim)
    same = delta0(adjoint_problem, a1, a2)
    assert adjoint_complex.vec(same) == adjoint_complex.vec(
        adjoint_complex.delta0_cochain(a1, a2)
    )


def test_vec_unvec_round_trip(adjoint_complex):
    rng = random.Random(99)
    for n in (1, 2):
        v = rand_vector(rng, adjoint_complex.cochain_dim(n))
        phi = adjoint_complex.unvec(n, v)
        assert phi.degree == n
        assert adjoint_complex.vec(phi) == v
        doubled = phi + phi
        assert adjoint_complex.vec(doubled) == v + v
        assert (phi - phi).is_zero()
        assert adjoint_complex.vec(phi.scale(3)) == v.scale(3)


def test_linear_map_cochain_round_trip(adjoint_complex, adjoint_problem):
    rng = random.Random(7)
    lsp, hsp = adjoint_problem.l_space, adjoint_problem.h_space
    from oracles import rand_matrix

    lm = LinearMap(hsp, lsp, rand_matrix(rng, lsp.dim, hsp.dim))
    phi = adjoint_complex.cochain_from_linear_map(lm)
    assert phi.degree == 1
    back = adjoint_complex.linear_map_from_cochain(phi)
    assert back.matrix == lm.matrix


def test_apply_delta_agrees_with_the_matrix(adjoint_complex):
    rng = random.Random(31)
    v = rand_vector(rng, adjoint_complex.cochain_dim(1))
    phi = adjoint_complex.unvec(1, v)
    assert adjoint_complex.vec(adjoint_complex.apply_delta(phi)) == adjoint_complex.delta_matrix(
        1
    ).mul_vec(v)


def test_kernel_cochains_are_cocycles(adjoint_complex):
    basis = adjoint_complex.kernel_cochains(1)
    assert len(basis) == GOLDEN_DIMS[1][0]
    for phi in basis:
        assert adjoint_complex.apply_delta(phi).is_zero()


def test_induced_representation_satisfies_all_five_laws(adjoint_problem):
    rep = induced_rep(adjoint_problem)
    report = check_3leibniz_rep(rep)
    assert report.ok
    names = {line.name for line in report.checks}
    assert {
        "left-left composition law",
        "left-middle composition law",
        "left-right composition law",
        "middle bracket-expansion law",
        "right bracket-expansion law",
    } <= names


def test_induced_representation_refuses_broken_tensors(fixtures_dir):
    broken = load_document(str(fixtures_dir / "broken_net.json")).resolve("nets")
    with pytest.raises(PreconditionError):
        induced_rep(broken)
    with pytest.raises(PreconditionError):
        CochainComplex(broken)


@pytest.mark.parametrize("key", [((6,), 0), ((0,), 4), ((-1,), 0), ((0,), -1)])
def test_cochain_keys_outside_the_basis_are_rejected(key):
    # a key past the basis would alias another coordinate of the vector
    with pytest.raises(InputError, match="out of range"):
        Cochain(2, 6, 4, 4, {key: Vector((1, 0, 0, 0))})


def test_cochains_of_other_shapes_are_unequal():
    """Cochains that cannot be added do not compare equal: equality takes
    the degree and all three dimensions, as the sum does."""
    x = {((0,), 0): Vector((1, 0, 0))}
    wide, narrow = Cochain(2, 10, 5, 3, x), Cochain(2, 1, 5, 3, x)
    with pytest.raises(InputError, match="cochain shape mismatch"):
        wide + narrow
    assert wide != narrow
    assert wide == Cochain(2, 10, 5, 3, x)
    assert Cochain(1, 10, 5, 5, {}) != Cochain(1, 1, 1, 1, {})
    assert Cochain(1, 10, 5, 5, {}) == Cochain(1, 10, 5, 5, {})


def test_degree_five_is_refused_by_its_work_estimate(adjoint_problem):
    # P = 6 pairs and |D|, |L|, |F|, |Omega| = 3, 3, 18, 6 block entries:
    # rows 6^5*16, columns 6^4*16, 5^2 slot loops, and the entries written
    # 5*6^4*(3*4 + 3*4) + 6^4*18 + C(5,2)*6^3*6*16
    estimate = 124416 + 20736 + 25 + 155520 + 23328 + 207360
    cx = CochainComplex(adjoint_problem)
    with pytest.raises(PreconditionError, match=f"work estimate of {estimate}"):
        cx.cohomology_dims(5)
    assert not cx._matrices  # refused before any degree below it is built
    with pytest.raises(InputError):
        cx.cohomology_dims(0)


def _carrier_of_dim_one(tmp_path):
    doc = json.loads((FIXTURES / "abelian.json").read_text())
    doc["spaces"][1] = {"name": "H", "dim": 1}
    doc["structures"]["nets"][0]["tensor"] = [[1], [0]]
    path = tmp_path / "carrier_dim_one.json"
    path.write_text(json.dumps(doc))
    return path


def test_a_carrier_without_pairs_builds_no_degree_below(tmp_path):
    """With P = 0 every degree n >= 2 has no cochains: its differential is
    0x0 and is not built from the one below it."""
    doc = load_document(str(_carrier_of_dim_one(tmp_path)))
    cx = CochainComplex(doc.resolve("nets"))
    assert cx.pair_dim == 0
    for n in (2, 3):
        m = cx.delta_matrix(n)
        assert (m.nrows, m.ncols) == (0, 0)
    assert 1 not in cx._matrices


def test_the_highest_admitted_degree_builds_without_deep_recursion(abelian_problem):
    """With P = 1 the budget admits degree 632; each differential is built
    from the one below it, lowest first, so no call recurses through all."""
    cx = CochainComplex(abelian_problem)
    assert cx.cohomology_dims(632) == (4, 0, 4)
    assert sorted(cx._matrices) == list(range(1, 633))
    with pytest.raises(PreconditionError, match="degree 633 has a work estimate"):
        cx.cohomology_dims(633)


def test_cochain_degrees_outside_their_range_are_refused(abelian_problem, adjoint_complex):
    """A cochain has degree >= 1, and cochain_dim counts degree 0's pairs of L
    too; degree 0's differential acts on wedge^2 L, so its kernel holds no
    cochains. These once gave a bare ValueError, a size of 2.666..., or 4/9."""
    for cx in (CochainComplex(abelian_problem), adjoint_complex):
        v = Vector.zero(cx.cochain_dim(1))
        with pytest.raises(InputError, match="cochain degree must be at least 1"):
            cx.unvec(0, v)
        with pytest.raises(InputError, match="cochain degree must be at least 1"):
            cx.kernel_cochains(0)
        with pytest.raises(InputError, match="cochain degree must be nonnegative"):
            cx.cochain_dim(-1)


@pytest.mark.parametrize("fixture", ["example_2_8.json", "abelian.json", None])
def test_huge_degrees_are_refused_at_once(fixture, tmp_path, capsys):
    # P = 6, P = 1 (every block empty) and P = 0 (a one-dimensional carrier)
    path = FIXTURES / fixture if fixture else _carrier_of_dim_one(tmp_path)
    start = time.perf_counter()
    status = main(["cohomology", str(path), "--degrees", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert "work estimate" in capsys.readouterr().err


def test_degree_five_exits_three_and_degree_four_passes(capsys):
    path = str(FIXTURES / "example_2_8.json")
    assert main(["cohomology", path, "--degrees", "5"]) == 3
    assert "refused: degree 5 has a work estimate" in capsys.readouterr().err
    assert main(["cohomology", path, "--degrees", "4", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["cohomology"][0]
    keys = ("degree", "cochains", "cocycles", "coboundaries", "classes")
    assert [row[k] for k in keys] == [4, 3456, 603, 468, 135]


def test_a_cochain_of_another_shape_is_an_input_error(adjoint_problem, adjoint_complex):
    e5 = Vector.unit(5, 4)
    with pytest.raises(InputError, match="dimensions"):
        adjoint_complex.apply_delta(Cochain(1, 10, 5, 5, {((), 4): e5}))
    # the same number of coordinates, but not the complex's pair basis
    with pytest.raises(InputError, match="dimensions"):
        adjoint_complex.apply_delta(Cochain(2, 1, 16, 6, {}))
    ident = NetHomomorphism(
        adjoint_problem,
        adjoint_problem,
        LinearMap.identity(adjoint_problem.l_space),
        LinearMap.identity(adjoint_problem.h_space),
    )
    with pytest.raises(InputError, match="dimensions"):
        pushforward(ident, Cochain(1, 10, 5, 5, {((), 4): e5}))


def _fixture_nets():
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(str(path))
        for entry in json.loads(path.read_text())["structures"].get("nets", ()):
            p = doc.resolve("nets", entry["name"])
            if check_net(p).ok:
                yield p


def test_cochain_maps_equal_the_loop_references(adjoint_doc, adjoint_problem):
    """delta_0..delta_4 and Psi_1..Psi_3 equal the per-cochain loops they
    replaced, built column by column from the unit cochains. Some of the
    nets are written in a basis of L with fractional entries, so that the
    induced representation has dense fractional coordinates."""
    rng = random.Random(2024)
    problems = list(_fixture_nets()) + [random_valid_problem(rng) for _ in range(10)]
    assert len(problems) >= 12
    basis_rng = random.Random(23)
    for k in (0, 0, Fraction(1, 2), Fraction(1, 2)):
        gl, gh = rand_invertible(basis_rng, 4), rand_unimodular(basis_rng, 4)
        problems.append(transport_problem(example_problem(k), gl, gh))
    for p in problems:
        cx, rep = CochainComplex(p), ref_induced_rep(p)
        for n in range(4):
            assert cx.delta_matrix(n) == ref_delta_matrix(p, rep, n), n
    # delta_4 asked first, so that it builds delta_3, delta_2 and delta_1
    for p in (example_problem(0), example_problem(Fraction(1, 2))):
        assert CochainComplex(p).delta_matrix(4) == ref_delta_matrix(
            p, ref_induced_rep(p), 4
        )

    sigma = adjoint_doc.resolve("maps", "sigma")
    homs = [NetHomomorphism(adjoint_problem, adjoint_problem, sigma, sigma)]
    for _ in range(4):
        gl, gh = rand_unimodular(rng, 4), rand_unimodular(rng, 4)
        target = transport_problem(adjoint_problem, gl, gh)
        homs.append(
            NetHomomorphism(
                adjoint_problem,
                target,
                LinearMap(adjoint_problem.l_space, target.l_space, gl),
                LinearMap(adjoint_problem.h_space, target.h_space, gh),
            )
        )
    for h in homs:
        for n in (1, 2, 3):
            assert pushforward_matrix(h, n) == ref_pushforward_matrix(h, n), n


def test_pushforward_equals_the_loop_reference_with_dense_maps(
    adjoint_problem, monkeypatch
):
    """Transporting one cochain applies the Kronecker factors of Psi_n to its
    coordinates one at a time; forming Psi_4 for dense maps took seconds.
    It never forms the Kronecker product, and the CPU bound is on the least
    of three calls, so that one slow spell of a shared host does not fail
    it."""
    from tensorforge import cohomology, linalg

    def formed(*factors):
        raise AssertionError("pushforward formed a Kronecker product")

    monkeypatch.setattr(linalg, "_kron", formed)
    monkeypatch.setattr(cohomology, "_kron", formed)
    rng = random.Random(11)
    p = adjoint_problem
    h = NetHomomorphism(
        p,
        p,
        LinearMap(p.l_space, p.l_space, rand_invertible(rng, p.l_space.dim)),
        LinearMap(p.h_space, p.h_space, rand_invertible(rng, p.h_space.dim)),
    )
    pair_dim, hdim, ldim = 6, p.h_space.dim, p.l_space.dim
    for n in (1, 2, 3, 4):
        keys = [((0,) * (n - 1), 0)] + [
            (tuple(rng.randrange(pair_dim) for _ in range(n - 1)), rng.randrange(hdim))
            for _ in range(2)
        ]
        phi = Cochain(n, pair_dim, hdim, ldim, {k: rand_vector(rng, ldim) for k in keys})
        spent = []
        for _ in range(3):
            start = time.process_time()
            got = pushforward(h, phi)
            spent.append(time.process_time() - start)
        spent = min(spent)
        assert got == ref_pushforward(h, phi), n
        assert len(got.coords) > 1, n
        if n == 4:
            assert spent < 0.1, f"degree 4 took {spent:.3f} s of CPU"


def test_module_level_wrappers_agree(adjoint_problem, adjoint_complex):
    assert cohomology_dims(adjoint_problem, 1) == GOLDEN_DIMS[1]


def test_pushforward_along_the_identity_is_the_identity(adjoint_problem, adjoint_complex):
    ident = LinearMap.identity(adjoint_problem.h_space)
    hom = NetHomomorphism(adjoint_problem, adjoint_problem,
                          LinearMap.identity(adjoint_problem.l_space), ident)
    for n in (1, 2):
        assert pushforward_matrix(hom, n) == Matrix.identity(
            adjoint_complex.cochain_dim(n)
        )
    rng = random.Random(3)
    phi = adjoint_complex.unvec(1, rand_vector(rng, 16))
    assert adjoint_complex.vec(pushforward(hom, phi)) == adjoint_complex.vec(phi)


def test_pushforward_commutes_with_delta_in_degree_one(adjoint_doc, adjoint_problem, adjoint_complex):
    sigma = adjoint_doc.resolve("maps", "sigma")
    hom = NetHomomorphism(adjoint_problem, adjoint_problem, sigma, sigma)
    psi1 = pushforward_matrix(hom, 1)
    psi2 = pushforward_matrix(hom, 2)
    d1 = adjoint_complex.delta_matrix(1)
    assert psi2.mul(d1) == d1.mul(psi1)
