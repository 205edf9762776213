"""Bracket-law checkers, structure maps, and derived structures."""

import random

import pytest

from tensorforge import (
    AlternatingTrilinearTable,
    CochainComplex,
    CoherentActionData,
    Deformation,
    EmbeddingTensorProblem,
    InputError,
    LeibnizLieAlgebra,
    LieAlgebra,
    LinearMap,
    Matrix,
    NetHomomorphism,
    PairAction,
    PreconditionError,
    RepresentationData,
    Space,
    ThreeLeibnizAlgebra,
    ThreeLeibnizLieAlgebra,
    ThreeLieAlgebra,
    TraceMap,
    TrilinearTable,
    Vector,
    check_3leibniz,
    check_3lie,
    check_3ll,
    check_hom,
    check_leibniz_lie,
    check_lie,
    load_document,
    subadjacent,
)

from oracles import _conjugate_lie, _heisenberg, rand_invertible, random_valid_problem


def test_fixture_structures_pass_their_checkers(fixtures_dir, adjoint_doc):
    rep = check_3lie(adjoint_doc.resolve("three_lie"))
    assert rep.ok and rep.verdict == "pass"

    braced = load_document(str(fixtures_dir / "example_3_3.json")).resolve(
        "three_leibniz_lie"
    )
    rep = check_3ll(braced)
    assert rep.ok
    # every stored brace lands on the last basis vector, up to sign
    last = braced.space.basis_vector(3)
    seen = 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                val = braced.braces.value(i, j, k)
                assert val is not None
                sign = (-1) ** (i + j + k + 3)  # stored 1-based parity
                assert val == last.scale(sign)
                seen += 1
    assert seen == 27

    heis = load_document(str(fixtures_dir / "heisenberg_e4.json"))
    assert check_lie(heis.resolve("lie")).ok

    lle = load_document(str(fixtures_dir / "leibniz_lie_e3.json"))
    assert check_leibniz_lie(lle.resolve("leibniz_lie")).ok


@pytest.mark.parametrize(
    "fixture,kind,checker,law",
    [
        ("broken_3lie.json", "three_lie", check_3lie, "fundamental identity"),
        ("broken_3leibniz.json", "three_leibniz", check_3leibniz,
         "fundamental identity"),
        ("broken_lie.json", "lie", check_lie, "Jacobi identity"),
        ("broken_leibniz_lie.json", "leibniz_lie", check_leibniz_lie, None),
        ("broken_3ll.json", "three_leibniz_lie", check_3ll, None),
    ],
)
def test_broken_fixtures_fail_with_witnesses(fixtures_dir, fixture, kind, checker, law):
    doc = load_document(str(fixtures_dir / fixture))
    rep = checker(doc.resolve(kind))
    assert rep.verdict == "fail"
    failing = [line for line in rep.checks if line.failures]
    assert failing
    if law is not None:
        assert any(line.name == law for line in failing)
    for line in failing:
        assert line.failures
        assert all(w.lhs != w.rhs for w in line.failures)


def test_random_conjugated_structures_still_pass():
    rng = random.Random(404)
    for _ in range(10):
        lie = _heisenberg(rng, rng.choice([3, 4]))
        moved = _conjugate_lie(lie, rand_invertible(rng, lie.space.dim))
        assert check_lie(moved).ok
    for _ in range(6):
        p = random_valid_problem(rng)
        assert check_3lie(p.action.algebra).ok


def test_subadjacent_with_zero_braces_returns_the_bracket():
    space = Space("H", 4, ("a1", "a2", "a3", "a4"))
    bracket = AlternatingTrilinearTable(
        space, space, {(0, 1, 2): space.basis_vector(3)}
    )
    alg = ThreeLieAlgebra(space, bracket)
    braced = ThreeLeibnizLieAlgebra(alg, TrilinearTable(space, space, {}))
    sub = subadjacent(braced)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                got = sub.bracket.value(i, j, k)
                want = bracket.value(i, j, k)
                assert (got is None and want is None) or got == want


def test_subadjacent_refuses_invalid_input(fixtures_dir):
    doc = load_document(str(fixtures_dir / "broken_3ll.json"))
    with pytest.raises(PreconditionError) as err:
        subadjacent(doc.resolve("three_leibniz_lie"))
    assert err.value.report is not None


def test_check_hom_accepts_automorphisms_and_rejects_others(adjoint_doc):
    alg = adjoint_doc.resolve("three_lie")
    space = alg.space
    ident = LinearMap.identity(space)
    assert check_hom("3lie", ident, alg, alg).ok

    sigma = adjoint_doc.resolve("maps", "sigma")
    assert check_hom("3lie", sigma, alg, alg).ok

    bad = LinearMap(space, space, Matrix.diagonal([1, 1, 1, 2]))
    rep = check_hom("3lie", bad, alg, alg)
    assert rep.verdict == "fail"
    assert any(line.failures for line in rep.checks)


def test_check_hom_rejects_mismatched_endpoints(adjoint_doc):
    alg = adjoint_doc.resolve("three_lie")
    other = Space("W", 2)
    zero3 = ThreeLieAlgebra(other, AlternatingTrilinearTable(other, other, {}))
    f = LinearMap.identity(alg.space)
    with pytest.raises(InputError):
        check_hom("3lie", f, alg, zero3)


def test_linear_map_compose_and_inverse():
    rng = random.Random(77)
    space = Space("V", 4)
    for _ in range(8):
        m = rand_invertible(rng, 4)
        f = LinearMap(space, space, m)
        g = f.inverse()
        assert g is not None and f.is_invertible()
        ident = LinearMap.identity(space)
        assert f.compose(g).matrix == ident.matrix
        assert g.compose(f).matrix == ident.matrix
    singular = LinearMap(space, space, Matrix.zeros(4, 4))
    assert singular.inverse() is None
    assert not singular.is_invertible()


def test_lie_algebra_value_signs():
    lie = _heisenberg(random.Random(3), 3)
    v12 = lie.value(0, 1)
    assert v12 is not None
    assert lie.value(1, 0) == -v12
    assert lie.value(1, 1) is None


def test_a_3lie_algebra_refuses_a_bracket_that_is_not_alternating():
    """The fundamental identity is checked on increasing pairs and triples
    only, which is exhaustive for an alternating bracket alone: this table,
    symmetric in its first pair, fails the ordered ternary Leibniz check."""
    space = Space("V", 3)
    e1 = space.basis_vector(0)
    table = TrilinearTable(space, space, {(0, 1, 2): e1, (1, 0, 2): e1})
    assert not check_3leibniz(ThreeLeibnizAlgebra(space, table)).ok
    with pytest.raises(InputError, match="alternating"):
        ThreeLieAlgebra(space, table)


L3, H3, W2, W5 = Space("L", 3), Space("H", 3), Space("W", 2), Space("W", 5)


def _zero3(space):
    return ThreeLieAlgebra(space, AlternatingTrilinearTable(space, space, {}))


def _abelian_problem():
    """Zero brackets, zero operators and the zero tensor H -> L: valid."""
    rep = RepresentationData(_zero3(L3), H3, PairAction(L3, H3, {}))
    action = CoherentActionData(rep, AlternatingTrilinearTable(H3, H3, {}))
    return EmbeddingTensorProblem(action, LinearMap(H3, L3, Matrix.zeros(3, 3)))


def _wrong_map(source=H3, target=W2):
    return LinearMap(source, target, Matrix.zeros(target.dim, source.dim))


SHAPE_CASES = {
    "table value": lambda: AlternatingTrilinearTable(
        L3, L3, {(0, 1, 2): W2.basis_vector(0)}
    ),
    "ternary bracket": lambda: ThreeLeibnizAlgebra(L3, TrilinearTable(L3, W2, {})),
    "3-Lie bracket": lambda: ThreeLieAlgebra(L3, AlternatingTrilinearTable(W5, W5, {})),
    "braces": lambda: ThreeLeibnizLieAlgebra(_zero3(L3), TrilinearTable(L3, W2, {})),
    "linear map": lambda: LinearMap(H3, W2, Matrix.zeros(3, 3)),
    "composition": lambda: LinearMap.identity(L3).compose(_wrong_map()),
    "representation": lambda: RepresentationData(
        _zero3(L3), H3, PairAction(L3, W2, {})
    ),
    # a bracket on H's basis with values in a 5-dimensional W: its codomain,
    # not only its domain, must be H
    "coherent action": lambda: CoherentActionData(
        RepresentationData(_zero3(L3), H3, PairAction(L3, H3, {})),
        AlternatingTrilinearTable(H3, W5, {(0, 1, 2): W5.basis_vector(4)}),
    ),
    "tensor problem": lambda: EmbeddingTensorProblem(
        _abelian_problem().action, _wrong_map()
    ),
    "trace": lambda: TraceMap(L3, Vector.zero(2)),
    "deformation": lambda: Deformation(_abelian_problem(), _wrong_map()),
    "structure map": lambda: check_hom("3lie", _wrong_map(L3), _zero3(L3), _zero3(L3)),
    "net homomorphism": lambda: NetHomomorphism(
        _abelian_problem(), _abelian_problem(), LinearMap.identity(L3), _wrong_map()
    ),
    "cochain of a map": lambda: CochainComplex(
        _abelian_problem()
    ).cochain_from_linear_map(_wrong_map()),
}


@pytest.mark.parametrize("build", SHAPE_CASES.values(), ids=SHAPE_CASES)
def test_containers_refuse_parts_of_the_wrong_shape(build):
    with pytest.raises(InputError, match="has shape .*, expected"):
        build()


def test_the_shape_message_names_both_shapes():
    with pytest.raises(InputError) as err:
        SHAPE_CASES["coherent action"]()
    assert str(err.value) == "target bracket has shape 3x5, expected 3x3"
    with pytest.raises(InputError) as err:
        SHAPE_CASES["table value"]()
    assert str(err.value) == (
        "alternating trilinear table value at (1, 2, 3) has shape 2, expected 3"
    )
