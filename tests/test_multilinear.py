"""Spaces, trilinear tables, pair actions, and the wedge-pair basis."""

import dataclasses
import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from tensorforge import (
    AlternatingTrilinearTable,
    InputError,
    LeibnizLieAlgebra,
    LieAlgebra,
    LieCoherentAction,
    LinearMap,
    Matrix,
    PairAction,
    Space,
    ThreeLeibnizAlgebra,
    ThreeLeibnizRep,
    TraceMap,
    TrilinearTable,
    Vector,
    WedgePairBasis,
)
from tensorforge.multilinear import (
    _columns,
    _feed,
    _sorted_sign,
    format_matrix,
    format_vector,
)

from oracles import (
    rand_matrix, rand_vector, ref_feed, ref_minor_eval, ref_trilinear_eval,
)

V3 = Space("V", 3)
V4 = Space("V", 4, ("a", "b", "c", "d"))
fracs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def vec4(draw_list):
    return Vector(tuple(draw_list))


def test_space_defaults_and_validation():
    assert V3.basis_labels == ("e1", "e2", "e3")
    assert V4.label(2) == "c"
    assert V3.basis_vector(1) == Vector((0, 1, 0))
    assert V3.zero().is_zero()
    with pytest.raises(InputError):
        Space("bad", -1)
    with pytest.raises(InputError):
        Space("bad", 2, ("x",))
    with pytest.raises(InputError):
        Space("bad", 2, ("x", "x"))


def test_sorted_sign_signs_and_repeats():
    assert _sorted_sign((0, 1, 2)) == ((0, 1, 2), 1)
    assert _sorted_sign((1, 0, 2)) == ((0, 1, 2), -1)
    assert _sorted_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert _sorted_sign((2, 1, 0)) == ((0, 1, 2), -1)
    assert _sorted_sign((0, 0, 1)) is None
    assert _sorted_sign((1, 2, 1)) is None
    assert _sorted_sign((3, 1)) == ((1, 3), -1)
    assert _sorted_sign((1, 3)) == ((1, 3), 1)
    assert _sorted_sign((2, 2)) is None


def test_trilinear_table_stores_any_order_and_drops_zeros():
    t = TrilinearTable(
        V3, V3, {(1, 0, 0): Vector((1, 0, 0)), (0, 1, 2): Vector((0, 0, 0))}
    )
    assert t.value(1, 0, 0) == Vector((1, 0, 0))
    assert t.value(0, 1, 2) is None
    assert (0, 1, 2) not in t.coords


def test_alternating_table_signs_and_key_policy():
    out = Vector((0, 0, 0, 1))
    t = AlternatingTrilinearTable(V4, V4, {(0, 1, 2): out})
    assert t.value(0, 1, 2) == out
    assert t.value(1, 0, 2) == -out
    assert t.value(2, 0, 1) == out
    assert t.value(0, 0, 1) is None


@settings(max_examples=30, deadline=None)
@given(
    st.lists(fracs, min_size=4, max_size=4),
    st.lists(fracs, min_size=4, max_size=4),
    st.lists(fracs, min_size=4, max_size=4),
)
def test_alternating_eval_is_antisymmetric(xs, ys, zs):
    t = AlternatingTrilinearTable(
        V4, V4, {(0, 1, 2): Vector((0, 0, 0, 1)), (0, 2, 3): Vector((1, 0, 0, 0))}
    )
    x, y, z = Vector(tuple(xs)), Vector(tuple(ys)), Vector(tuple(zs))
    base = t.eval(x, y, z)
    for perm, sign in [
        ((y, x, z), -1), ((x, z, y), -1), ((z, y, x), -1),
        ((y, z, x), 1), ((z, x, y), 1),
    ]:
        assert t.eval(*perm) == base.scale(sign)
    assert t.eval(x, x, z).is_zero()


def test_trilinear_eval_expands_by_multilinearity():
    rng = random.Random(5)
    coords = {
        (i, j, k): rand_vector(rng, 3)
        for i in range(3) for j in range(3) for k in range(3)
        if rng.random() < 0.4
    }
    t = TrilinearTable(V3, V3, coords)
    x, y, z = (rand_vector(rng, 3) for _ in range(3))
    expected = Vector.zero(3)
    for i, ci in x.iter_nonzero():
        for j, cj in y.iter_nonzero():
            for k, ck in z.iter_nonzero():
                val = t.value(i, j, k)
                if val is not None:
                    expected = expected + val.scale(ci * cj * ck)
    assert t.eval(x, y, z) == expected


W2 = Space("W", 2)
LIE4 = LieAlgebra(V4, {})
OP = Matrix([[0, 1], [Fraction(1, 2), 0]])
VEC = Vector((0, Fraction(-2, 3), 0, 1))

# container -> (its stored table built from coords, key arity, a nonzero
# value, one of the wrong shape, whether only increasing keys are stored)
CONTAINERS = {
    "TrilinearTable": (
        lambda c: TrilinearTable(V4, V4, c).coords, 3, VEC, Vector((1, 0)), False
    ),
    "AlternatingTrilinearTable": (
        lambda c: AlternatingTrilinearTable(V4, V4, c).coords,
        3, VEC, Vector((1, 0)), True,
    ),
    "PairAction": (
        lambda c: PairAction(V4, W2, c).coords, 2, OP, Matrix([[1, 2, 3]]), True
    ),
    "LieAlgebra": (lambda c: LieAlgebra(V4, c).coords, 2, VEC, Vector((1,)), True),
    "LeibnizLieAlgebra": (
        lambda c: LeibnizLieAlgebra(LIE4, c).triangle, 2, VEC, Vector((1,)), False
    ),
    "ThreeLeibnizRep": (
        lambda c: ThreeLeibnizRep(
            ThreeLeibnizAlgebra(V4, TrilinearTable(V4, V4, {})), W2, {}, c, {}
        ).m_act,
        2, OP, Matrix.zeros(2, 3), False,
    ),
    "LieCoherentAction": (
        lambda c: LieCoherentAction(LIE4, LieAlgebra(W2, {}), c).rho,
        1, OP, Matrix.identity(3), False,
    ),
}


@pytest.mark.parametrize("name", CONTAINERS)
def test_every_container_checks_its_table_with_one_constructor(name):
    """Each container checks and cleans its coordinates the same way: keys
    in range, increasing where only those are stored, values of the right
    shape, zero values dropped; errors give the key 1-based."""
    build, arity, value, wrong, increasing = CONTAINERS[name]
    key, other = tuple(range(arity)), tuple(range(1, arity + 1))
    raw = value.entries if isinstance(value, Vector) else value.rows
    assert build({key: raw, other: value.scale(0)}) == {key: value}

    outside = key[:-1] + (4,)
    one_based = ", ".join(str(i + 1) for i in outside)
    with pytest.raises(InputError, match=rf"\({one_based},?\) out of range"):
        build({outside: value})
    with pytest.raises(InputError, match="out of range"):
        build({key + (0,): value})
    with pytest.raises(InputError, match="shape"):
        build({key: wrong})
    for unordered in (key[::-1], (0,) + key[:-1]) if arity > 1 else ():
        if increasing:
            one_based = ", ".join(str(i + 1) for i in unordered)
            with pytest.raises(InputError, match=rf"\({one_based}\) must be increasing"):
                build({unordered: value})
        else:
            assert build({unordered: value}) == {unordered: value}


def test_pair_action_key_policy_and_signs():
    m = Matrix([[0, 1], [0, 0]])
    act = PairAction(V3, Space("W", 2), {(0, 2): m})
    assert act.at(0, 2) == m
    assert act.at(2, 0) == -m
    assert act.at(1, 1) is None
    assert act.at(0, 1) is None


@settings(max_examples=30, deadline=None)
@given(st.lists(fracs, min_size=3, max_size=3), st.lists(fracs, min_size=3, max_size=3))
def test_pair_action_eval_is_alternating_bilinear(xs, ys):
    rng = random.Random(11)
    act = PairAction(
        V3, V3,
        {(0, 1): rand_matrix(rng, 3, 3), (1, 2): rand_matrix(rng, 3, 3)},
    )
    x, y = Vector(tuple(xs)), Vector(tuple(ys))
    assert act.eval(x, y) == -act.eval(y, x)
    assert act.eval(x, x).is_zero()
    h = rand_vector(rng, 3)
    assert act.apply(x, y, h) == act.eval(x, y).mul_vec(h)
    assert act.apply_pair(1, 2, h) == act.at(1, 2).mul_vec(h)


def test_wedge_pair_basis_positions_and_expand():
    w = WedgePairBasis(V4)
    assert w.dim == 6
    assert w.pairs[0] == (0, 1) and w.pairs[-1] == (2, 3)
    for pos, (i, j) in enumerate(w.pairs):
        assert w.position(i, j) == pos
    x, y = Vector((1, 0, 2, 0)), Vector((0, 1, 0, -1))
    exp = w.wedge_expand(x, y)
    # entry at pair (i, j) must be x_i y_j - x_j y_i
    for pos, (i, j) in enumerate(w.pairs):
        assert exp[pos] == x[i] * y[j] - x[j] * y[i]
    assert w.wedge_expand(x, x).is_zero()
    assert w.wedge_expand(x, y) == -w.wedge_expand(y, x)
    assert w.label(0) == "a^b"


def test_format_helpers():
    assert format_vector(V4, Vector((1, 0, Fraction(-1, 2), 0))) == "a - 1/2*c"
    assert format_vector(V4, None) == "0"
    assert format_vector(V4, Vector((0, 0, 0, 0))) == "0"
    m = Matrix([[0, 1], [Fraction(1, 2), 0]])
    assert format_matrix(m) == "[1,2]=1, [2,1]=1/2"
    assert format_matrix(Matrix.zeros(2, 2)) == "0"


def test_spaces_maps_and_traces_compare_as_values():
    """Documents match spaces by value (a structure's space against the
    declared one, a trace's space against an algebra's), and maps and traces
    compare through their spaces and coefficients."""
    v, same = Space("V", 3), Space("V", 3, ("e1", "e2", "e3"))
    assert v == same and hash(v) == hash(same) and len({v, same}) == 1
    for other in (Space("W", 3), Space("V", 2), Space("V", 3, ("x", "y", "z")), "V"):
        assert v != other
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.dim = 4

    ident = Matrix.identity(3)
    assert LinearMap(v, v, ident) == LinearMap(same, same, ident)
    assert LinearMap(v, v, ident) != LinearMap(v, v, ident.scale(2))
    assert LinearMap(v, v, ident) != LinearMap(Space("W", 3), v, ident)

    trace = TraceMap(v, Vector.unit(3, 0))
    assert trace == TraceMap(same, Vector.unit(3, 0))
    assert trace != TraceMap(v, Vector.unit(3, 1))
    assert trace != TraceMap(Space("W", 3), Vector.unit(3, 0))


# scalars as a parsed document holds them: ints, and p/q where not integral,
# with coprime denominators, so that one table's values have no common one
mixed = st.sampled_from([
    0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
    Fraction(5, 7), Fraction(-11, 30),
])


@st.composite
def feed_cases(draw):
    """(outer, slot, inner): an outer table of dimension-3 vectors with keys
    of one to three indices below n, a slot, and an inner table of
    dimension-n vectors."""
    n, arity = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    keys = draw(st.sets(st.tuples(*[index] * arity), max_size=10))
    outer = {key: Vector([draw(mixed) for _ in range(3)]) for key in sorted(keys)}
    inner_keys = draw(st.sets(st.tuples(st.integers(0, 2)), max_size=3))
    inner = {key: Vector([draw(mixed) for _ in range(n)]) for key in sorted(inner_keys)}
    outer = {key: val for key, val in outer.items() if not val.is_zero()}
    inner = {key: val for key, val in inner.items() if not val.is_zero()}
    return outer, draw(st.integers(0, arity - 1)), inner


def _no_zero_and_no_integral_fraction(table):
    assert all(not val.is_zero() for val in table.values())
    # values are divided once, through `_div`: integral means int
    assert not [
        a for val in table.values()
        for a in val if type(a) is Fraction and a.denominator == 1
    ]


@settings(max_examples=150, deadline=None)
@given(feed_cases())
def test_feed_matches_the_scale_and_add_reference(case):
    outer, slot, inner = case
    fed = _feed(outer, slot, inner)
    assert fed == ref_feed(outer, slot, inner)
    _no_zero_and_no_integral_fraction(fed)


@pytest.mark.parametrize("value", [Vector([1, Fraction(1, 2), 0])], ids=["vector"])
def test_feed_drops_a_key_whose_terms_cancel(value):
    # key (5, 0) gets 2 * value - 1 * (2 * value) = 0; key (5, 1) gets -value
    outer = {(0, 0): value, (1, 0): value.scale(2), (1, 1): value}
    inner = {(5,): Vector([2, -1])}
    assert _feed(outer, 0, inner) == ref_feed(outer, 0, inner) == {(5, 1): -value}


@st.composite
def operator_tables(draw):
    """(left, right): tables of operators, left's p x m and right's m x q,
    with keys of zero to two indices; either may be empty."""
    p, m, q = (draw(st.integers(1, 3)) for _ in range(3))

    def table(nrows, ncols):
        arity = draw(st.integers(0, 2))
        keys = draw(st.sets(st.tuples(*[st.integers(0, 2)] * arity), max_size=4))
        return {
            key: Matrix([[draw(mixed) for _ in range(ncols)] for _ in range(nrows)])
            for key in sorted(keys)
        }

    return table(p, m), table(m, q)


@settings(max_examples=150, deadline=None)
@given(operator_tables())
# products that cancel: [1 1] [1 -1]^T = 0, and a nilpotent operator squared
@example(({(0,): Matrix([[1, 1]])}, {(): Matrix([[1], [-1]])}))
@example(({(0,): Matrix([[0, 1], [0, 0]])}, {(1,): Matrix([[0, 2], [0, 0]])}))
@example(({}, {(0,): Matrix([[1]])}))
def test_feeding_column_tables_composes_the_operators(tables):
    """_feed(left columns, len(a), right columns) holds left[a] right[b] e_c
    at key b + (c,) + a."""
    left, right = tables
    la = len(next(iter(left), ()))
    lb = len(next(iter(right), ()))
    fed = _feed(_columns(left), la, _columns(right))
    composed = {t[lb + 1 :] + t[:lb] + t[lb : lb + 1]: v for t, v in fed.items()}
    assert composed == _columns(
        {a + b: x.mul(y) for a, x in left.items() for b, y in right.items()}
    )
    _no_zero_and_no_integral_fraction(fed)


@st.composite
def stored_maps(draw):
    """(map, n, arity, zero): a Lie bracket, a pair action, a trilinear table
    or an alternating one, on a space of dimension 1 to 4, with mixed
    scalars; alternating maps get increasing keys only."""
    kind = draw(st.sampled_from(
        [LieAlgebra, PairAction, TrilinearTable, AlternatingTrilinearTable]
    ))
    n = draw(st.integers(1, 4))
    space = Space("V", n)
    arity = 2 if kind in (LieAlgebra, PairAction) else 3
    keys = draw(st.sets(st.tuples(*[st.integers(0, n - 1)] * arity), max_size=8))
    if kind is not TrilinearTable:
        keys = {key for key in keys if list(key) == sorted(set(key))}
    if kind is PairAction:
        zero = Matrix.zeros(2, 2)
        coords = {
            key: Matrix([[draw(mixed) for _ in range(2)] for _ in range(2)])
            for key in sorted(keys)
        }
        return PairAction(space, W2, coords), n, arity, zero
    coords = {key: Vector([draw(mixed) for _ in range(n)]) for key in sorted(keys)}
    if kind is LieAlgebra:
        return LieAlgebra(space, coords), n, arity, space.zero()
    return kind(space, space, coords), n, arity, space.zero()


@settings(max_examples=150, deadline=None)
@given(stored_maps(), st.data())
def test_every_stored_map_answers_one_way(case, data):
    """value, expand_ordered and eval agree on every ordered key, repeats
    included, and eval matches the per-class loops the maps ran before they
    shared one base."""
    stored, n, arity, zero = case
    ordered = stored.expand_ordered()
    basis = [Vector.unit(n, i) for i in range(n)]
    for key in product(range(n), repeat=arity):
        val = stored.value(*key)
        assert val == ordered.get(key)
        assert stored.eval(*(basis[i] for i in key)) == (zero if val is None else val)
    vectors = [Vector([data.draw(mixed) for _ in range(n)]) for _ in range(arity)]
    ref = ref_minor_eval if stored.increasing else ref_trilinear_eval
    assert stored.eval(*vectors) == ref(stored.coords, zero, *vectors)
    ordered.clear()  # each call gives a dict of its own
    copies = factorial(arity) if stored.increasing else 1
    assert len(stored.expand_ordered()) == copies * len(stored.coords)
