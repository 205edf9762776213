"""The law runner: sums of term tables, tuple counts, witness order, the
zero and witness text it derives from what a law's values are, printed
lazily, and the count, filter and witness tuples it derives from a law's
scope."""

from fractions import Fraction
from itertools import product

import pytest

from tensorforge import InputError, Matrix, Report, Scope, Space, Vector
from tensorforge.multilinear import _columns, format_matrix


def _scope(text, n, where=str):
    """The n one-slot tuples (i,) of a space of dimension n, labelled by
    `where`."""
    return Scope(text, (None, Space("X", n), 1, False), where=where)


def test_witnesses_follow_the_tuple_order():
    """Witnesses come in sorted tuple order, the scan order of every scope."""
    rep = Report("order")
    values = {(3,): 1, (0,): 0, (2,): 0, (1,): 1}
    line = rep.law("odd", _scope("four tuples", 4), [values], [], 0)
    assert rep.checks == [line]
    assert [f.indices for f in line.failures] == [(2,), (4,)]
    assert [f.where for f in line.failures] == ["(1,)", "(3,)"]
    assert [(f.lhs, f.rhs) for f in line.failures] == [("1", "0"), ("1", "0")]


def test_each_side_is_the_sum_of_its_tables():
    rep = Report("sums")
    line = rep.law(
        "sums",
        _scope("three tuples", 3),
        [{(0,): 1, (1,): 2}, {(0,): 2, (2,): 5}],
        [{(0,): 3, (1,): 1}, {(1,): 1}],
        0,
    )
    # (0,): 3 = 3; (1,): 2 = 2; (2,): 5 against a missing key, read as zero
    assert [(f.indices, f.lhs, f.rhs) for f in line.failures] == [((3,), "5", "0")]


def test_keep_drops_keys_outside_the_scope():
    rep = Report("keep")
    line = rep.law(
        "increasing",
        Scope("increasing pairs", (None, Space("X", 2), 2, True)),
        [{(0, 1): 1, (1, 0): 7}],
        [{(0, 1): 1}],
        0,
    )
    assert line.passed and line.checked == 1


def test_formatters_run_only_on_failing_tuples():
    """`where` and the printer derived from a scalar zero run on failing
    tuples alone: a passing value too long to print (4 400 digits) is never
    printed, and a failing one is an input error, not a crash."""
    calls = []

    def where(t):
        calls.append(t)
        return str(t)

    huge = 10**4400
    rep = Report("lazy")
    values = {(i,): int(i == 7) for i in range(10)} | {(3,): huge}
    line = rep.law(
        "one fails", _scope("ten tuples", 10, where), [values], [{(3,): huge}], 0
    )
    assert line.checked == 10 and calls == [(7,)]
    assert [(f.lhs, f.rhs) for f in line.failures] == [("1", "0")]
    with pytest.raises(InputError, match="more than 4 300 digits"):
        rep.law("huge fails", _scope("one tuple", 1), [{(0,): huge}], [], 0)


def test_a_space_prints_its_vectors_and_show_prints_other_values():
    """A Space reads a missing key as its zero vector and prints a witness
    by its labels; a law of other values passes its zero and `show`, which
    runs only on failing tuples."""
    space = Space("V", 2, ("a", "b"))
    rep = Report("kinds")
    line = rep.law(
        "vectors", _scope("two", 2), [{(0,): Vector([1, Fraction(-1, 2)])}], [], space
    )
    assert [(f.lhs, f.rhs) for f in line.failures] == [("a - 1/2*b", "0")]
    shown = []

    def show(pair):
        shown.append(pair)
        return f"<{pair[0]}|{pair[1]}>"

    line = rep.law(
        "pairs", _scope("three", 3), [{(0,): (1, 2), (1,): (0, 5)}],
        [{(0,): (1, 2)}], (0, 0), show=show,
    )
    assert [(f.lhs, f.rhs) for f in line.failures] == [("<0|5>", "<0|0>")]
    assert shown == [(0, 5), (0, 0)]


def test_checked_counts_every_tuple_even_none():
    """checked is the scope's count, even where no table has a key."""
    rep = Report("counts")
    empty = rep.law("empty", _scope("no tuples", 0), [], [], 0)
    assert (empty.checked, empty.failures, empty.passed) == (0, [], True)
    full = rep.law("all zero", _scope("five", 5), [{}], [{}], 0)
    assert (full.checked, full.passed) == (5, True)
    assert rep.ok


def test_nested_tuples_come_out_one_based():
    """A flat key of two named groups is shown one entry per group, and
    labelled by each group's word and labels."""
    rep = Report("nested")
    scope = Scope(
        "pair x triple", ("pair", Space("X", 2), 2, True),
        ("triple", Space("Y", 4, ("a", "b", "c", "d")), 3, True),
    )
    line = rep.law("fails", scope, [{(0, 1, 0, 2, 3): 1}], [], 0)
    assert line.failures[0].indices == ((1, 2), (1, 3, 4))
    assert line.failures[0].where == "pair (e1, e2), triple (a, c, d)"
    assert rep.to_json(None)["checks"][0]["witnesses"][0]["tuple"] == [
        [1, 2], [1, 3, 4]
    ]


def test_witness_cap_split_is_shared_by_text_and_json():
    rep = Report("cap")
    rep.law("fails", _scope("six", 6), [{(i,): 1 for i in range(6)}], [], 0)
    line = rep.checks[0]
    assert line.capped(None) == (line.failures, 0)
    assert line.capped(6) == (line.failures, 0)
    assert line.capped(2) == (line.failures[:2], 4)
    assert line.capped(0) == ([], 6)
    text = rep.render_text(0)
    assert "witness (" not in text and "... 6 more witnesses omitted" in text
    doc = rep.to_json(2)["checks"][0]
    assert len(doc["witnesses"]) == 2 and doc["omitted_witnesses"] == 4


# -- operator laws: column tables, one witness per operator ---------------------

A = Matrix([[1, 0], [0, 2]])
B = Matrix([[1, Fraction(1, 2)], [3, 2]])


def _pairs(increasing=False):
    """The ordered, or increasing, pairs of a space of dimension 2."""
    return Scope(
        "pairs", (None, Space("X", 2), 2, increasing), where=lambda t: f"at {t}"
    )


def _operator_law(rep, lhs, rhs, scope=None):
    return rep.law("ops", scope or _pairs(), lhs, rhs, Matrix.zeros(2, 2))


def test_an_operator_law_gives_one_witness_per_failing_operator():
    """Two failing columns of one operator make one witness, and it shows
    the whole operators as format_matrix does."""
    rep = Report("ops")
    line = _operator_law(rep, [_columns({(0, 1): A})], [_columns({(0, 1): B})])
    assert [(f.indices, f.where, f.lhs, f.rhs) for f in line.failures] == [
        ((1, 2), "at (0, 1)", format_matrix(A), format_matrix(B))
    ]
    assert line.checked == 4
    # one failing column: the witness still shows both operators whole
    C = Matrix([[1, 0], [0, 3]])
    line = _operator_law(rep, [_columns({(0, 1): A})], [_columns({(0, 1): C})])
    assert [(f.lhs, f.rhs) for f in line.failures] == [
        ("[1,1]=1, [2,2]=2", "[1,1]=1, [2,2]=3")
    ]


def test_keep_sees_an_operator_key_without_its_column():
    seen = []
    scope = _pairs(increasing=True)
    in_scope = scope.keep

    def keep(t):
        seen.append(t)
        return in_scope(t)

    scope.keep = keep
    rep = Report("keep")
    line = _operator_law(rep, [_columns({(0, 1): A, (1, 0): A})], [], scope)
    assert set(seen) == {(0, 1), (1, 0)}
    assert [f.indices for f in line.failures] == [(1, 2)]


def test_operator_witnesses_come_out_in_sorted_key_order():
    rep = Report("order")
    ops = {(1, 0): A, (0, 1): B, (0, 0): A}
    line = _operator_law(rep, [_columns(ops)], [])
    assert [f.indices for f in line.failures] == [(1, 1), (1, 2), (2, 1)]
    assert [f.lhs for f in line.failures] == [
        format_matrix(A), format_matrix(B), format_matrix(A)
    ]
    assert {f.rhs for f in line.failures} == {"0"}


def test_an_operator_column_whose_terms_cancel_reads_as_zero():
    rep = Report("cancel")
    col = Vector([1, Fraction(-1, 2)])
    line = _operator_law(rep, [{(0, 1, 0): col}, {(0, 1, 0): -col}], [{}])
    assert line.passed and line.checked == 4


# -- scopes: the count, the filter and the witness tuples of slot groups --------

GROUPS = [
    (k, increasing, named)
    for k in (1, 2, 3)
    for increasing in (False, True)
    for named in (False, True)
]


def _flat(shown):
    for x in shown:
        yield from x if isinstance(x, tuple) else (x,)


@pytest.mark.parametrize(
    "shapes", [(g,) for g in GROUPS] + list(product(GROUPS, repeat=2)), ids=str
)
def test_a_scope_counts_filters_and_shows_its_tuples(shapes):
    """On every space dimension 0-4, `count` is the number of tuples of the
    full product of the groups' slots that `keep` accepts, and the sorted kept
    keys map one to one onto the sorted shown tuples: the key itself for one
    unnamed group, and otherwise one entry per group, a bare index for a
    one-slot group."""
    for dims in product(range(5), repeat=len(shapes)):
        groups = [
            ("word" if named else None, Space(f"S{n}", dim), k, increasing)
            for n, ((k, increasing, named), dim) in enumerate(zip(shapes, dims))
        ]
        scope = Scope("scope", *groups)
        slots = [range(dim) for dim, (k, _, _) in zip(dims, shapes) for _ in range(k)]
        kept = [t for t in product(*slots) if scope.keep is None or scope.keep(t)]
        assert scope.count == len(kept), (shapes, dims)
        shown = [scope.shown(t) for t in kept]
        assert shown == sorted(shown) and [tuple(_flat(s)) for s in shown] == kept
        if len(shapes) == 1 and not shapes[0][2]:
            assert shown == kept
        else:
            arities = [k for k, _, _ in shapes]
            for s in shown:
                assert [1 if isinstance(x, int) else len(x) for x in s] == arities
