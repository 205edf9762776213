"""The law runner: sums of term tables, tuple counts, witness order and lazy
formatting."""

from fractions import Fraction

from tensorforge import Matrix, Report, Vector
from tensorforge.multilinear import _columns, format_matrix


def test_witnesses_follow_the_tuple_order():
    """Witnesses come in sorted tuple order, the scan order of every scope."""
    rep = Report("order")
    values = {(3,): 1, (0,): 0, (2,): 0, (1,): 1}
    line = rep.law("odd", "four tuples", 4, [values], [], 0, str, str)
    assert rep.checks == [line]
    assert [f.indices for f in line.failures] == [(2,), (4,)]
    assert [f.where for f in line.failures] == ["(1,)", "(3,)"]
    assert [(f.lhs, f.rhs) for f in line.failures] == [("1", "0"), ("1", "0")]


def test_each_side_is_the_sum_of_its_tables():
    rep = Report("sums")
    line = rep.law(
        "sums",
        "three tuples",
        3,
        [{(0,): 1, (1,): 2}, {(0,): 2, (2,): 5}],
        [{(0,): 3, (1,): 1}, {(1,): 1}],
        0,
        str,
        str,
    )
    # (0,): 3 = 3; (1,): 2 = 2; (2,): 5 against a missing key, read as zero
    assert [(f.indices, f.lhs, f.rhs) for f in line.failures] == [((3,), "5", "0")]


def test_keep_drops_keys_outside_the_scope():
    rep = Report("keep")
    line = rep.law(
        "increasing",
        "increasing pairs",
        1,
        [{(0, 1): 1, (1, 0): 7}],
        [{(0, 1): 1}],
        0,
        str,
        str,
        keep=lambda t: t[0] < t[1],
    )
    assert line.passed and line.checked == 1


def test_formatters_run_only_on_failing_tuples():
    calls = {"show": 0, "where": 0}

    def show(x):
        calls["show"] += 1
        return str(x)

    def where(t):
        calls["where"] += 1
        return str(t)

    rep = Report("lazy")
    line = rep.law(
        "one fails",
        "ten tuples",
        10,
        [{(i,): int(i == 7) for i in range(10)}],
        [],
        0,
        show,
        where,
    )
    assert line.checked == 10 and len(line.failures) == 1
    assert calls == {"show": 2, "where": 1}


def test_checked_counts_every_tuple_even_none():
    """checked is the scope's count, even where no table has a key."""
    rep = Report("counts")
    empty = rep.law("empty", "no tuples", 0, [], [], 0, str, str)
    assert (empty.checked, empty.failures, empty.passed) == (0, [], True)
    full = rep.law("all zero", "five", 5, [{}], [{}], 0, str, str)
    assert (full.checked, full.passed) == (5, True)
    assert rep.ok


def test_nested_tuples_come_out_one_based():
    rep = Report("nested")
    line = rep.law(
        "fails", "pair x triple", 1, [{((0, 1), (0, 2, 3)): 1}], [], 0, str,
        lambda t: "w",
    )
    assert line.failures[0].indices == ((1, 2), (1, 3, 4))
    assert rep.to_json(None)["checks"][0]["witnesses"][0]["tuple"] == [
        [1, 2], [1, 3, 4]
    ]


def test_witness_cap_split_is_shared_by_text_and_json():
    rep = Report("cap")
    rep.law("fails", "six", 6, [{(i,): 1 for i in range(6)}], [], 0, str, str)
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


def _operator_law(rep, lhs, rhs, keep=None):
    return rep.law(
        "ops", "pairs", 4, lhs, rhs, Matrix.zeros(2, 2), format_matrix,
        lambda t: f"at {t}", keep=keep,
    )


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

    def keep(t):
        seen.append(t)
        return t[0] < t[1]

    rep = Report("keep")
    line = _operator_law(rep, [_columns({(0, 1): A, (1, 0): A})], [], keep)
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
