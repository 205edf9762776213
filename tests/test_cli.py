"""End-to-end command-line behavior: verdicts, formats, exit statuses."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: fall back to tomli in the test
    tomllib = None

from tensorforge import InputError, algebras, deformations, parse_document
from tensorforge.cli import build_parser, main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

GOLDEN_COHOMOLOGY = [
    {"degree": 1, "cochains": 16, "cocycles": 4, "coboundaries": 3, "classes": 1},
    {"degree": 2, "cochains": 96, "cocycles": 21, "coboundaries": 12, "classes": 9},
]


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        rc = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return invoke


@pytest.fixture
def adjoint_file(fixtures_dir):
    return fixtures_dir / "example_2_8.json"


PASSING = [
    ("check-3lie", "example_2_8.json", ()),
    ("check-3ll", "example_3_3.json", ()),
    ("check-lie", "heisenberg_e4.json", ()),
    ("check-leibniz-lie", "leibniz_lie_e3.json", ()),
    ("check-rep", "example_2_8.json", ()),
    ("check-action", "example_2_8.json", ()),
    ("check-lie-action", "heisenberg_e4.json", ()),
    ("check-lie-net", "heisenberg_e4.json", ()),
    ("check-trace", "heisenberg_e4.json", ()),
    ("check-trace", "leibniz_lie_e3.json", ("--algebra", "q")),
    ("graph-check", "example_2_8.json", ()),
    ("check-net", "example_2_8.json", ()),
    ("deform-check", "example_2_8.json", ("--name", "d_cocycle")),
    ("deform-check", "example_2_8.json", ("--name", "d_zero", "--higher-order")),
]


@pytest.mark.parametrize("command,fixture,extra", PASSING)
def test_passing_checks_exit_zero(run, fixtures_dir, command, fixture, extra):
    rc, out, err = run(command, fixtures_dir / fixture, *extra)
    assert rc == 0, err
    assert "PASS" in out


FAILING = [
    ("check-3lie", "broken_3lie.json", ()),
    ("check-3leibniz", "broken_3leibniz.json", ()),
    ("check-lie", "broken_lie.json", ()),
    ("check-leibniz-lie", "broken_leibniz_lie.json", ()),
    ("check-3ll", "broken_3ll.json", ()),
    ("check-rep", "broken_rep.json", ()),
    ("check-action", "broken_action.json", ()),
    ("check-rep-3leibniz", "broken_rep3.json", ()),
    ("check-trace", "broken_trace.json", ()),
    ("check-net", "broken_net.json", ()),
    ("graph-check", "broken_net.json", ()),
    ("deform-check", "example_2_8.json", ("--name", "d_cocycle", "--higher-order")),
]


@pytest.mark.parametrize("command,fixture,extra", FAILING)
def test_failing_checks_exit_one(run, fixtures_dir, command, fixture, extra):
    rc, out, err = run(command, fixtures_dir / fixture, *extra)
    assert rc == 1, out + err
    assert "FAIL" in out
    assert "witness" in out


def test_param_override_flips_the_verdict(run, adjoint_file):
    rc, out, _ = run("check-net", adjoint_file, "--param", "k=1")
    assert rc == 1
    assert "witness (a1, a3, a2): LHS = -2*a4, RHS = -3*a4" in out
    rc, out, _ = run("check-net", adjoint_file, "--param", "k=1", "--triples", "increasing")
    assert rc == 0
    rc, _, _ = run("check-net", adjoint_file, "--param", "k=0")
    assert rc == 0


def test_json_and_text_reports_agree(run, adjoint_file):
    rc, text, _ = run("check-net", adjoint_file, "--param", "k=1")
    rc_j, blob, _ = run("check-net", adjoint_file, "--param", "k=1", "--json")
    assert rc == rc_j == 1
    data = json.loads(blob)
    assert data["verdict"] == "fail"
    line = next(c for c in data["checks"] if c["failures"])
    assert line["failures"] == 4
    witness = line["witnesses"][0]
    assert witness["tuple"] == [1, 3, 2]
    assert witness["lhs"] == "-2*a4" and witness["rhs"] == "-3*a4"
    assert text.count("witness (") == 4


def test_witness_caps(run, adjoint_file):
    rc, out, _ = run("check-net", adjoint_file, "--param", "k=1", "--max-witnesses", "1")
    assert rc == 1
    assert out.count("witness (") == 1
    assert "... 3 more witnesses omitted" in out

    rc, out, _ = run("check-net", adjoint_file, "--param", "k=1", "--all-witnesses")
    assert out.count("witness (") == 4 and "omitted" not in out

    _, blob, _ = run(
        "check-net", adjoint_file, "--param", "k=1", "--json", "--max-witnesses", "1"
    )
    line = next(c for c in json.loads(blob)["checks"] if c["failures"])
    assert len(line["witnesses"]) == 1 and line["omitted_witnesses"] == 3


def test_negative_witness_cap_exits_two(run, fixtures_dir, adjoint_file, capsys):
    broken = fixtures_dir / "broken_3lie.json"
    rc, out, err = run("check-3lie", broken, "--max-witnesses", "-1")
    assert (rc, out) == (2, "")
    assert err == "input error: --max-witnesses must be at least 0, got -1\n"
    # cohomology prints no witnesses, so it has no such option at all
    with pytest.raises(SystemExit) as exc:
        run("cohomology", adjoint_file, "--max-witnesses", "-1")
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(
        "tensorforge: error: unrecognized arguments: --max-witnesses -1\n"
    )

    rc, out, _ = run("check-3lie", broken, "--max-witnesses", "0")
    assert rc == 1 and "witness (" not in out
    assert "... 6 more witnesses omitted" in out


def test_cohomology_table_and_json(run, adjoint_file):
    rc, out, _ = run("cohomology", adjoint_file)
    assert rc == 0
    assert "cohomology dimensions" in out
    for token in ("degree", "cochains", "cocycles", "coboundaries", "classes"):
        assert token in out
    rows = [line.split() for line in out.splitlines()[2:] if line.strip()]
    assert rows[0] == ["1", "16", "4", "3", "1"]
    assert rows[1] == ["2", "96", "21", "12", "9"]

    rc, blob, _ = run("cohomology", adjoint_file, "--json", "--degrees", "1,2")
    assert rc == 0
    assert json.loads(blob)["cohomology"] == GOLDEN_COHOMOLOGY


def test_cohomology_degree_three(run, adjoint_file):
    rc, blob, _ = run("cohomology", adjoint_file, "--degrees", "3", "--json")
    assert rc == 0
    assert json.loads(blob)["cohomology"] == [
        {"degree": 3, "cochains": 576, "cocycles": 108, "coboundaries": 75, "classes": 33}
    ]


def test_classify_reports_the_single_class(run, adjoint_file):
    rc, out, _ = run("classify", adjoint_file)
    assert rc == 0
    assert "independent classes: 1" in out
    assert "representative 1:" in out

    rc, blob, _ = run("classify", adjoint_file, "--json")
    data = json.loads(blob)
    assert (data["cocycle_dim"], data["coboundary_dim"], data["class_dim"]) == (4, 3, 1)
    assert len(data["representatives"]) == 1
    ident = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    assert data["representatives"][0] == ident


def test_deform_equiv(run, adjoint_file, fixtures_dir, tmp_path):
    rc, out, _ = run(
        "deform-equiv", adjoint_file, "--first", "d_coboundary", "--second", "d_zero"
    )
    assert rc == 0 and "PASS" in out

    rc, out, _ = run(
        "deform-equiv", adjoint_file, "--first", "d_cocycle", "--second", "d_zero"
    )
    assert rc == 1 and "FAIL" in out

    # exactly two directions in the document: the pair picks itself
    body = json.loads((fixtures_dir / "example_2_8.json").read_text())
    body["structures"]["deformations"] = [
        d for d in body["structures"]["deformations"] if d["name"] != "d_cocycle"
    ]
    two = tmp_path / "two.json"
    two.write_text(json.dumps(body))
    rc, out, _ = run("deform-equiv", two)
    assert rc == 0 and "PASS" in out

    rc, _, err = run("deform-equiv", adjoint_file, "--first", "d_zero", "--second", "d_zero")
    assert rc == 2 and "same direction" in err


def test_input_errors_exit_two(run, adjoint_file, fixtures_dir):
    cases = [
        ("check-3lie", "/nonexistent.json"),
        ("check-3lie", adjoint_file, "--name", "nope"),
        ("check-net", adjoint_file, "--param", "k"),
        ("check-net", adjoint_file, "--param", "zz=1"),
        ("cohomology", adjoint_file, "--degrees", "0"),
        ("cohomology", adjoint_file, "--degrees", "x"),
        ("deform-equiv", adjoint_file),
        ("check-trace", fixtures_dir / "leibniz_lie_e3.json", "--algebra", "zz"),
        ("check-3leibniz", adjoint_file),
    ]
    for argv in cases:
        rc, _, err = run(*argv)
        assert rc == 2, argv
        assert err.startswith("input error:"), argv


def test_refusals_exit_three(run, fixtures_dir):
    broken_net = fixtures_dir / "broken_net.json"
    for argv in (
        ("cohomology", broken_net),
        ("classify", broken_net),
        ("descendent", broken_net),
        ("induced-rep", broken_net),
        ("induce-3ll", broken_net),
    ):
        rc, _, err = run(*argv)
        assert rc == 3, argv
        assert err.startswith("refused:"), argv
        assert "FAIL" in err  # the gate report is shown


def _variant(fixtures_dir, tmp_path, fixture, edit):
    """A copy of a fixture whose structures `edit` changed in place."""
    body = json.loads((fixtures_dir / fixture).read_text())
    edit(body["structures"])
    path = tmp_path / f"variant_{fixture}"
    path.write_text(json.dumps(body))
    return path


def _zero_trace(space, dim):
    return lambda s: s.update(traces=[{"name": "zero", "space": space, "covector": [0] * dim}])


# e4 acting as the identity is not a derivation of [e1, e2] = e3
def _incoherent(s):
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    s["lie_actions"][0]["operators"] = {"4": identity}


def _acting_on_itself(s):
    s["lie_actions"] = [{"name": "a", "algebra": "bad", "carrier": "bad", "operators": {}}]


def _swapping_tensor(s):
    # [T e1, T e2] = [e3, e2] = 0, but T [e1, e2] = T e3 = e1
    s["lie_nets"][0]["tensor"] = [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]


def _bracket_dual(s):
    s["traces"].append({"name": "bracket_dual", "space": "L", "covector": [0, 0, 1, 0]})


def _non_cocycle(s):
    direction = [[int(i == j == 0) for j in range(4)] for i in range(4)]
    s["deformations"].append({"name": "d_bad", "net": "tensor", "direction": direction})


# (command, fixture, edit of its structures, options, refusal reason)
BUILDER_REFUSALS = [
    ("lie-to-3lie", "broken_lie.json", _zero_trace("L", 3), (),
     "the input must be a Lie algebra"),
    ("leibnizlie-to-3ll", "broken_leibniz_lie.json", _zero_trace("V", 3), (),
     "the input must be a Leibniz-Lie algebra"),
    ("lift-net", "heisenberg_e4.json", _swapping_tensor, (),
     "the Lie-level tensor condition fails"),
    ("lift-net", "heisenberg_e4.json", _bracket_dual,
     ("--trace-l", "bracket_dual", "--trace-h", "dual_last"),
     "the trace on the acting algebra must vanish on brackets"),
    ("rho-sigma", "heisenberg_e4.json", _incoherent, (),
     "the binary action is not coherent"),
]


@pytest.mark.parametrize("command,fixture,edit,extra,reason", BUILDER_REFUSALS)
def test_builder_refusals_print_the_gate_report(
    run, fixtures_dir, tmp_path, command, fixture, edit, extra, reason
):
    path = _variant(fixtures_dir, tmp_path, fixture, edit)
    rc, out, err = run(command, path, *extra)
    assert (rc, out) == (3, "")
    first, title = err.splitlines()[:2]
    assert first == f"refused: {reason}"
    assert title.endswith(": FAIL")  # the gate's report follows


# (command, fixture, edit of its structures, options, refusal reason, the
# name of one absorbed gate line)
CHECKER_REFUSALS = [
    ("check-lie-action", "broken_lie.json", _acting_on_itself, (),
     "the acting algebra fails the Jacobi identity",
     "acting algebra: Jacobi identity"),
    ("check-lie-net", "heisenberg_e4.json", _incoherent, (),
     "the underlying action is not coherent",
     "action: derivation law"),
    ("deform-equiv", "example_2_8.json", lambda s: None,
     ("--param", "k=1", "--first", "d_zero", "--second", "d_cocycle"),
     "first direction is not first-order",
     "first direction: base tensor: embedding-tensor condition"),
    ("deform-equiv", "example_2_8.json", _non_cocycle,
     ("--first", "d_zero", "--second", "d_bad"),
     "second direction is not first-order",
     "second direction: cocycle condition"),
]


@pytest.mark.parametrize("command,fixture,edit,extra,reason,absorbed", CHECKER_REFUSALS)
def test_checker_refusals_report_the_gate_lines(
    run, fixtures_dir, tmp_path, command, fixture, edit, extra, reason, absorbed
):
    path = _variant(fixtures_dir, tmp_path, fixture, edit)
    rc, out, err = run(command, path, *extra)
    assert (rc, err) == (3, "")
    lines = out.splitlines()
    assert lines[0].endswith(": REFUSED")
    assert lines[1] == f"  refused: {reason}"
    assert any(line.startswith(f"  {absorbed} [") for line in lines[2:]), out

    rc, blob, _ = run(command, path, *extra, "--json")
    data = json.loads(blob)
    assert (rc, data["verdict"], data["refusal_reason"]) == (3, "refused", reason)


def test_builders_pick_their_traces_before_any_gate(run, fixtures_dir, tmp_path):
    """A trace that cannot be picked is an input error even where the
    action would be refused too: every builder picks its traces first."""

    def edit(s):
        _incoherent(s)
        s["traces"] = []

    path = _variant(fixtures_dir, tmp_path, "heisenberg_e4.json", edit)
    for command in ("rho-sigma", "lift-net"):
        assert run(command, path) == (
            2, "", "input error: the document declares no trace on space 'L'\n"
        )


def test_traces_are_chosen_by_name_or_by_space(run, fixtures_dir, tmp_path):
    heisenberg = fixtures_dir / "heisenberg_e4.json"
    for command, flags in (
        ("lie-to-3lie", ("--trace", "dual_last")),
        ("lift-net", ("--trace-l", "dual_last", "--trace-h", "dual_last")),
    ):
        # a named trace gives what the one trace on the space gives
        assert run(command, heisenberg, *flags) == run(command, heisenberg)

    # a second trace on L, and one on a space of its own
    body = json.loads(heisenberg.read_text())
    body["spaces"].append({"name": "M", "dim": 1})
    body["structures"]["traces"] += [
        {"name": "bracket_dual", "space": "L", "covector": [0, 0, 1, 0]},
        {"name": "stray", "space": "M", "covector": [1]},
    ]
    several = tmp_path / "several.json"
    several.write_text(json.dumps(body))
    assert run("lie-to-3lie", heisenberg, "--trace", "nosuch") == (
        2, "",
        "input error: no trace named 'nosuch' on space 'L' (available: dual_last)\n",
    )
    for argv, message in (
        (("lie-to-3lie", several, "--trace", "stray"), "lives on space 'M'"),
        (("lift-net", several, "--trace-h", "dual_last", "--trace-l", "stray"),
         "lives on space 'M'"),
        (("lie-to-3lie", several), "choose one with --trace:"),
        (("lift-net", several, "--trace-h", "dual_last"), "choose one with --trace-l:"),
        (("rho-sigma", several, "--trace-l", "dual_last"), "choose one with --trace-h:"),
    ):
        rc, out, err = run(*argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("input error:") and message in err, argv


def test_check_trace_chooses_the_algebra(run, fixtures_dir, tmp_path):
    leibniz = fixtures_dir / "leibniz_lie_e3.json"
    assert run("check-trace", leibniz, "--algebra", "nosuch") == (
        2, "",
        "input error: no Lie or Leibniz-Lie algebra named 'nosuch' on space 'V' "
        "(available: g, q)\n",
    )

    # an abelian bracket on the same space as the Leibniz-Lie entry
    path = _variant(
        fixtures_dir, tmp_path, "leibniz_lie_e3.json",
        lambda s: s["lie"].append({"name": "flat", "space": "V", "brackets": {}}),
    )
    rc, out, err = run("check-trace", path)
    assert (rc, out) == (2, "")
    assert err == (
        "input error: the document declares 2 algebras on space 'V'; "
        "choose one with --algebra: flat, q\n"
    )
    for name in ("flat", "q"):
        rc, out, _ = run("check-trace", path, "--algebra", name)
        assert rc == 0 and "PASS" in out, name


def test_check_trace_algebra_may_name_a_wrapped_lie_entry(run, fixtures_dir, tmp_path):
    """Without --algebra the Leibniz-Lie entry q subsumes the Lie entry g it
    wraps; --algebra g checks g alone."""
    leibniz = fixtures_dir / "leibniz_lie_e3.json"
    brackets = "  vanishes on brackets [increasing basis pairs]: 3 checked, ok\n"
    products = "  vanishes on products [all ordered basis pairs]: 9 checked, ok\n"
    for argv, expected in (((), brackets + products), (("--algebra", "g"), brackets)):
        assert run("check-trace", leibniz, *argv) == (
            0, "trace check: PASS\n" + expected, ""
        ), argv

    # a name shared by a Lie entry and the Leibniz-Lie entry that wraps it
    # picks the Leibniz-Lie entry
    path = _variant(
        fixtures_dir, tmp_path, "leibniz_lie_e3.json",
        lambda s: s["leibniz_lie"][0].update(name="g"),
    )
    assert run("check-trace", path, "--algebra", "g") == (
        0, "trace check: PASS\n" + brackets + products, ""
    )


def _add(kind, **entry):
    return lambda s: s.setdefault(kind, []).append(entry)


def _drop(kind, name):
    return lambda s: s.update({kind: [e for e in s[kind] if e["name"] != name]})


_ALL = "d_coboundary, d_cocycle, d_zero"

# flag -> (edit of the document, argv, the input error or None for a run
# that picks), one row for each of: named and found, name missing, named on
# another space (flags that pick on a space), no candidate, several
# candidates. --second has no row without a candidate: --first fails first.
PICKING = {
    "--name": [
        (None, ["check-lie-action", "--name", "zero_action"], None),
        (None, ["check-lie-action", "--name", "nosuch"],
         "no lie_actions entry named 'nosuch' (available: zero_action)"),
        (_drop("lie_actions", "zero_action"), ["check-lie-action"],
         "the document declares no lie_actions entry"),
        (_add("lie_actions", name="other", algebra="g", carrier="h", operators={}),
         ["check-lie-action"],
         "the document declares 2 lie_actions entries; "
         "choose one with --name: other, zero_action"),
    ],
    "--trace": [
        (None, ["lie-to-3lie", "--name", "g", "--trace", "dual_last"], None),
        (None, ["lie-to-3lie", "--name", "g", "--trace", "nosuch"],
         "no trace named 'nosuch' on space 'L' (available: dual_last)"),
        (None, ["lie-to-3lie", "--name", "g", "--trace", "m_dual"],
         "trace 'm_dual' lives on space 'M', but 'L' is needed"),
        (_drop("traces", "dual_last"), ["lie-to-3lie", "--name", "g"],
         "the document declares no trace on space 'L'"),
        (_add("traces", name="second", space="L", covector=[0, 0, 1, 0]),
         ["lie-to-3lie", "--name", "g"],
         "the document declares 2 traces on space 'L'; "
         "choose one with --trace: dual_last, second"),
    ],
    "--trace-l": [
        (None, ["rho-sigma", "--trace-l", "dual_last"], None),
        (None, ["rho-sigma", "--trace-l", "nosuch"],
         "no trace named 'nosuch' on space 'L' (available: dual_last)"),
        (None, ["rho-sigma", "--trace-l", "m_dual"],
         "trace 'm_dual' lives on space 'M', but 'L' is needed"),
        (_drop("traces", "dual_last"), ["rho-sigma"],
         "the document declares no trace on space 'L'"),
        (_add("traces", name="second", space="L", covector=[0, 0, 1, 0]),
         ["rho-sigma"],
         "the document declares 2 traces on space 'L'; "
         "choose one with --trace-l: dual_last, second"),
    ],
    "--trace-h": [
        (None, ["rho-sigma", "--trace-h", "m_dual"], None),
        (None, ["rho-sigma", "--trace-h", "nosuch"],
         "no trace named 'nosuch' on space 'M' (available: m_dual)"),
        (None, ["rho-sigma", "--trace-h", "dual_last"],
         "trace 'dual_last' lives on space 'L', but 'M' is needed"),
        (_drop("traces", "m_dual"), ["rho-sigma"],
         "the document declares no trace on space 'M'"),
        (_add("traces", name="second", space="M", covector=[2]), ["rho-sigma"],
         "the document declares 2 traces on space 'M'; "
         "choose one with --trace-h: m_dual, second"),
    ],
    "--algebra": [
        (None, ["check-trace", "--name", "dual_last", "--algebra", "g"], None),
        (None, ["check-trace", "--name", "dual_last", "--algebra", "nosuch"],
         "no Lie or Leibniz-Lie algebra named 'nosuch' on space 'L' "
         "(available: g)"),
        (None, ["check-trace", "--name", "dual_last", "--algebra", "h"],
         "Lie or Leibniz-Lie algebra 'h' lives on space 'M', but 'L' is needed"),
        (_add("traces", name="on_h", space="H", covector=[0, 0, 0, 0]),
         ["check-trace", "--name", "on_h"],
         "the document declares no Lie or Leibniz-Lie algebra on space 'H'"),
        (_add("lie", name="flat", space="L", brackets={}),
         ["check-trace", "--name", "dual_last"],
         "the document declares 2 algebras on space 'L'; "
         "choose one with --algebra: flat, g"),
    ],
    "--first": [
        (None, ["deform-equiv", "--first", "d_zero", "--second", "d_cocycle"], None),
        (None, ["deform-equiv", "--first", "nosuch"],
         f"no deformations entry named 'nosuch' (available: {_ALL})"),
        (lambda s: s.pop("deformations"), ["deform-equiv"],
         "the document declares no deformations entry"),
        (None, ["deform-equiv"],
         f"the document declares 3 deformations entries; "
         f"choose one with --first: {_ALL}"),
    ],
    "--second": [
        (None, ["deform-equiv", "--first", "d_zero", "--second", "d_coboundary"], None),
        (None, ["deform-equiv", "--first", "d_zero", "--second", "nosuch"],
         f"no deformations entry named 'nosuch' (available: {_ALL})"),
        (None, ["deform-equiv", "--first", "d_zero"],
         f"the document declares 3 deformations entries; "
         f"choose one with --second: {_ALL}"),
    ],
}


def _picking_document(fixtures_dir):
    """The Heisenberg algebra g on L acting by zero on an abelian line h on a
    space M of its own, a trace on each of L and M, and beside them the
    3-Lie problem of example 2.8 with its three deformation directions."""
    body = json.loads((fixtures_dir / "heisenberg_e4.json").read_text())
    other = json.loads((fixtures_dir / "example_2_8.json").read_text())
    structures = body["structures"]
    del structures["lie_nets"]
    structures["lie"].append({"name": "h", "space": "M", "brackets": {}})
    structures["lie_actions"][0]["carrier"] = "h"
    structures["traces"].append({"name": "m_dual", "space": "M", "covector": [1]})
    body["spaces"] += [{"name": "M", "dim": 1}, *other["spaces"]]
    body["parameters"] = other["parameters"]
    structures.update(other["structures"])
    return body


@pytest.mark.parametrize("flag", PICKING)
def test_every_picking_flag_follows_the_one_rule(run, fixtures_dir, tmp_path, flag):
    """Each flag that picks an entry uses the named one, or else the only
    candidate; otherwise it names the entry missing, the space it lives on,
    or the candidates to choose from, in the words of `Document.resolve`."""
    for edit, argv, error in PICKING[flag]:
        body = _picking_document(fixtures_dir)
        if edit is not None:
            edit(body["structures"])
        path = tmp_path / "picking.json"
        path.write_text(json.dumps(body))
        rc, out, err = run(argv[0], path, *argv[1:])
        if error is None:
            assert rc in (0, 1) and out and err == "", (argv, err)
        else:
            assert (rc, out, err) == (2, "", f"input error: {error}\n"), argv


def _assert_input_error(result):
    rc, out, err = result
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("input error:")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
def test_an_output_that_cannot_be_written_exits_two(run, adjoint_file, tmp_path, where):
    target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    err = _assert_input_error(run("emit", adjoint_file, "--out", target))
    assert err.startswith(f"input error: cannot write {target}: ")


# commands that write a report, a document and a table to standard output
WRITERS = [
    ("check-net", "example_2_8.json"),
    ("check-action", "broken_action.json", "--json", "--all-witnesses"),
    ("emit", "example_2_8.json"),
    ("cohomology", "example_2_8.json"),
]


def _on_stdout(stdout, fixtures_dir, command, fixture, *flags):
    """(exit status, standard error) of a command run in a fresh interpreter
    with `stdout` as its standard output."""
    proc = subprocess.run(
        [sys.executable, "-m", "tensorforge", command, fixtures_dir / fixture, *flags],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_a_closed_stdout_pipe_exits_141_quietly(fixtures_dir, argv):
    """A pipe whose reader has gone exits 141, 128 + SIGPIPE, as a killed
    writer would, with nothing on stderr and no complaint at exit."""
    read, write = os.pipe()
    os.close(read)
    try:
        assert _on_stdout(write, fixtures_dir, *argv) == (141, "")
    finally:
        os.close(write)


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_a_failed_stdout_write_exits_two(fixtures_dir, argv):
    """A full device on standard output is an input error naming standard
    output, as a failed `--out` is, and nothing more is said at exit."""
    with open("/dev/full", "w") as full:
        rc, err = _on_stdout(full, fixtures_dir, *argv)
    assert (rc, err) == (
        2, "input error: cannot write standard output: No space left on device\n"
    )


def _fresh(*argv, closed=None, stdout=subprocess.PIPE):
    """(exit status, stdout, stderr) of a command run in a fresh interpreter,
    with the descriptor `closed`, if any, closed before it starts."""
    proc = subprocess.run(
        [sys.executable, "-m", "tensorforge", *map(str, argv)],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
        preexec_fn=None if closed is None else lambda: os.close(closed),
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [["check-net", "example_2_8.json"], ["--help"]])
def test_a_closed_stdout_exits_two(fixtures_dir, argv):
    """A standard output closed before the start is an input error naming
    standard output, for a report and for the help alike."""
    argv = [fixtures_dir / a if a.endswith(".json") else a for a in argv]
    assert _fresh(*argv, closed=1) == (
        2, "", "input error: cannot write standard output: it is closed\n"
    )


@pytest.mark.parametrize("argv,status", [
    (["check-net", "missing.json"], 2),
    (["check-net", "example_2_8.json", "--param", "k=1/0"], 2),
    (["hemisemidirect", "broken_action.json"], 3),
])
def test_a_closed_stderr_leaves_the_exit_status(fixtures_dir, argv, status):
    """What a command would say on a closed standard error is lost, but its
    exit status is what it would be with the stream open."""
    argv = [fixtures_dir / a if a.endswith(".json") else a for a in argv]
    assert _fresh(*argv, closed=2) == (status, "", "")


@pytest.mark.parametrize("argv", [["--help"], ["check-net", "--help"]])
def test_help_is_written_as_output_is(argv, monkeypatch):
    """The help goes to a pipe whole, as it goes to any standard output, and
    a help that cannot be written exits 2 as a report that cannot be written
    does."""
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps the help to
    assert _fresh(*argv) == _parse(build_parser(argv[0]).parse_args, argv)
    with open("/dev/full", "w") as full:
        assert _fresh(*argv, stdout=full) == (
            2, None,
            "input error: cannot write standard output: No space left on device\n",
        )


def test_print_help_raises_what_a_command_write_raises(monkeypatch):
    """argparse would let a failed help write go; the parser's `print_help`
    raises the input error that `main` turns into status 2."""
    monkeypatch.setattr(sys, "stdout", None)
    closed = "^cannot write standard output: it is closed$"
    with pytest.raises(InputError, match=closed):
        build_parser().print_help()


def test_a_document_that_is_not_utf8_exits_two(run, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"format": "tensorforge/1", "title": "café"}'.encode("latin-1"))
    err = _assert_input_error(run("emit", path))
    assert err.startswith(f"input error: cannot read {path}: ")


def test_a_deeply_nested_document_exits_two(run, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    err = _assert_input_error(run("emit", path))
    assert err.startswith("input error: document is not valid JSON: ")


_LONG = "1" * 4301  # one digit above Python's int-string conversion limit


def _with_long_integer(fixture: Path, where: str) -> str:
    """example_2_8 with a 4 301-digit integer as a space's dimension, as an
    index of a table key, or as a sparse-vector component key."""
    if where == "dim":
        return fixture.read_text().replace('"dim": 4', f'"dim": {_LONG}', 1)
    body = json.loads(fixture.read_text())
    key, component = ("1,2," + _LONG, "4") if where == "key" else ("1,2,3", _LONG)
    body["structures"]["three_lie"][0]["brackets"] = {key: {component: 1}}
    return json.dumps(body)


@pytest.mark.parametrize("command", ["emit", "check-3lie"])
@pytest.mark.parametrize("where", ["dim", "key", "component"])
def test_an_over_long_integer_in_a_document_exits_two(
    run, adjoint_file, tmp_path, where, command
):
    path = tmp_path / "long.json"
    path.write_text(_with_long_integer(adjoint_file, where))
    _assert_input_error(run(command, path))


def test_an_over_long_degree_exits_two(run, adjoint_file):
    err = _assert_input_error(run("cohomology", adjoint_file, "--degrees", _LONG))
    assert err.startswith("input error: --degrees expects")


_SEVENS = "7" * 3000  # as k, example_2_8's failing witness has about 6 000 digits


@pytest.mark.parametrize(
    "argv,reason",
    [
        (("check-net", "--param", f"k={_SEVENS}"), "4 300 digits"),
        (("check-net", "--json", "--param", f"k={_SEVENS}"), "4 300 digits"),
        (("descendent", "--param", f"k={_SEVENS}"), "4 300 digits"),
        (("deform-check", "--name", "d_cocycle", "--param", f"k={_SEVENS}"), "4 300 digits"),
        (("emit", "--param", "k=" + "9" * 4300), "4 300 digits"),  # 2k: 4 301 digits
        (("check-net", "--param", "k=1e100000"), "floats are not exact"),
        (("check-net", "--param", "k=1e3"), "floats are not exact"),
        (("check-net", "--param", "k=1.5"), "floats are not exact"),
    ],
    ids=["witness", "witness-json", "builder", "deform", "emit", "1e100000", "1e3", "1.5"],
)
def test_large_or_float_scalars_exit_two(run, adjoint_file, argv, reason):
    """A value too long to print is refused as input, naming the limit,
    and a --param float gets the float hint; neither is an internal error."""
    err = _assert_input_error(run(argv[0], adjoint_file, *argv[1:]))
    assert reason in err and "internal error" not in err


def test_emitted_long_scalars_read_back(run, adjoint_file, tmp_path):
    """Scalars of up to 4 300 digits are printed exactly, and the emitted
    document reads back to itself."""
    for k in ("-" + "4" * 4300, "1/" + "3" * 4300):
        rc, out, err = run("emit", adjoint_file, "--param", f"k={k}")
        assert (rc, err) == (0, "")
        path = tmp_path / "long.json"
        path.write_text(out)
        assert run("emit", path) == (0, out, "")


_BRACKET = ("structures", "three_lie", 0, "brackets", "1,2,3", "4")
_TENSOR = ("structures", "nets", 0, "tensor")
# (fixture, the keys down to one value, the value put there, the JSON path
# that the error names)
_MALFORMED = {
    "null scalar": ("example_2_8.json", _BRACKET, None,
                    "document.structures.three_lie[0].brackets.1,2,3.4: "),
    "list scalar": ("example_2_8.json", _BRACKET, [1],
                    "document.structures.three_lie[0].brackets.1,2,3.4: "),
    "power": ("example_2_8.json", _TENSOR + (2, 2), "2**k",
              "document.structures.nets[0].tensor[2][2]: "),
    "zero denominator": ("example_2_8.json", _TENSOR + (2, 2), "1/0*k",
                         "document.structures.nets[0].tensor[2][2]: "),
    "spaces object": ("example_2_8.json", ("spaces",), {}, "document.spaces: "),
    "string dim": ("example_2_8.json", ("spaces", 0, "dim"), "3",
                   "document.spaces[0].dim: "),
    "blank-edged name": ("example_2_8.json", ("spaces", 0, "name"), " V",
                         "document.spaces[0].name: "),
    "parameter name": ("example_2_8.json", ("parameters",), {"1k": 1},
                       "document.parameters: "),
    "covector length": ("heisenberg_e4.json", ("structures", "traces", 0, "covector"),
                        [0, 1], "document.structures.traces[0].covector: "),
    "tensor rows": ("example_2_8.json", _TENSOR, [[1, 0, 0, 0]] * 3,
                    "document.structures.nets[0].tensor: "),
    "tensor row width": ("example_2_8.json", _TENSOR + (1,), [0, 1, 0],
                         "document.structures.nets[0].tensor[1]: "),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_documents_exit_two_naming_the_json_path(
    run, fixtures_dir, tmp_path, case
):
    fixture, keys, value, where = _MALFORMED[case]
    body = json.loads((fixtures_dir / fixture).read_text())
    parent = body
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    err = _assert_input_error(run("emit", path))
    assert err.startswith("input error: " + where), err


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command", ["check-3lie", "emit"])
def test_a_space_above_the_work_budget_exits_two(tmp_path, command):
    """A huge declared dimension is refused as unusable input before any
    basis is built, within a 1 GB address space, not left to run out of
    memory."""
    from tensorforge.errors import _WORK_BUDGET

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "format": "tensorforge/1",
        "spaces": [{"name": "V", "dim": 100_000_000}],
        "structures": {"three_lie": [{"name": "big", "space": "V", "brackets": {}}]},
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "tensorforge", command, str(path)],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("input error: ")
    assert "'V'" in proc.stderr and str(_WORK_BUDGET) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_internal_errors_exit_four(run, adjoint_file, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("kernel exploded\nsecond line")

    # the command looks its checker up in the defining module
    monkeypatch.setattr(algebras, "check_3lie", boom)
    rc, out, err = run("check-3lie", adjoint_file)
    assert rc == 4
    assert err.splitlines() == ["internal error: RuntimeError: kernel exploded second line"]
    assert "Traceback" not in err and out == ""


def test_interrupt_exits_130(run, adjoint_file, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(deformations, "classify", interrupt)
    rc, _, err = run("classify", adjoint_file)
    assert rc == 130
    assert err == "interrupted\n"


def test_emit_is_canonical_and_stable(run, adjoint_file, tmp_path):
    rc, first, _ = run("emit", adjoint_file)
    assert rc == 0
    rc, second, _ = run("emit", adjoint_file)
    assert first == second
    out_file = tmp_path / "canon.json"
    rc, stdout, _ = run("emit", adjoint_file, "--out", out_file)
    assert rc == 0 and stdout == ""
    assert out_file.read_text() == first
    # overridden parameters materialize into the emitted text
    rc, with_k, _ = run("emit", adjoint_file, "--param", "k=2")
    tensor = json.loads(with_k)["structures"]["nets"][0]["tensor"]
    assert tensor[2][2] == 4 and tensor[3][3] == 2


BUILD_CHAIN = [
    ("hemisemidirect", "example_2_8.json", (), "check-3leibniz"),
    ("descendent", "example_2_8.json", (), "check-3leibniz"),
    ("induce-3ll", "example_2_8.json", (), "check-3ll"),
    ("induced-rep", "example_2_8.json", (), "check-rep-3leibniz"),
    ("lie-to-3lie", "heisenberg_e4.json", (), "check-3lie"),
    ("rho-sigma", "heisenberg_e4.json", (), "check-action"),
    ("lift-net", "heisenberg_e4.json", (), "check-net"),
    ("leibnizlie-to-3ll", "leibniz_lie_e3.json", (), "check-3ll"),
]


@pytest.mark.parametrize("builder,fixture,extra,checker", BUILD_CHAIN)
def test_builders_feed_their_checkers(
    run, fixtures_dir, tmp_path, builder, fixture, extra, checker
):
    out_file = tmp_path / "built.json"
    rc, _, err = run(builder, fixtures_dir / fixture, *extra, "--out", out_file)
    assert rc == 0, err
    rc, out, err = run(checker, out_file)
    assert rc == 0, err
    assert "PASS" in out
    # the built document, its spaces pooled from entries made in memory,
    # reads back to the same bytes
    assert run("emit", out_file) == (0, out_file.read_text(), "")


def test_hemisemidirect_labels_the_sum_space(run, adjoint_file):
    rc, out, _ = run("hemisemidirect", adjoint_file)
    doc = parse_document(out)
    combined = doc.resolve("three_leibniz")
    assert combined.space.dim == 8
    assert combined.space.label(0) == "l_a1"
    assert combined.space.label(4) == "h_a1"


def test_lie_to_3lie_bracket_table(run, fixtures_dir):
    rc, out, _ = run("lie-to-3lie", fixtures_dir / "heisenberg_e4.json")
    assert rc == 0
    data = json.loads(out)
    entry = data["structures"]["three_lie"][0]
    assert entry["brackets"] == {"1,2,4": {"3": 1}}


def test_leibniz_lift_brace_table(run, fixtures_dir):
    rc, out, _ = run("leibnizlie-to-3ll", fixtures_dir / "leibniz_lie_e3.json")
    assert rc == 0
    data = json.loads(out)
    entry = data["structures"]["three_leibniz_lie"][0]
    assert entry["braces"] == {"1,2,2": {"3": -1}, "2,1,2": {"3": 1}}
    lie3 = data["structures"]["three_lie"][0]
    assert lie3["brackets"] == {}


COMMAND_NAMES = (
    "check-3lie", "check-3leibniz", "check-lie", "check-leibniz-lie", "check-3ll",
    "check-rep", "check-action", "check-rep-3leibniz", "check-lie-action",
    "check-lie-net", "graph-check", "check-net", "check-trace", "deform-check",
    "deform-equiv", "cohomology", "classify", "hemisemidirect", "descendent",
    "induce-3ll", "induced-rep", "emit", "lie-to-3lie", "rho-sigma", "lift-net",
    "leibnizlie-to-3ll",
)


def _parse(parse, argv):
    """(exit status, stdout, stderr) of `parse(argv)`, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_a_one_command_parser_prints_what_the_full_parser_prints(name, adjoint_file):
    one, full = build_parser(name), build_parser()
    for argv in ([name, "--help"], [name], [name, str(adjoint_file), "--no-such-flag"]):
        assert _parse(one.parse_args, argv) == _parse(full.parse_args, argv), argv
    # it knows no other command
    other = "emit" if name != "emit" else "check-3lie"
    assert _parse(one.parse_args, [other, str(adjoint_file)])[0] == 2


def test_help_and_command_errors_list_every_command():
    listing = "{" + ",".join(COMMAND_NAMES) + "}"
    status, out, err = _parse(main, ["--help"])
    assert (status, err) == (0, "") and listing in out
    for argv in ([], ["chek-3lie"]):
        status, out, err = _parse(main, argv)
        assert (status, out) == (2, "") and listing in err, argv
    assert "invalid choice: 'chek-3lie'" in err
    assert all(repr(name) in err for name in COMMAND_NAMES)


def test_argparse_level_errors_exit_two():
    for argv in ([], ["frobnicate"], ["check-3lie"]):
        proc = subprocess.run(
            [sys.executable, "-m", "tensorforge.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, argv
        assert "usage:" in proc.stderr


def test_console_script_is_wired_up(fixtures_dir):
    toml = tomllib or pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        entry = toml.load(fh)["project"]["scripts"]["tensorforge"]
    module, attr = entry.split(":")
    # Run the declared target the way a generated console script does, so
    # the test checks pyproject.toml's entry and needs no install.
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    command = [sys.executable, "-c", code]
    proc = subprocess.run(
        [*command, "check-3lie", str(fixtures_dir / "example_2_8.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout

    # The entry must pass main's status on, not just run it.
    proc = subprocess.run(
        [*command, "check-3lie", str(fixtures_dir / "broken_3lie.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
