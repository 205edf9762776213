"""End-to-end command-line behavior: verdicts, formats, exit statuses."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: fall back to tomli in the test
    tomllib = None

from tensorforge import algebras, deformations, parse_document
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
    for argv, message in (
        (("lie-to-3lie", heisenberg, "--trace", "nosuch"), "no traces entry named 'nosuch'"),
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
    rc, _, err = run("check-trace", leibniz, "--algebra", "nosuch")
    assert rc == 2 and "no Lie or Leibniz-Lie entry named 'nosuch'" in err

    # an abelian bracket on the same space as the Leibniz-Lie entry
    path = _variant(
        fixtures_dir, tmp_path, "leibniz_lie_e3.json",
        lambda s: s["lie"].append({"name": "flat", "space": "V", "brackets": {}}),
    )
    rc, out, err = run("check-trace", path)
    assert (rc, out) == (2, "")
    assert err == (
        "input error: several algebras live on space 'V'; "
        "choose one with --algebra: flat, q\n"
    )
    for name in ("flat", "q"):
        rc, out, _ = run("check-trace", path, "--algebra", name)
        assert rc == 0 and "PASS" in out, name


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
