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
