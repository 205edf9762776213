"""Golden output digests: every command on every fixture, byte for byte.

For each fixture, every check, analysis and builder command runs in
process, once per entry it can select and in each output format: text, and
`--json --all-witnesses` for law reports (`--json` for the tables). The
sha256 of its exit status, stdout and stderr must match `cli_golden.json`.

A change that alters output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

import pytest

from tensorforge import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
FIXTURES = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))

# command -> (the structure kind its --name selects, output kind)
COMMANDS = {
    "check-3lie": ("three_lie", "report"),
    "check-3leibniz": ("three_leibniz", "report"),
    "check-lie": ("lie", "report"),
    "check-leibniz-lie": ("leibniz_lie", "report"),
    "check-3ll": ("three_leibniz_lie", "report"),
    "check-rep": ("representations", "report"),
    "check-action": ("actions", "report"),
    "check-rep-3leibniz": ("three_leibniz_reps", "report"),
    "check-lie-action": ("lie_actions", "report"),
    "check-lie-net": ("lie_nets", "report"),
    "graph-check": ("nets", "report"),
    "check-net": ("nets", "report"),
    "check-trace": ("traces", "report"),
    "deform-check": ("deformations", "report"),
    "cohomology": ("nets", "table"),
    "classify": ("nets", "table"),
    "hemisemidirect": ("actions", "document"),
    "descendent": ("nets", "document"),
    "induce-3ll": ("nets", "document"),
    "induced-rep": ("nets", "document"),
    "emit": (None, "document"),
    "lie-to-3lie": ("lie", "document"),
    "rho-sigma": ("lie_actions", "document"),
    "lift-net": ("lie_nets", "document"),
    "leibnizlie-to-3ll": ("leibniz_lie", "document"),
}

# extra flags run as a variant of their command
VARIANTS = {
    "check-net": [("--triples", "increasing")],
    "deform-check": [("--higher-order",)],
    "cohomology": [("--degrees", "3")],
}

FORMATS = {
    "report": [(), ("--json", "--all-witnesses")],
    "table": [(), ("--json",)],
    "document": [()],
}


def _names(path, kind):
    structures = json.loads((ROOT / path).read_text())["structures"]
    return [entry["name"] for entry in structures.get(kind, ())]


def commands(fixture):
    """Every command line run on one fixture, paths relative to the root."""
    path = f"fixtures/{fixture}"
    out = []
    for command, (kind, output) in COMMANDS.items():
        names = _names(path, kind) if kind else []
        picks = [()] + ([("--name", n) for n in names] if len(names) > 1 else [])
        for pick, extra, fmt in itertools.product(
            picks, [()] + VARIANTS.get(command, []), FORMATS[output]
        ):
            out.append([command, path, *pick, *extra, *fmt])
    names = _names(path, "deformations")
    pairs = [()] + [
        ("--first", a, "--second", b) for a, b in itertools.permutations(names, 2)
    ]
    for pick, fmt in itertools.product(pairs, FORMATS["report"]):
        out.append(["deform-equiv", path, *pick, *fmt])
    return out


def digest(argv):
    """sha256 of (exit status, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    blob = json.dumps([status, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests(fixture):
    """The digests of one fixture's command lines."""
    return {" ".join(argv): digest(argv) for argv in commands(fixture)}


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cli_output_matches_the_golden_digests(fixture, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text())[fixture]
    got = digests(fixture)
    changed = sorted(
        k for k in golden.keys() | got.keys() if golden.get(k) != got.get(k)
    )
    assert not changed, f"{len(changed)} commands changed output: {changed[:10]}"


if __name__ == "__main__":
    os.chdir(ROOT)
    table = {fixture: digests(fixture) for fixture in FIXTURES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    count = sum(len(v) for v in table.values())
    print(f"wrote {count} digests for {len(FIXTURES)} fixtures", file=sys.stderr)
