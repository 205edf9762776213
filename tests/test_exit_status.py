"""Exit-status guard: seeded mutations of every fixture, through every command.

Each fixture gets MUTANTS mutants, each made by one to three edits at
random places of the document: a value swapped for a JSON value of another
type or out of range, a key deleted, or a key renamed. Every command of the
CLI runs on every mutant in process and must exit 0 (pass), 1 (fail), 2
(input error) or 3 (refused): an internal error, status 4, is a bug. The
mutations are fixed by the seed and the fixture's name, so the test is
deterministic. After the seeded mutants comes one more, every nonzero
integer scalar of the structures times 10^2200, so that a product of two
has more digits than Python converts to text (4 300): a witness of such
values is an input error, status 2.
"""

import contextlib
import copy
import io
import json
import random
from pathlib import Path

import pytest

from tensorforge import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MUTANTS = 16
SWAPS = (None, True, -1, 1.5, "", "1/0", [], {}, 10**30)
SCALE = 10**2200
TOO_LONG = "a value to print has more than 4 300 digits"


def _places(node, path=()):
    """The path of every value inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


def _mutant(doc, rng):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        places = list(_places(doc))
        if not places:
            break
        *path, key = rng.choice(places)
        parent = doc
        for step in path:
            parent = parent[step]
        how = rng.choice(("swap", "delete", "rename"))
        if how == "swap" or not isinstance(parent, dict):
            parent[key] = rng.choice(SWAPS)
        elif how == "delete":
            del parent[key]
        else:
            parent[key + "_"] = parent.pop(key)
    return doc


def _scaled(node):
    """`node` with every nonzero integer in it times SCALE."""
    if isinstance(node, dict):
        return {key: _scaled(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_scaled(value) for value in node]
    if type(node) is int and node:
        return node * SCALE
    return node


def _status(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, err.getvalue()


def _exit_fours(path, name):
    """Every command that exits 4, or reports an internal error, on `path`."""
    bad = []
    for command in cli._COMMANDS:
        status, err = _status([command, str(path)])
        if status not in (0, 1, 2, 3) or "internal error" in err:
            bad.append(f"{command} {name}: status {status}: {err.strip()[:200]}")
    return bad


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_mutated_documents_never_exit_four(fixture, tmp_path):
    doc = json.loads((FIXTURES / fixture).read_text())
    rng = random.Random(f"1:{fixture}")
    mutants = [_mutant(doc, rng) for _ in range(MUTANTS)]
    mutants.append(dict(doc, structures=_scaled(doc["structures"])))
    bad = []
    for n, mutant in enumerate(mutants):
        path = tmp_path / f"mutant{n}.json"
        path.write_text(json.dumps(mutant))
        bad += _exit_fours(path, f"mutant{n}")
    assert not bad, "\n".join(bad)


def test_scaled_trace_witnesses_are_input_errors(tmp_path):
    """The trace witnesses of the scaled broken trace print through the same
    digit check as every other witness."""
    doc = json.loads((FIXTURES / "broken_trace.json").read_text())
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(dict(doc, structures=_scaled(doc["structures"]))))
    for command in ("check-trace", "lie-to-3lie"):
        status, err = _status([command, str(path)])
        assert (status, TOO_LONG in err) == (2, True), (command, err)


def test_a_long_trace_compatibility_witness_is_an_input_error(tmp_path):
    """A 1-dim Lie net whose traces disagree through the tensor by a value of
    8 001 digits: the scaled fixtures fail an earlier law first, so only a
    document like this reaches lift-net's trace-compatibility law."""
    big = 10**4000
    doc = {
        "format": "tensorforge/1",
        "title": "traces that disagree by a long value",
        "spaces": [{"name": "L", "dim": 1}, {"name": "H", "dim": 1}],
        "structures": {
            "lie": [
                {"name": "g", "space": "L", "brackets": {}},
                {"name": "h", "space": "H", "brackets": {}},
            ],
            "lie_actions": [
                {"name": "a", "algebra": "g", "carrier": "h", "operators": {}}
            ],
            "lie_nets": [{"name": "n", "action": "a", "tensor": [[big]]}],
            "traces": [
                {"name": "sigma_l", "space": "L", "covector": [big]},
                {"name": "sigma_h", "space": "H", "covector": [0]},
            ],
        },
    }
    path = tmp_path / "lie_net.json"
    path.write_text(json.dumps(doc))
    assert not _exit_fours(path, "lie_net")
    status, err = _status(["lift-net", str(path)])
    assert (status, TOO_LONG in err) == (2, True), err
