"""Exit-status guard: seeded mutations of every fixture, through every command.

Each fixture gets MUTANTS mutants, each made by one to three edits at
random places of the document: a value swapped for a JSON value of another
type or out of range, a key deleted, or a key renamed. Every command of the
CLI runs on every mutant in process and must exit 0 (pass), 1 (fail), 2
(input error) or 3 (refused): an internal error, status 4, is a bug. The
mutations are fixed by the seed and the fixture's name, so the test is
deterministic.
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


def _status(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, err.getvalue()


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_mutated_documents_never_exit_four(fixture, tmp_path):
    doc = json.loads((FIXTURES / fixture).read_text())
    rng = random.Random(f"1:{fixture}")
    bad = []
    for n in range(MUTANTS):
        path = tmp_path / f"mutant{n}.json"
        path.write_text(json.dumps(_mutant(doc, rng)))
        for command in cli._COMMANDS:
            status, err = _status([command, str(path)])
            if status not in (0, 1, 2, 3) or "internal error" in err:
                bad.append(f"{command} mutant{n}: status {status}: {err.strip()[:200]}")
    assert not bad, "\n".join(bad)
