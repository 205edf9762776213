"""Start-up footprint: a command imports only the modules it runs.

Each check runs in a fresh interpreter, so modules an earlier test loaded
do not hide what an import pulls in. The package namespace is lazy: every
public name resolves, on first access, to the object its module defines.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensorforge

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tensorforge"
FIXTURES = ROOT / "fixtures"
HEAVY = {"actions", "cohomology", "deformations", "induced_lie"}


def _loaded_after(code: str) -> set:
    """The names of the modules a fresh interpreter holds after running
    `code`, with its standard output discarded."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "json.dump(sorted(sys.modules), sys.__stdout__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _submodules(loaded: set) -> set:
    """The package's modules among `loaded`, by their short names."""
    return {name.split(".", 1)[1] for name in loaded if name.startswith("tensorforge.")}


def test_importing_the_package_loads_no_module():
    loaded = _loaded_after("import tensorforge")
    assert "tensorforge" in loaded
    assert not _submodules(loaded)


def test_importing_the_cli_loads_no_law_module_and_no_dataclasses():
    loaded = _loaded_after("import tensorforge.cli")
    assert "cli" in _submodules(loaded)
    assert not _submodules(loaded) & HEAVY
    assert not {"dataclasses", "inspect"} & loaded


def test_a_three_lie_check_loads_no_action_code():
    doc = json.loads((FIXTURES / "broken_3lie.json").read_text())
    assert list(doc["structures"]) == ["three_lie"]
    loaded = _loaded_after(
        "from tensorforge import cli\n"
        "cli.main(['check-3lie', 'fixtures/broken_3lie.json'])"
    )
    assert "algebras" in _submodules(loaded)
    assert not _submodules(loaded) & HEAVY


def _command_loads(*argv) -> set:
    """The package's modules a fresh interpreter holds after `cli.main(argv)`."""
    return _submodules(
        _loaded_after(f"from tensorforge import cli\ncli.main({list(argv)!r})")
    )


def test_reading_the_example_document_loads_no_law_module():
    doc = json.loads((FIXTURES / "example_2_8.json").read_text())
    assert {"representations", "actions", "nets", "deformations", "maps"} <= set(
        doc["structures"]
    )
    for command in ("check-3lie", "emit"):
        loaded = _command_loads(command, "fixtures/example_2_8.json")
        assert "algebras" in loaded, command
        assert not loaded & HEAVY, command


def test_a_net_check_loads_no_cohomology():
    loaded = _loaded_after(
        "from tensorforge import cli\n"
        "cli.main(['check-net', 'fixtures/example_2_8.json'])"
    )
    assert "actions" in _submodules(loaded)
    assert not _submodules(loaded) & {"cohomology", "deformations", "induced_lie"}
    assert not {"dataclasses", "inspect"} & loaded


def test_a_three_leibniz_check_loads_no_cohomology():
    doc = json.loads((FIXTURES / "broken_rep3.json").read_text())
    assert "three_leibniz_reps" in doc["structures"]
    loaded = _command_loads("check-3leibniz", "fixtures/broken_rep3.json")
    assert not loaded & HEAVY


def test_a_three_leibniz_rep_check_loads_no_law_module():
    # its checker lives in algebras, not with the cochain complex
    loaded = _command_loads("check-rep-3leibniz", "fixtures/broken_rep3.json")
    assert "algebras" in loaded
    assert not loaded & HEAVY


def test_no_module_imports_dataclasses_at_module_level():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), (
                f"{path.name}:{node.lineno} imports dataclasses at module level"
            )


def test_every_public_name_is_the_object_its_module_defines():
    assert len(tensorforge.__all__) == len(set(tensorforge.__all__)) > 70
    for name in tensorforge.__all__:
        module = importlib.import_module(f"tensorforge.{tensorforge._EXPORTS[name]}")
        obj = getattr(tensorforge, name)
        assert obj is getattr(module, name), name
        if callable(obj):  # defined there, not re-exported from elsewhere
            assert obj.__module__ == module.__name__, name


def test_the_namespace_lists_every_public_name():
    assert set(tensorforge.__all__) <= set(dir(tensorforge))
    assert tensorforge.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        tensorforge.no_such_name
    with pytest.raises(ImportError):
        exec("from tensorforge import no_such_name", {})
