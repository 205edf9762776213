"""Lint: every module of the package uses each name it imports, every
function it defines is referenced somewhere, and the one division is
`linalg._div`; one class holds the increasing-key rule of the stored maps."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tensorforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


ROOT = PACKAGE.parent.parent
SEARCHED = ("src", "tests", "perfbench")


def _docstrings(tree):
    """The string constants that open a module, class or function body."""
    bodies = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, bodies) and ast.get_docstring(node, clean=False) is not None
    }


def _references(tree):
    """Every name a file mentions outside a definition: names, attributes,
    imported names and identifiers inside string constants other than
    docstrings (`getattr` arguments, the dotted names the benchmark tracer
    wraps). A docstring that names a function does not use it."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).split(".")[-1]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            yield from re.findall(r"[A-Za-z_]\w*", node.value)


def test_every_function_is_referenced():
    counts = Counter()
    own = Counter()
    defs = []
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            counts.update(_references(tree))
            if PACKAGE not in path.parents:
                continue
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name.startswith("__") and node.name.endswith("__"):
                        continue
                    defs.append((path.name, node))
                    # a recursive call is not a use
                    own[node.name] += sum(
                        1 for r in _references(node) if r == node.name
                    )
    unused = sorted(
        f"{name}:{node.lineno} {node.name}"
        for name, node in defs
        if counts[node.name] - own[node.name] <= 0
    )
    assert not unused, "functions referenced nowhere: " + ", ".join(unused)


def test_only_linalg_reads_matrix_storage():
    """A Matrix's storage format stays behind linalg: no other module of the
    package reads its private slots; they use the Matrix methods."""
    from tensorforge.linalg import Matrix

    storage = {name for name in Matrix.__slots__ if name.startswith("_")}
    assert storage, "Matrix keeps its storage in a private slot"
    readers = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in storage
    ]
    assert not readers, "Matrix storage read outside linalg: " + ", ".join(readers)


def test_only_linalg_reads_scalar_parts():
    """Clearing denominators stays behind linalg: no other module reads a
    scalar's `.numerator` or `.denominator`, except schema's emission of an
    integral scalar as a JSON int."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for fn in tree.body
            if path.name == "schema.py"
            and isinstance(fn, ast.FunctionDef)
            and fn.name == "_emit_scalar"
            for node in ast.walk(fn)
        }
        readers += [
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("numerator", "denominator")
            and id(node) not in allowed
        ]
    assert not readers, "scalar parts read outside linalg: " + ", ".join(readers)


def test_the_one_division_is_linalg_div():
    """`/` on two ints gives a float, and scalars are ints where they are
    integral, so every quotient goes through `linalg._div`, which keeps it
    exact: no other `/` or `/=` appears in the package."""
    found, exempt = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for fn in tree.body
            if path.name == "linalg.py"
            and isinstance(fn, ast.FunctionDef)
            and fn.name == "_div"
            for node in ast.walk(fn)
        }
        exempt += bool(allowed)
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)
            and id(node) not in allowed
        ]
    assert exempt == 1, "linalg defines the one division, _div"
    assert not found, "division outside linalg._div: " + ", ".join(found)


def _sites(tree, wanted):
    """The dotted name of the function or class around every node of `tree`
    that `wanted` accepts, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if wanted(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def _raises_precondition(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "PreconditionError"


def _calls_refuse(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "refuse"
    )


def test_refusals_go_through_report():
    """A checker refuses through `Report.gate` and a builder raises through
    `Report.require`. Two refusals stand apart: `actions.check_net_hom`
    shows both bracket-preservation reports when either fails, and the work
    budget of `CochainComplex.delta_matrix` has no gate report to carry."""
    raises, refusals = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        raises += [f"{path.stem}.{s}" for s in _sites(tree, _raises_precondition)]
        refusals += [f"{path.stem}.{s}" for s in _sites(tree, _calls_refuse)]
    assert raises == [
        "cohomology.CochainComplex.delta_matrix",
        "report.Report.require",
    ], "PreconditionError raised by hand: " + ", ".join(raises)
    outside = [site for site in refusals if not site.startswith("report.")]
    assert outside == ["actions.check_net_hom"], (
        "refuse called by hand: " + ", ".join(outside)
    )


def test_one_sign_rule_for_the_stored_maps():
    """`multilinear._Multilinear` recovers every key order of a stored map,
    with its permutation sign, and evaluates it; it is the only class that
    defines `expand_ordered`, and no class built on it defines any of
    `value`, `eval` or `expand_ordered` again."""
    bases, defines = {}, {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                name = f"{path.stem}.{cls.name}"
                bases[cls.name] = {b.id for b in cls.bases if isinstance(b, ast.Name)}
                defines[name] = {
                    fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)
                }
    expanders = [name for name, fns in defines.items() if "expand_ordered" in fns]
    assert expanders == ["multilinear._Multilinear"], (
        "expand_ordered defined in: " + ", ".join(expanders)
    )
    built_on = {"_Multilinear"}
    while grown := {c for c, b in bases.items() if b & built_on} - built_on:
        built_on |= grown
    stored = {"TrilinearTable", "AlternatingTrilinearTable", "PairAction", "LieAlgebra"}
    assert stored <= built_on
    again = [
        f"{name}.{fn}"
        for name, fns in defines.items()
        if name.split(".")[1] in built_on - {"_Multilinear"}
        for fn in fns & {"value", "eval", "expand_ordered"}
    ]
    assert not again, "sign rule or evaluator defined again: " + ", ".join(again)
