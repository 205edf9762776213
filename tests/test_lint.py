"""Lint: every module of the package uses each name it imports, every
function it defines is referenced somewhere, and the one division is
`linalg._div`; one class holds the increasing-key rule of the stored maps,
and each basis rule (the space-name check, the shift to 1-based indices,
the walk of a matrix's columns into rows, the sign of a swapped wedge
pair, the shape check of a container, the printing of a law's values) has
one owner."""

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


def test_one_budget_constant():
    """One module of the package assigns the work budget, and the modules
    that refuse by it, `cohomology` and `schema`, import it from there."""
    owners, importers = [], set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                else []
            )
            owners += [
                f"{path.stem}.{t.id}"
                for t in targets
                if isinstance(t, ast.Name) and t.id.endswith("_BUDGET")
            ]
        importers |= {
            path.stem
            for name, _ in _imported(tree)
            if name.endswith("_BUDGET")
        }
    assert len(owners) == 1, "budget constants: " + ", ".join(owners)
    assert {"cohomology", "schema"} <= importers, sorted(importers)


def _calls(names):
    return lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in names
    )


def test_builders_emit_in_one_place():
    """Every builder command emits its document through one handler: one
    function of `cli.py` constructs a `Document`."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    builders = _sites(tree, _calls({"Document"}))
    assert len(set(builders)) == 1 and len(builders) == 1, (
        "Document constructed in: " + ", ".join(builders)
    )


def _asks_to_choose(node):
    return isinstance(node, ast.Constant) and "choose one with" in str(node.value)


def test_entries_are_picked_in_one_place():
    """`Document.resolve` picks every entry a command uses, by `--name` or a
    flag of its own and on a space where one applies: no other function of
    the package raises its `choose one with` message, and no function of
    `cli` reads an entry's `.space`."""
    choosers = {
        f"{path.stem}.{site}"
        for path in MODULES
        for site in _sites(ast.parse(path.read_text()), _asks_to_choose)
    }
    assert choosers == {"schema.Document.resolve"}, ", ".join(sorted(choosers))
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    readers = _sites(tree, lambda n: isinstance(n, ast.Attribute) and n.attr == "space")
    assert not readers, "spaces read in cli: " + ", ".join(readers)


def test_deformations_take_the_tensor_condition_from_one_expansion():
    """The orders of the tensor condition of T + tM come from
    `actions._order`: deformations builds none of their terms itself."""
    tree = ast.parse((PACKAGE / "deformations.py").read_text())
    sites = _sites(tree, _calls({"_bracket_of", "_action_of"}))
    assert not sites, "terms of the tensor condition built in: " + ", ".join(sites)


def test_the_complex_feeds_no_basis_family():
    """The induced representation and delta_0 are built from rho's columns
    and the L-bracket with the tensor fed in: no function of `cohomology`
    feeds a basis of L through `_bracket_of`, `_action_of` or
    `basis_vector`."""
    fed = {"_bracket_of", "_action_of", "basis_vector"}

    def feeds(node):
        if not isinstance(node, ast.Call):
            return False
        return getattr(node.func, "id", getattr(node.func, "attr", None)) in fed

    sites = _sites(ast.parse((PACKAGE / "cohomology.py").read_text()), feeds)
    assert not sites, "basis families fed in: " + ", ".join(sites)


def test_one_keyed_table_codec():
    """Every keyed table of a document, of vectors or of operators, is read
    by one codec: one function of schema calls `_parse_table`."""
    tree = ast.parse((PACKAGE / "schema.py").read_text())
    sites = set(_sites(tree, _calls({"_parse_table"})))
    assert len(sites) == 1, "_parse_table called from: " + ", ".join(sorted(sites))


def test_derivation_laws_take_their_tables_from_one_builder():
    """Every law that operators act as derivations is built by
    `multilinear._derivation`: each function that declares a fundamental
    identity (Jacobi's aside), a derivation law or the brace compatibility
    law calls it, and so does the witness check `_is_bracket_derivation`.
    The hand-written `_fundamental_terms` is gone."""
    laws = {"fundamental identity", "derivation law", "brace compatibility law"}
    declaring, callers = set(), set()
    for path in MODULES:
        text = path.read_text()
        assert "_fundamental_terms" not in text, path.name
        for fn in ast.walk(ast.parse(text, filename=str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            site, nodes = f"{path.stem}.{fn.name}", list(ast.walk(fn))
            if any(isinstance(n, ast.Constant) and n.value in laws for n in nodes):
                declaring.add(site)
            if any(map(_calls({"_derivation"}), nodes)):
                callers.add(site)
    assert declaring == {
        "actions.check_coherent_action",
        "algebras.check_3leibniz",
        "algebras.check_3lie",
        "algebras.check_3ll",
        "induced_lie.check_lie_coherent",
    }
    missing = declaring - callers
    assert not missing, "derivation laws built by hand in: " + ", ".join(sorted(missing))
    assert "deformations._is_bracket_derivation" in callers



def _raises_space_name_check(node):
    return isinstance(node, ast.Constant) and "both named" in str(node.value)


def test_the_space_name_check_lives_in_add_space():
    """`Document.add_space` keeps one space per name, when a document is
    parsed and when one is emitted: no other function raises its message."""
    tree = ast.parse((PACKAGE / "schema.py").read_text())
    sites = _sites(tree, _raises_space_name_check)
    assert sites == ["Document.add_space"], "space-name check in: " + ", ".join(sites)


SIZES = {"dim", "nrows", "ncols"}


def _raises_on_a_size(node):
    """`if ...x.dim... : raise InputError(...)`: a shape check by hand."""
    return (
        isinstance(node, ast.If)
        and any(
            isinstance(n, ast.Attribute) and n.attr in SIZES
            for c in ast.walk(node.test)
            if isinstance(c, ast.Compare)
            for n in ast.walk(c)
        )
        and any(
            isinstance(n, ast.Raise) and "InputError" in ast.unparse(n)
            for stmt in node.body
            for n in ast.walk(stmt)
        )
    )


def test_one_shape_rule_for_every_container():
    """Each container and table refuses a part of the wrong shape through
    `multilinear._fits`: no other function of the modules that define them
    raises on a comparison of `.dim`, `.nrows` or `.ncols`. The operand
    checks of `WedgePairBasis`, which compare two vectors, stand apart."""
    sites = [
        f"{name}.{site}"
        for name in ("algebras", "actions", "multilinear")
        for site in _sites(
            ast.parse((PACKAGE / f"{name}.py").read_text()), _raises_on_a_size
        )
        if not site.startswith("WedgePairBasis.")
    ]
    assert not sites, "shape checks by hand in: " + ", ".join(sites)


def _names(target):
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def _shifts_up(node):
    """`tuple(...)` over a generator whose element adds 1 to its variable."""
    if not (_calls({"tuple"})(node) and node.args):
        return False
    gen = node.args[0]
    if not isinstance(gen, ast.GeneratorExp):
        return False
    names = {name for g in gen.generators for name in _names(g.target)}
    return any(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Add)
        and getattr(n.left, "id", None) in names
        and getattr(n.right, "value", None) == 1
        for n in ast.walk(gen.elt)
    )


def test_one_function_shifts_indices_to_one_based():
    """Reports and error messages show basis tuples 1-based through
    `multilinear.one_based`: it is the one function that builds a tuple of
    indices plus one."""
    sites = [
        f"{path.stem}.{site}"
        for path in MODULES
        for site in _sites(ast.parse(path.read_text()), _shifts_up)
    ]
    assert sites == ["multilinear.one_based"], "1-based tuples in: " + ", ".join(sites)


def _walks_columns_into_rows(loop):
    """`for j, col in m._cols.items()` around a loop `for i, a in ...` that
    stores at [i][j] or at `.setdefault(i, ...)[j]`: the column storage read
    out row by row."""
    if not (
        isinstance(loop, ast.For)
        and ast.unparse(loop.iter).endswith("._cols.items()")
    ):
        return False
    j = _names(loop.target)[0]
    for inner in ast.walk(loop):
        if inner is loop or not isinstance(inner, ast.For):
            continue
        i = _names(inner.target)[0]
        row = re.compile(rf"(\[{i}\]|\.setdefault\({i}, .*\))\[{j}\]$")
        if any(
            isinstance(n, ast.Subscript)
            and isinstance(n.ctx, ast.Store)
            and row.search(ast.unparse(n))
            for n in ast.walk(inner)
        ):
            return True
    return False


def test_only_transpose_walks_columns_into_rows():
    """`Matrix` stores columns; `Matrix.transpose` is the one walk of that
    storage into rows, and the dense view and elimination's row dicts take
    their rows from it."""
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    sites = _sites(tree, _walks_columns_into_rows)
    assert sites == ["Matrix.transpose"], "columns walked in: " + ", ".join(sites)


def test_check_3lie_writes_no_signed_keys():
    """The sign of an alternating bracket's permuted keys lives in
    `multilinear._Multilinear`: `check_3lie` takes its ad table from
    `expand_ordered` and stores or negates nothing by hand."""
    tree = ast.parse((PACKAGE / "algebras.py").read_text())
    fn = next(f for f in tree.body if getattr(f, "name", None) == "check_3lie")
    hand = [
        f"line {n.lineno}"
        for n in ast.walk(fn)
        if (isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store))
        or (isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub))
    ]
    assert not hand, "check_3lie writes signed keys at " + ", ".join(hand)


def _signs(node):
    """The signs +1 and -1 that `node` writes as literals."""
    negated = {
        id(n.operand)
        for n in ast.walk(node)
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)
    }
    return {
        -1 if id(n) in negated else 1
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and type(n.value) is int and n.value == 1
    }


def _signs_by_order(node):
    """`... 1 ... if i < j else ... -1 ...`: a sign chosen by comparing two
    indices."""
    if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)):
        return False
    test, body, orelse = node.test, _signs(node.body), _signs(node.orelse)
    return (
        len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Lt, ast.Gt, ast.LtE, ast.GtE))
        and all(isinstance(n, ast.Name) for n in (test.left, *test.comparators))
        and (1 in body and -1 in orelse or -1 in body and 1 in orelse)
    )


def _stores_in_a_matrix(node):
    """`X[a][b] = ...`: a store into a nested subscript."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Subscript)
    )


@pytest.mark.parametrize("module", ["cohomology", "deformations"])
def test_wedge_coordinates_are_signed_in_one_place(module):
    """The sign of a swapped pair of wedge^2 lives in
    `WedgePairBasis.signed`, and the antisymmetric matrix of a 2-vector in
    `WedgePairBasis.column`: the complex and the deformations choose no
    sign by the order of two indices and build no dense matrix by hand."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    hand = sorted(
        n.lineno for n in ast.walk(tree) if _signs_by_order(n) or _stores_in_a_matrix(n)
    )
    assert not hand, f"wedge signs or dense matrices by hand in {module}.py at {hand}"


PRINTERS = {"format_vector", "format_matrix", "str"}


def _law_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "law"
    )


def _passes_a_printer(node):
    """A `.law(` call with `format_vector`, `format_matrix`, `str` or a
    `.zero()` call inside one of its arguments."""
    if not _law_call(node):
        return False
    args = [*node.args, *(k.value for k in node.keywords)]
    return any(
        (isinstance(n, ast.Name) and n.id in PRINTERS)
        or (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "zero"
        )
        for arg in args
        for n in ast.walk(arg)
    )


def _passes_show(node):
    return _law_call(node) and any(k.arg == "show" for k in node.keywords)


def test_law_values_are_printed_by_the_runner():
    """`Report.law` derives a law's zero and witness text from its `values`:
    no other module passes a printer or a `.zero()` to it, and only
    `actions.graph_check`, whose points are pairs, passes its own `show`."""
    printers, shows = [], []
    for path in MODULES:
        if path.stem == "report":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        printers += [f"{path.stem}.{s}" for s in _sites(tree, _passes_a_printer)]
        shows += [f"{path.stem}.{s}" for s in _sites(tree, _passes_show)]
    assert not printers, "law values printed by the caller in: " + ", ".join(printers)
    assert shows == ["actions.graph_check"], "show passed in: " + ", ".join(shows)


def _scope_of(node):
    """Whether a `.law(` call passes a `Scope(...)` call as its scope and
    neither a `keep=` nor a `where=`."""
    scope = node.args[1] if len(node.args) > 1 else None
    return (
        isinstance(scope, ast.Call)
        and isinstance(scope.func, ast.Name)
        and scope.func.id == "Scope"
        and not any(k.arg in ("keep", "where") for k in node.keywords)
    )


def _calls_comb(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "comb"


def test_every_law_declares_its_scope():
    """Every law declares the tuples it quantifies over once, as a `Scope`
    of slot groups, and `Report.law` derives from it the tuple count, the
    keys in scope and the witness labels: no call passes its own, and
    `comb` is called only by `report` and by the work estimate of the
    cochain complex."""
    loose, combs = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        loose += [
            f"{path.stem}.{s}"
            for s in _sites(tree, lambda n: _law_call(n) and not _scope_of(n))
        ]
        if path.stem != "report":
            combs += [f"{path.stem}.{s}" for s in _sites(tree, _calls_comb)]
    assert not loose, "laws without a declared scope in: " + ", ".join(loose)
    called = ", ".join(combs)
    assert combs == ["cohomology.CochainComplex._work"], "comb called in: " + called
