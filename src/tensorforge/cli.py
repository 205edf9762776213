"""Command-line interface.

Every command reads one document, resolves the structure it needs (by
``--name`` when the document declares several of that kind), and either
prints a check report or emits a derived document.  Exit statuses: 0 all
checks passed, 1 some law failed (witnesses printed), 2 malformed input,
3 a precondition was refused, 4 an internal error (one line on stderr, no
traceback), 130 interrupted.

A command imports the modules it runs when it runs. At start-up this module
loads only the document reader and what it needs, and the reader builds
every kind of entry without a law module; the parser builds the subparser
of the command given and no other. So a command compiles only the laws it
runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module

from .errors import InputError, PreconditionError
from .linalg import rat
from .multilinear import format_matrix
from .schema import Document, emit_document, load_document


def __getattr__(name):
    """The package's public names read on this module, such as
    `cli.check_net`: each is what its defining module holds at the time of
    the access, which is what a command runs."""
    from . import _EXPORTS

    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __package__), name)


def _parse_param_flags(values) -> dict:
    out = {}
    for item in values or ():
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise InputError(
                f"--param expects NAME=RATIONAL, got {item!r}"
            )
        out[name] = rat(raw)
    return out


def _load(args) -> Document:
    return load_document(args.file, _parse_param_flags(args.param))


def _witness_cap(args):
    if args.all_witnesses:
        return None
    if args.max_witnesses < 0:
        raise InputError(
            f"--max-witnesses must be at least 0, got {args.max_witnesses}"
        )
    return args.max_witnesses


def _print_report(rep, args) -> int:
    cap = _witness_cap(args)
    if args.json:
        print(json.dumps(rep.to_json(cap), indent=2))
    else:
        print(rep.render_text(cap))
    return rep.exit_status


def _emit_output(doc: Document, args) -> int:
    text = emit_document(doc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            raise InputError(f"cannot write {args.out}: {reason}") from None
    else:
        sys.stdout.write(text)
    return 0


def _trace_on_space(doc: Document, space, name, flag: str):
    if name is not None:
        trace = doc.resolve("traces", name, flag)
        if trace.space != space:
            raise InputError(
                f"trace {name!r} lives on space {trace.space.name!r}, "
                f"but {space.name!r} is needed"
            )
        return trace
    matching = {
        known: t
        for known, t in doc.entries["traces"].items()
        if t.space == space
    }
    if not matching:
        raise InputError(
            f"the document declares no trace on space {space.name!r}"
        )
    if len(matching) > 1:
        raise InputError(
            f"{len(matching)} traces live on space {space.name!r}; "
            f"choose one with {flag}: " + ", ".join(sorted(matching))
        )
    return next(iter(matching.values()))


# --- check commands ---------------------------------------------------------


def _check(kind: str, module: str, check: str):
    """The handler of a command that runs the checker `check` of `module` on
    an entry of `kind`. It looks the checker up in its module when it runs,
    so that rebinding it there (the tests and the perfbench tracer do)
    reaches the command."""

    def handler(args) -> int:
        doc = _load(args)
        checker = getattr(import_module(f".{module}", __package__), check)
        return _print_report(checker(doc.resolve(kind, args.name)), args)

    return handler


def _cmd_check_net(args) -> int:
    from .actions import check_net

    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    return _print_report(check_net(problem, mode=args.triples), args)


def _cmd_check_trace(args) -> int:
    from .algebras import LeibnizLieAlgebra
    from .induced_lie import check_trace

    doc = _load(args)
    trace = doc.resolve("traces", args.name)
    candidates = {}
    for kind in ("lie", "leibniz_lie"):
        for name, obj in doc.entries[kind].items():
            if obj.space == trace.space:
                candidates[(kind, name)] = obj
    # A Leibniz-Lie entry subsumes the check of its own underlying bracket.
    subsumed = {
        id(obj.lie)
        for obj in candidates.values()
        if isinstance(obj, LeibnizLieAlgebra)
    }
    candidates = {
        key: obj
        for key, obj in candidates.items()
        if not (key[0] == "lie" and id(obj) in subsumed)
    }
    if args.algebra is not None:
        candidates = {
            key: obj for key, obj in candidates.items() if key[1] == args.algebra
        }
        if not candidates:
            raise InputError(
                f"no Lie or Leibniz-Lie entry named {args.algebra!r} "
                f"on space {trace.space.name!r}"
            )
    if not candidates:
        raise InputError(
            f"the document declares no Lie or Leibniz-Lie algebra "
            f"on space {trace.space.name!r}"
        )
    if len(candidates) > 1:
        names = ", ".join(sorted(name for _, name in candidates))
        raise InputError(
            f"several algebras live on space {trace.space.name!r}; "
            f"choose one with --algebra: {names}"
        )
    algebra = next(iter(candidates.values()))
    return _print_report(check_trace(trace, algebra), args)


def _cmd_deform_check(args) -> int:
    from .deformations import check_higher_order, check_infinitesimal

    doc = _load(args)
    deformation = doc.resolve("deformations", args.name)
    rep = check_infinitesimal(deformation)
    if args.higher_order:
        rep.absorb(check_higher_order(deformation), "higher order")
    return _print_report(rep, args)


def _cmd_deform_equiv(args) -> int:
    from .deformations import are_equivalent

    doc = _load(args)
    registry = doc.entries["deformations"]
    first, second = args.first, args.second
    if first is None and second is None and len(registry) == 2:
        first, second = sorted(registry)
    d1 = doc.resolve("deformations", first, "--first")
    d2 = doc.resolve("deformations", second, "--second")
    if d1 is d2:
        raise InputError(
            "the same direction was selected twice; "
            "use --first and --second to pick two entries"
        )
    _, _, rep = are_equivalent(d1, d2)
    return _print_report(rep, args)


# --- cohomology and classification -------------------------------------------


def _parse_degrees(raw: str) -> list[int]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part.isdecimal() or int(part) < 1:
            raise InputError(
                f"--degrees expects a comma-separated list of degrees >= 1, "
                f"got {raw!r}"
            )
        out.append(int(part))
    return out


def _cmd_cohomology(args) -> int:
    from .cohomology import _complex_of

    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    degrees = _parse_degrees(args.degrees)
    complex_ = _complex_of(problem)
    rows = []
    for n in degrees:
        z, b, h = complex_.cohomology_dims(n)
        rows.append(
            {
                "degree": n,
                "cochains": complex_.cochain_dim(n),
                "cocycles": z,
                "coboundaries": b,
                "classes": h,
            }
        )
    if args.json:
        print(json.dumps({"cohomology": rows}, indent=2))
        return 0
    header = ("degree", "cochains", "cocycles", "coboundaries", "classes")
    table = [header] + [
        tuple(str(row[key]) for key in header) for row in rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    print("cohomology dimensions")
    for line in table:
        print("  " + "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
    return 0


def _cmd_classify(args) -> int:
    from .deformations import classify

    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    result = classify(problem)
    if args.json:
        print(
            json.dumps(
                {
                    "cocycle_dim": result.cocycle_dim,
                    "coboundary_dim": result.coboundary_dim,
                    "class_dim": result.class_dim,
                    "representatives": [
                        [[str(c) for c in row] for row in lm.matrix.rows]
                        for lm in result.representatives
                    ],
                },
                indent=2,
            )
        )
        return 0
    print("first-order deformation classes")
    print(f"  valid directions (cocycles): {result.cocycle_dim}")
    print(f"  trivial directions (coboundaries): {result.coboundary_dim}")
    print(f"  independent classes: {result.class_dim}")
    for pos, lm in enumerate(result.representatives, start=1):
        print(f"  representative {pos}: {format_matrix(lm.matrix)}")
    return 0


# --- builder commands ---------------------------------------------------------


def _cmd_hemisemidirect(args) -> int:
    from .actions import hemisemidirect

    doc = _load(args)
    action = doc.resolve("actions", args.name)
    combined = hemisemidirect(action)
    out = Document(title="hemisemidirect product")
    out.add("three_leibniz", "hemisemidirect", combined)
    return _emit_output(out, args)


def _cmd_descendent(args) -> int:
    from .actions import descendent

    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    derived = descendent(problem)
    out = Document(title="descendent bracket")
    out.add("three_leibniz", "descendent", derived)
    return _emit_output(out, args)


def _cmd_induce_3ll(args) -> int:
    from .actions import induced_3ll

    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    derived = induced_3ll(problem)
    out = Document(title="induced bracket-and-braces structure")
    out.add("three_lie", "carrier_bracket", derived.lie3)
    out.add("three_leibniz_lie", "induced_structure", derived)
    return _emit_output(out, args)


def _cmd_induced_rep(args) -> int:
    from .cohomology import induced_rep

    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    derived = induced_rep(problem)
    out = Document(title="induced representation on the target algebra")
    out.add("three_leibniz", "descendent", derived.algebra)
    out.add("three_leibniz_reps", "induced_rep", derived)
    return _emit_output(out, args)


def _cmd_lie_to_3lie(args) -> int:
    from .induced_lie import threelie_from_lie

    doc = _load(args)
    algebra = doc.resolve("lie", args.name)
    trace = _trace_on_space(doc, algebra.space, args.trace, "--trace")
    derived = threelie_from_lie(algebra, trace)
    out = Document(title="ternary bracket induced by a trace")
    out.add("three_lie", "ternary", derived)
    return _emit_output(out, args)


def _cmd_rho_sigma(args) -> int:
    from .algebras import CoherentActionData, RepresentationData
    from .induced_lie import check_lie_coherent, rho_sigma, threelie_from_lie

    doc = _load(args)
    action = doc.resolve("lie_actions", args.name)
    check_lie_coherent(action).require("the binary action is not coherent")
    trace_l = _trace_on_space(doc, action.lie.space, args.trace_l, "--trace-l")
    trace_h = _trace_on_space(
        doc, action.carrier.space, args.trace_h, "--trace-h"
    )
    acting = threelie_from_lie(action.lie, trace_l)
    carrier3 = threelie_from_lie(action.carrier, trace_h)
    pair_action = rho_sigma(action, trace_l)
    rep_data = RepresentationData(acting, action.carrier.space, pair_action)
    coherent = CoherentActionData(rep_data, carrier3.bracket)
    out = Document(title="pair action induced by traces")
    out.add("three_lie", "acting_algebra", acting)
    out.add("representations", "induced_representation", rep_data)
    out.add("actions", "induced_action", coherent)
    return _emit_output(out, args)


def _cmd_lift_net(args) -> int:
    from .induced_lie import lift_net

    doc = _load(args)
    net = doc.resolve("lie_nets", args.name)
    trace_l = _trace_on_space(doc, net.action.lie.space, args.trace_l, "--trace-l")
    trace_h = _trace_on_space(
        doc, net.action.carrier.space, args.trace_h, "--trace-h"
    )
    problem = lift_net(net, trace_l, trace_h)
    out = Document(title="ternary embedding tensor lifted along traces")
    out.add("three_lie", "acting_algebra", problem.action.algebra)
    out.add("representations", "induced_representation", problem.action.rep)
    out.add("actions", "induced_action", problem.action)
    out.add("nets", "lifted_tensor", problem)
    return _emit_output(out, args)


def _cmd_leibnizlie_to_3ll(args) -> int:
    from .induced_lie import three_ll_from_leibniz_lie

    doc = _load(args)
    algebra = doc.resolve("leibniz_lie", args.name)
    trace = _trace_on_space(doc, algebra.space, args.trace, "--trace")
    derived = three_ll_from_leibniz_lie(algebra, trace)
    out = Document(title="ternary structure induced by a trace")
    out.add("three_lie", "ternary_bracket", derived.lie3)
    out.add("three_leibniz_lie", "induced_structure", derived)
    return _emit_output(out, args)


def _cmd_emit(args) -> int:
    doc = _load(args)
    return _emit_output(doc, args)


# --- parser ------------------------------------------------------------------


_TRACE_PAIR = (
    ("--trace-l", {"help": "trace on the acting algebra"}),
    ("--trace-h", {"help": "trace on the carrier algebra"}),
)

# command -> (help, output, handler, the options of its own as (flag,
# keywords)...), in the order the help lists them. The output is a law
# "report" with witnesses, a "table" of numbers, or a "document".
_COMMANDS = {
    "check-3lie": (
        "verify the alternating ternary bracket laws", "report",
        _check("three_lie", "algebras", "check_3lie")),
    "check-3leibniz": (
        "verify the ternary Leibniz identity", "report",
        _check("three_leibniz", "algebras", "check_3leibniz")),
    "check-lie": (
        "verify antisymmetry and the Jacobi identity", "report",
        _check("lie", "algebras", "check_lie")),
    "check-leibniz-lie": (
        "verify the binary bracket-and-product laws", "report",
        _check("leibniz_lie", "algebras", "check_leibniz_lie")),
    "check-3ll": (
        "verify the ternary bracket-and-braces laws", "report",
        _check("three_leibniz_lie", "algebras", "check_3ll")),
    "check-rep": (
        "verify the pair-operator representation laws", "report",
        _check("representations", "actions", "check_representation")),
    "check-action": (
        "verify the coherent action laws", "report",
        _check("actions", "actions", "check_coherent_action")),
    "check-rep-3leibniz": (
        "verify the three-operator representation laws", "report",
        _check("three_leibniz_reps", "algebras", "check_3leibniz_rep")),
    "check-lie-action": (
        "verify the binary coherent action laws", "report",
        _check("lie_actions", "induced_lie", "check_lie_coherent")),
    "check-lie-net": (
        "verify the binary embedding-tensor condition", "report",
        _check("lie_nets", "induced_lie", "check_lie_net")),
    "graph-check": (
        "verify closure of the tensor's graph in the combined bracket", "report",
        _check("nets", "actions", "graph_check")),
    "check-net": (
        "verify the ternary embedding-tensor condition", "report",
        _cmd_check_net,
        ("--triples", {"choices": ("all", "increasing"), "default": "all",
                       "help": "basis triples to test (default: all ordered)"})),
    "check-trace": (
        "verify that a functional kills all products", "report",
        _cmd_check_trace,
        ("--algebra", {"help": "which algebra to test against"})),
    "deform-check": (
        "verify a first-order deformation direction", "report",
        _cmd_deform_check,
        ("--higher-order", {"action": "store_true",
                            "help": "also test the order-2 and order-3 conditions"})),
    "deform-equiv": (
        "decide whether two directions differ trivially", "report",
        _cmd_deform_equiv,
        ("--first", {"help": "name of the first direction"}),
        ("--second", {"help": "name of the second direction"})),
    "cohomology": (
        "dimensions of cocycles, coboundaries, and classes", "table",
        _cmd_cohomology,
        ("--degrees", {"default": "1,2", "metavar": "LIST",
                       "help": "comma-separated degrees (default 1,2)"})),
    "classify": (
        "count and exhibit first-order deformation classes", "table",
        _cmd_classify),
    "hemisemidirect": (
        "combined ternary bracket on the sum of the two spaces", "document",
        _cmd_hemisemidirect),
    "descendent": (
        "ternary Leibniz bracket induced on the carrier", "document",
        _cmd_descendent),
    "induce-3ll": (
        "bracket-and-braces structure induced on the carrier", "document",
        _cmd_induce_3ll),
    "induced-rep": (
        "representation induced on the target algebra", "document",
        _cmd_induced_rep),
    "emit": (
        "re-serialize a document in canonical form", "document",
        _cmd_emit),
    "lie-to-3lie": (
        "ternary bracket induced by a trace", "document",
        _cmd_lie_to_3lie,
        ("--trace", {"help": "which trace to use"})),
    "rho-sigma": (
        "ternary pair action induced by traces", "document",
        _cmd_rho_sigma, *_TRACE_PAIR),
    "lift-net": (
        "lift a binary embedding tensor to a ternary one", "document",
        _cmd_lift_net, *_TRACE_PAIR),
    "leibnizlie-to-3ll": (
        "ternary bracket-and-braces from a trace", "document",
        _cmd_leibnizlie_to_3ll,
        ("--trace", {"help": "which trace to use"})),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. For a known `command` it builds that
    command's subparser alone, and otherwise every one, so that the help and
    the errors about a missing or unknown command list them all."""
    parser = argparse.ArgumentParser(
        prog="tensorforge",
        description=(
            "Exact checks and constructions for ternary algebras, "
            "coherent actions, and embedding tensors."
        ),
    )
    one = command in _COMMANDS
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        # the usage of a one-command parser names every command all the same
        metavar="{" + ",".join(_COMMANDS) + "}" if one else None,
    )
    for name in [command] if one else _COMMANDS:
        help_text, output, handler, *options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input document (JSON)")
        p.add_argument(
            "--param",
            action="append",
            metavar="NAME=RATIONAL",
            help="override a document parameter (repeatable)",
        )
        p.add_argument("--name", help="which entry to use, when several exist")
        if output == "document":
            p.add_argument("--out", help="write the document here instead of stdout")
        else:
            p.add_argument(
                "--json", action="store_true", help="machine-readable report"
            )
        if output == "report":
            p.add_argument(
                "--max-witnesses",
                type=int,
                default=20,
                metavar="N",
                help="failing tuples shown per law (default 20)",
            )
            p.add_argument(
                "--all-witnesses",
                action="store_true",
                help="show every failing tuple",
            )
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if hasattr(args, "max_witnesses"):
            _witness_cap(args)  # reject a bad cap before any work
        return args.handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.render_text(), file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
