"""Command-line interface.

Every command reads one document, resolves the structures it needs through
``Document.resolve``, and either prints a check report or emits a derived
document.  Exit statuses: 0 all checks passed, 1 some law failed, 2
malformed input, 3 a precondition was refused, 4 an internal error (one
line on stderr, no traceback), 130 interrupted, 141 standard output closed
by its reader (as if killed by SIGPIPE). Any other failed write to standard
output, of a report, a document or the help, is status 2, as a failed
``--out`` is; a failed write to standard error changes no status.

A command imports the modules it runs when it runs. At start-up this module
loads only the document reader and what it needs, and the reader builds
every kind of entry without a law module; the parser builds the subparser
of the command given and no other. So a command compiles only the laws it
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from importlib import import_module
from operator import attrgetter

from .errors import InputError, PreconditionError
from .linalg import fmt_rat
from .multilinear import format_matrix
from .schema import Document, _positive, emit_document, load_document


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
            raise InputError(f"--param expects NAME=RATIONAL, got {item!r}")
        out[name] = raw  # read as a document scalar by parse_document
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


def _write(text: str, path: str | None = None):
    """Write text to the file at path, or else to standard output, flushed:
    every command writes through here. A pipe whose reader has gone raises
    BrokenPipeError, for `main`, and any other failure is an input error.
    What standard output still buffers then goes to the null device, so
    that the flush at exit cannot fail."""
    if not path and sys.stdout is None:  # closed when the program started
        raise InputError("cannot write standard output: it is closed")
    try:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not path:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            if isinstance(exc, BrokenPipeError):
                raise
        where = path or "standard output"
        raise InputError(f"cannot write {where}: {exc.strerror or exc}") from None


def _print_report(rep, args) -> int:
    cap = _witness_cap(args)
    text = json.dumps(rep.to_json(cap), indent=2) if args.json else rep.render_text(cap)
    _write(text + "\n")
    return rep.exit_status


# --- check and builder commands ------------------------------------------------


def _run(kind=None, module=None, function=None, title=None, outputs=(), picks=(),
         **options):
    """The handler of a check or builder command. It runs `function` of
    `module`, looked up when it runs so that rebinding it there (the tests
    and the perfbench tracer do) reaches the command, on the entry of `kind`
    that `--name` picks and on the entry each `(kinds, flag, path)` of
    `picks` picks on the space at `path` of that entry. Each keyword of
    `options` passes the value of the option it names (`mode="triples"`
    passes `--triples` as `mode`). Without a `title` it prints the report;
    with one it emits a document so titled holding, for each `(kind, name,
    path)` of `outputs`, the result's attribute at `path` ("" for the
    result). Without a `kind` it emits the document it read."""

    def handler(args) -> int:
        doc = _load(args)
        if kind is not None:
            entry = doc.resolve(kind, args.name)
            picked = [
                doc.resolve(kinds, getattr(args, flag[2:].replace("-", "_")), flag,
                            attrgetter(path)(entry))
                for kinds, flag, path in picks
            ]
            run = getattr(import_module(f".{module}", __package__), function)
            keywords = {key: getattr(args, dest) for key, dest in options.items()}
            result = run(entry, *picked, **keywords)
            if title is None:
                return _print_report(result, args)
            doc = Document(title)
            for out_kind, name, path in outputs:
                doc.add(out_kind, name, attrgetter(path)(result) if path else result)
        _write(emit_document(doc), args.out)
        return 0

    return handler


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
    degrees = [_positive(part) for part in raw.split(",")]
    if None in degrees:
        raise InputError(
            f"--degrees expects a comma-separated list of degrees >= 1, "
            f"got {raw!r}"
        )
    return degrees


def _cmd_cohomology(args) -> int:
    from .cohomology import _complex_of

    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    degrees = _parse_degrees(args.degrees)
    complex_ = _complex_of(problem)
    header = ("degree", "cochains", "cocycles", "coboundaries", "classes")
    rows = []
    for n in degrees:
        z, b, h = complex_.cohomology_dims(n)
        rows.append(dict(zip(header, (n, complex_.cochain_dim(n), z, b, h))))
    if args.json:
        _write(json.dumps({"cohomology": rows}, indent=2) + "\n")
        return 0
    table = [header] + [tuple(str(row[key]) for key in header) for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    out = ["cohomology dimensions"] + [
        "  " + "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line))
        for line in table
    ]
    _write("\n".join(out) + "\n")
    return 0


def _cmd_classify(args) -> int:
    from .deformations import classify

    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    result = classify(problem)
    if args.json:
        doc = {
            "cocycle_dim": result.cocycle_dim,
            "coboundary_dim": result.coboundary_dim,
            "class_dim": result.class_dim,
            "representatives": [
                [[fmt_rat(c) for c in row] for row in lm.matrix.rows]
                for lm in result.representatives
            ],
        }
        _write(json.dumps(doc, indent=2) + "\n")
        return 0
    out = [
        "first-order deformation classes",
        f"  valid directions (cocycles): {result.cocycle_dim}",
        f"  trivial directions (coboundaries): {result.coboundary_dim}",
        f"  independent classes: {result.class_dim}",
    ] + [
        f"  representative {pos}: {format_matrix(lm.matrix)}"
        for pos, lm in enumerate(result.representatives, start=1)
    ]
    _write("\n".join(out) + "\n")
    return 0


# --- parser ------------------------------------------------------------------


_TRACE = ("--trace", {"help": "which trace to use"})
_TRACE_PAIR = (
    ("--trace-l", {"help": "trace on the acting algebra"}),
    ("--trace-h", {"help": "trace on the carrier algebra"}),
)

# command -> (help, output, handler, the options of its own as (flag,
# keywords)...), in the order the help lists them. The output is a law
# "report" with witnesses, a "table" of numbers, or a "document". A check
# or builder command's handler is a `_run` of its entry kind, module and
# function; a builder's adds the title and the output entries.
_COMMANDS = {
    "check-3lie": (
        "verify the alternating ternary bracket laws", "report",
        _run("three_lie", "algebras", "check_3lie")),
    "check-3leibniz": (
        "verify the ternary Leibniz identity", "report",
        _run("three_leibniz", "algebras", "check_3leibniz")),
    "check-lie": (
        "verify antisymmetry and the Jacobi identity", "report",
        _run("lie", "algebras", "check_lie")),
    "check-leibniz-lie": (
        "verify the binary bracket-and-product laws", "report",
        _run("leibniz_lie", "algebras", "check_leibniz_lie")),
    "check-3ll": (
        "verify the ternary bracket-and-braces laws", "report",
        _run("three_leibniz_lie", "algebras", "check_3ll")),
    "check-rep": (
        "verify the pair-operator representation laws", "report",
        _run("representations", "actions", "check_representation")),
    "check-action": (
        "verify the coherent action laws", "report",
        _run("actions", "actions", "check_coherent_action")),
    "check-rep-3leibniz": (
        "verify the three-operator representation laws", "report",
        _run("three_leibniz_reps", "algebras", "check_3leibniz_rep")),
    "check-lie-action": (
        "verify the binary coherent action laws", "report",
        _run("lie_actions", "induced_lie", "check_lie_coherent")),
    "check-lie-net": (
        "verify the binary embedding-tensor condition", "report",
        _run("lie_nets", "induced_lie", "check_lie_net")),
    "graph-check": (
        "verify closure of the tensor's graph in the combined bracket", "report",
        _run("nets", "actions", "graph_check")),
    "check-net": (
        "verify the ternary embedding-tensor condition", "report",
        _run("nets", "actions", "check_net", mode="triples"),
        ("--triples", {"choices": ("all", "increasing"), "default": "all",
                       "help": "basis triples to test (default: all ordered)"})),
    "check-trace": (
        "verify that a functional kills all products", "report",
        _run("traces", "induced_lie", "check_trace",
             picks=[(("lie", "leibniz_lie"), "--algebra", "space")]),
        ("--algebra", {"help": "which algebra to test against"})),
    "deform-check": (
        "verify a first-order deformation direction", "report",
        _run("deformations", "deformations", "check_infinitesimal",
             higher_order="higher_order"),
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
        _run("actions", "actions", "hemisemidirect", "hemisemidirect product",
             [("three_leibniz", "hemisemidirect", "")])),
    "descendent": (
        "ternary Leibniz bracket induced on the carrier", "document",
        _run("nets", "actions", "descendent", "descendent bracket",
             [("three_leibniz", "descendent", "")])),
    "induce-3ll": (
        "bracket-and-braces structure induced on the carrier", "document",
        _run("nets", "actions", "induced_3ll",
             "induced bracket-and-braces structure",
             [("three_lie", "carrier_bracket", "lie3"),
              ("three_leibniz_lie", "induced_structure", "")])),
    "induced-rep": (
        "representation induced on the target algebra", "document",
        _run("nets", "cohomology", "induced_rep",
             "induced representation on the target algebra",
             [("three_leibniz", "descendent", "algebra"),
              ("three_leibniz_reps", "induced_rep", "")])),
    "emit": (
        "re-serialize a document in canonical form", "document",
        _run()),
    "lie-to-3lie": (
        "ternary bracket induced by a trace", "document",
        _run("lie", "induced_lie", "threelie_from_lie",
             "ternary bracket induced by a trace",
             [("three_lie", "ternary", "")], [("traces", "--trace", "space")]),
        _TRACE),
    "rho-sigma": (
        "ternary pair action induced by traces", "document",
        _run("lie_actions", "induced_lie", "_lift_action",
             "pair action induced by traces",
             [("three_lie", "acting_algebra", "algebra"),
              ("representations", "induced_representation", "rep"),
              ("actions", "induced_action", "")],
             [("traces", "--trace-l", "lie.space"),
              ("traces", "--trace-h", "carrier.space")]),
        *_TRACE_PAIR),
    "lift-net": (
        "lift a binary embedding tensor to a ternary one", "document",
        _run("lie_nets", "induced_lie", "lift_net",
             "ternary embedding tensor lifted along traces",
             [("three_lie", "acting_algebra", "action.algebra"),
              ("representations", "induced_representation", "action.rep"),
              ("actions", "induced_action", "action"),
              ("nets", "lifted_tensor", "")],
             [("traces", "--trace-l", "action.lie.space"),
              ("traces", "--trace-h", "action.carrier.space")]),
        *_TRACE_PAIR),
    "leibnizlie-to-3ll": (
        "ternary bracket-and-braces from a trace", "document",
        _run("leibniz_lie", "induced_lie", "three_ll_from_leibniz_lie",
             "ternary structure induced by a trace",
             [("three_lie", "ternary_bracket", "lie3"),
              ("three_leibniz_lie", "induced_structure", "")],
             [("traces", "--trace", "space")]),
        _TRACE),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose help is written as a command's output is, so
    that a help that cannot be written is an error and not lost."""

    def print_help(self, file=None):
        _write(self.format_help())


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. For a known `command` it builds that
    command's subparser alone, and otherwise every one, so that the help and
    the errors about a missing or unknown command list them all."""
    parser = _Parser(
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
        p.add_argument("--param", action="append", metavar="NAME=RATIONAL",
                       help="override a document parameter (repeatable)")
        p.add_argument("--name", help="which entry to use, when several exist")
        if output == "document":
            p.add_argument("--out", help="write the document here instead of stdout")
        else:
            p.add_argument("--json", action="store_true",
                           help="machine-readable report")
        if output == "report":
            p.add_argument("--max-witnesses", type=int, default=20, metavar="N",
                           help="failing tuples shown per law (default 20)")
            p.add_argument("--all-witnesses", action="store_true",
                           help="show every failing tuple")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def _say(text: str):
    """Write a line to standard error. A failed write, to a closed or full
    stream, is let go: the exit status tells the outcome all the same."""
    with suppress(AttributeError, OSError):  # a stream closed at start is None
        sys.stderr.write(text + "\n")
        sys.stderr.flush()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        if hasattr(args, "max_witnesses"):
            _witness_cap(args)  # reject a bad cap before any work
        return args.handler(args)
    except BrokenPipeError:
        return 141
    except InputError as exc:
        _say(f"input error: {exc}")
        return 2
    except PreconditionError as exc:
        _say(f"refused: {exc}")
        if exc.report is not None:
            _say(exc.report.render_text())
        return 3
    except KeyboardInterrupt:
        _say("interrupted")
        return 130
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        _say(f"internal error: {type(exc).__name__}: {message}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
