"""Command-line interface.

Every command reads one document, resolves the structure it needs (by
``--name`` when the document declares several of that kind), and either
prints a check report or emits a derived document.  Exit statuses: 0 all
checks passed, 1 some law failed (witnesses printed), 2 malformed input,
3 a precondition was refused, 4 an internal error (one line on stderr, no
traceback), 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .actions import (
    CoherentActionData,
    RepresentationData,
    check_coherent_action,
    check_net,
    check_representation,
    descendent,
    graph_check,
    hemisemidirect,
    induced_3ll,
)
from .algebras import (
    LeibnizLieAlgebra,
    check_3leibniz,
    check_3lie,
    check_3ll,
    check_leibniz_lie,
    check_lie,
)
from .cohomology import _complex_of, check_3leibniz_rep, induced_rep
from .deformations import (
    are_equivalent,
    check_higher_order,
    check_infinitesimal,
    classify,
)
from .errors import InputError, PreconditionError
from .induced_lie import (
    check_lie_coherent,
    check_lie_net,
    check_trace,
    lift_net,
    rho_sigma,
    three_ll_from_leibniz_lie,
    threelie_from_lie,
)
from .linalg import rat
from .multilinear import format_matrix
from .schema import Document, emit_document, load_document


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
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
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


def _cmd_check(kind: str, check, args) -> int:
    doc = _load(args)
    return _print_report(check(doc.resolve(kind, args.name)), args)


def _cmd_check_net(args) -> int:
    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    return _print_report(check_net(problem, mode=args.triples), args)


def _cmd_check_trace(args) -> int:
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
    doc = _load(args)
    deformation = doc.resolve("deformations", args.name)
    rep = check_infinitesimal(deformation)
    if args.higher_order:
        extra = check_higher_order(deformation)
        rep.absorb(extra, "higher order")
        if extra.refused and not rep.refused:
            rep.refuse(extra.refusal_reason)
    return _print_report(rep, args)


def _cmd_deform_equiv(args) -> int:
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
    if not out:
        raise InputError("--degrees must name at least one degree")
    return out


def _cmd_cohomology(args) -> int:
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
    doc = _load(args)
    action = doc.resolve("actions", args.name)
    combined = hemisemidirect(action)
    out = Document(title="hemisemidirect product")
    out.add("three_leibniz", "hemisemidirect", combined)
    return _emit_output(out, args)


def _cmd_descendent(args) -> int:
    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    derived = descendent(problem)
    out = Document(title="descendent bracket")
    out.add("three_leibniz", "descendent", derived)
    return _emit_output(out, args)


def _cmd_induce_3ll(args) -> int:
    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    derived = induced_3ll(problem)
    out = Document(title="induced bracket-and-braces structure")
    out.add("three_lie", "carrier_bracket", derived.lie3)
    out.add("three_leibniz_lie", "induced_structure", derived)
    return _emit_output(out, args)


def _cmd_induced_rep(args) -> int:
    doc = _load(args)
    problem = doc.resolve("nets", args.name)
    derived = induced_rep(problem)
    out = Document(title="induced representation on the target algebra")
    out.add("three_leibniz", "descendent", derived.algebra)
    out.add("three_leibniz_reps", "induced_rep", derived)
    return _emit_output(out, args)


def _cmd_lie_to_3lie(args) -> int:
    doc = _load(args)
    algebra = doc.resolve("lie", args.name)
    trace = _trace_on_space(doc, algebra.space, args.trace, "--trace")
    derived = threelie_from_lie(algebra, trace)
    out = Document(title="ternary bracket induced by a trace")
    out.add("three_lie", "ternary", derived)
    return _emit_output(out, args)


def _cmd_rho_sigma(args) -> int:
    doc = _load(args)
    action = doc.resolve("lie_actions", args.name)
    gate = check_lie_coherent(action)
    if not gate.ok:
        raise PreconditionError("the binary action is not coherent", gate)
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


# (command, kind, checker, help).  Each checker looks its function up in this
# module when it runs, so that rebinding a name here (the tests and the
# perfbench tracer do) reaches every command.
_CHECK_COMMANDS = [
    ("check-3lie", "three_lie", lambda obj: check_3lie(obj),
     "verify the alternating ternary bracket laws"),
    ("check-3leibniz", "three_leibniz", lambda obj: check_3leibniz(obj),
     "verify the ternary Leibniz identity"),
    ("check-lie", "lie", lambda obj: check_lie(obj),
     "verify antisymmetry and the Jacobi identity"),
    ("check-leibniz-lie", "leibniz_lie", lambda obj: check_leibniz_lie(obj),
     "verify the binary bracket-and-product laws"),
    ("check-3ll", "three_leibniz_lie", lambda obj: check_3ll(obj),
     "verify the ternary bracket-and-braces laws"),
    ("check-rep", "representations", lambda obj: check_representation(obj),
     "verify the pair-operator representation laws"),
    ("check-action", "actions", lambda obj: check_coherent_action(obj),
     "verify the coherent action laws"),
    ("check-rep-3leibniz", "three_leibniz_reps",
     lambda obj: check_3leibniz_rep(obj),
     "verify the three-operator representation laws"),
    ("check-lie-action", "lie_actions", lambda obj: check_lie_coherent(obj),
     "verify the binary coherent action laws"),
    ("check-lie-net", "lie_nets", lambda obj: check_lie_net(obj),
     "verify the binary embedding-tensor condition"),
    ("graph-check", "nets", lambda obj: graph_check(obj),
     "verify closure of the tensor's graph in the combined bracket"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorforge",
        description=(
            "Exact checks and constructions for ternary algebras, "
            "coherent actions, and embedding tensors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output="report"):
        """The input options, then the output options of one kind of
        command: a law "report" with witnesses, a "table" of numbers, or a
        "document"."""
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
            return p
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
        return p

    for name, kind, check, help_text in _CHECK_COMMANDS:
        p = common(sub.add_parser(name, help=help_text))
        p.set_defaults(handler=partial(_cmd_check, kind, check))

    p = common(sub.add_parser(
        "check-net", help="verify the ternary embedding-tensor condition"
    ))
    p.add_argument(
        "--triples",
        choices=("all", "increasing"),
        default="all",
        help="basis triples to test (default: all ordered)",
    )
    p.set_defaults(handler=_cmd_check_net)

    p = common(sub.add_parser(
        "check-trace", help="verify that a functional kills all products"
    ))
    p.add_argument("--algebra", help="which algebra to test against")
    p.set_defaults(handler=_cmd_check_trace)

    p = common(sub.add_parser(
        "deform-check", help="verify a first-order deformation direction"
    ))
    p.add_argument(
        "--higher-order",
        action="store_true",
        help="also test the order-2 and order-3 conditions",
    )
    p.set_defaults(handler=_cmd_deform_check)

    p = common(sub.add_parser(
        "deform-equiv", help="decide whether two directions differ trivially"
    ))
    p.add_argument("--first", help="name of the first direction")
    p.add_argument("--second", help="name of the second direction")
    p.set_defaults(handler=_cmd_deform_equiv)

    p = common(sub.add_parser(
        "cohomology", help="dimensions of cocycles, coboundaries, and classes"
    ), output="table")
    p.add_argument(
        "--degrees",
        default="1,2",
        metavar="LIST",
        help="comma-separated degrees (default 1,2)",
    )
    p.set_defaults(handler=_cmd_cohomology)

    p = common(sub.add_parser(
        "classify", help="count and exhibit first-order deformation classes"
    ), output="table")
    p.set_defaults(handler=_cmd_classify)

    builders = [
        ("hemisemidirect", _cmd_hemisemidirect,
         "combined ternary bracket on the sum of the two spaces"),
        ("descendent", _cmd_descendent,
         "ternary Leibniz bracket induced on the carrier"),
        ("induce-3ll", _cmd_induce_3ll,
         "bracket-and-braces structure induced on the carrier"),
        ("induced-rep", _cmd_induced_rep,
         "representation induced on the target algebra"),
        ("emit", _cmd_emit,
         "re-serialize a document in canonical form"),
    ]
    for name, handler, help_text in builders:
        p = common(sub.add_parser(name, help=help_text), output="document")
        p.set_defaults(handler=handler)

    p = common(sub.add_parser(
        "lie-to-3lie", help="ternary bracket induced by a trace"
    ), output="document")
    p.add_argument("--trace", help="which trace to use")
    p.set_defaults(handler=_cmd_lie_to_3lie)

    p = common(sub.add_parser(
        "rho-sigma", help="ternary pair action induced by traces"
    ), output="document")
    p.add_argument("--trace-l", help="trace on the acting algebra")
    p.add_argument("--trace-h", help="trace on the carrier algebra")
    p.set_defaults(handler=_cmd_rho_sigma)

    p = common(sub.add_parser(
        "lift-net", help="lift a binary embedding tensor to a ternary one"
    ), output="document")
    p.add_argument("--trace-l", help="trace on the acting algebra")
    p.add_argument("--trace-h", help="trace on the carrier algebra")
    p.set_defaults(handler=_cmd_lift_net)

    p = common(sub.add_parser(
        "leibnizlie-to-3ll", help="ternary bracket-and-braces from a trace"
    ), output="document")
    p.add_argument("--trace", help="which trace to use")
    p.set_defaults(handler=_cmd_leibnizlie_to_3ll)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
