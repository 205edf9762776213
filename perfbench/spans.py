"""In-process tracing: timing wrappers around tensorforge's layers.

``Tracer.install()`` replaces the public functions of the traced modules,
and every name another module bound to them with ``from .x import y``, by
wrappers that record a span each: name, start, end and parent span.  A few
methods are wrapped the same way (the cochain complex, report rendering),
and ``Matrix.mul`` gets a counter without a span.  ``uninstall()`` puts the
originals back.  Hot per-tuple helpers (scalar parsing, index formatting,
cochain coordinates) are left alone: they are not layer boundaries and a
span each would swamp the timings; their time counts to the caller.

Each span belongs to one time metric (``CATEGORY``), so the metrics' self
times add up to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

MODULES = (
    "schema",
    "algebras",
    "actions",
    "cohomology",
    "linalg",
    "deformations",
    "induced_lie",
    "report",
    "cli",
)

# Public functions called once per basis tuple or per scalar.
SKIP = {
    "linalg.rat",
    "linalg.fmt_rat",
    "cohomology.iter_cochain_keys",
    "cohomology.vec_cochain",
    "cohomology.unvec_cochain",
    "deformations.format_vector_raw",
    "report.tuple_label",
    "report.one_based",
}

# Methods and one private function that mark layer boundaries.
EXTRA = {
    "cohomology": ("CochainComplex.__init__", "CochainComplex.delta_matrix"),
    "report": ("Report.render_text", "Report.to_json"),
    "linalg": ("_rref",),
}

# span name -> time metric; unlisted spans use their module's default.
CATEGORY = {
    "schema.emit_document": "schema.emit_s",
    "actions.hemisemidirect_table": "actions.build_s",
    "actions.hemisemidirect": "actions.build_s",
    "actions.descendent": "actions.build_s",
    "actions.induced_3ll": "actions.build_s",
    "cohomology.CochainComplex.__init__": "cohomology.init_s",
    "cohomology.check_3leibniz_rep": "cohomology.rep_check_s",
    "cohomology.induced_rep": "cohomology.build_s",
    "linalg.rank": "linalg.rank_s",
    "linalg.kernel_basis": "linalg.kernel_s",
    "linalg.solve_membership": "linalg.solve_s",
    "linalg._rref": "linalg.rref_s",
}

DEFAULT = {
    "schema": "schema.parse_s",
    "algebras": "algebras.check_s",
    "actions": "actions.check_s",
    "cohomology": "cohomology.assemble_s",
    "deformations": "deformations.s",
    "induced_lie": "induced_lie.s",
    "report": "report.render_s",
    "cli": "cli.self_s",
}

TIME_METRICS = sorted(set(CATEGORY.values()) | set(DEFAULT.values()))

GATES = {"check_representation", "check_coherent_action", "check_net"}
CALLS = {
    "rank": "linalg.rank_calls",
    "kernel_basis": "linalg.kernel_calls",
    "solve_membership": "linalg.solve_calls",
    "_rref": "linalg.rref_calls",
}
TUPLE_MODULES = {"algebras", "actions", "cohomology", "deformations", "induced_lie"}


def category(name):
    return CATEGORY.get(name) or DEFAULT[name.split(".", 1)[0]]


class Tracer:
    """Spans and counters for in-process commands.

    A span is ``[name, start, end, parent, child_time]``; ``parent`` is the
    index of the enclosing span or -1.
    """

    def __init__(self):
        self.pkg = importlib.import_module("tensorforge")
        self.mods = {m: importlib.import_module(f"tensorforge.{m}") for m in MODULES}
        self.spans = []
        self.stack = []
        self.patches = []
        self.counts = {}
        self.enabled = False
        self.reset_command()

    # -- recording -----------------------------------------------------------

    def reset_command(self):
        self.ranked = {}
        self.absorbed = set()
        self.keep = []  # objects whose ids are in use for this command
        self.matrices = []  # (kind, matrix) to measure after the command
        self.json_reports = []

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            ctx = before(args, kwargs) if before else None
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = span[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - span[1]
            if after:
                after(ctx, args, return_value)
            return return_value

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- hooks run after a span ends, in the parent's time -------------------------

    def _hooks(self, module, func):
        name = f"{module}.{func}"
        before = after = None
        if module in TUPLE_MODULES:
            after = self._count_reports(module)
        if module == "actions" and func in GATES:
            before = self._gate_memo
            after = self._chain(self._count_gate, after)
        elif module == "linalg" and func in CALLS:
            before = self._elimination(func)
        elif name == "cohomology.CochainComplex.delta_matrix":
            before = self._assemble_cached
            after = self._assembled
        elif name == "schema.parse_document":
            before = self._bytes_in
        elif name == "schema.emit_document":
            after = self._bytes_out
        elif name == "report.Report.render_text":
            before = self._witnesses
            after = self._text_out
        elif name == "report.Report.to_json":
            before = self._witnesses
            after = self._json_out
        return before, after

    @staticmethod
    def _chain(first, second):
        if second is None:
            return first

        def both(ctx, args, result):
            first(ctx, args, result)
            second(ctx, args, result)

        return both

    def _count_reports(self, module):
        report_cls = self.mods["report"].Report

        def after(ctx, args, result):
            if ctx is True:  # a memoized gate report: no work was done
                return
            found = result if isinstance(result, tuple) else (result,)
            for rep in found:
                if isinstance(rep, report_cls):
                    for line in rep.checks:
                        if id(line) in self.absorbed:
                            continue
                        self.bump(f"{module}.tuples", line.checked)
                        self.bump(f"{module}.failures", len(line.failures))

        return after

    def _gate_memo(self, args, kwargs):
        target = args[0]
        if hasattr(target, "_net_reports"):
            mode = kwargs.get("mode", args[1] if len(args) > 1 else "all")
            return mode in target._net_reports
        return getattr(target, "_verified", None) is not None

    def _count_gate(self, ctx, args, result):
        self.bump("actions.gate_calls")
        if ctx:
            self.bump("actions.gate_memo_hits")

    def _elimination(self, func):
        def before(args, kwargs):
            m = args[0]
            self.matrices.append(("elim", m))
            self.bump(CALLS[func])
            if func == "rank":
                if id(m) in self.ranked:
                    self.bump("linalg.rank_repeats")
                else:
                    self.ranked[id(m)] = m

        return before

    def _assemble_cached(self, args, kwargs):
        complex_, n = args[0], args[1]
        self.bump("cohomology.assemble_calls")
        cached = n in complex_._matrices
        if cached:
            self.bump("cohomology.assemble_cached")
        return cached

    def _assembled(self, cached, args, result):
        if not cached:
            self.matrices.append(("assembled", result))

    def _bytes_in(self, args, kwargs):
        self.bump("schema.parse_calls")
        self.bump("schema.bytes_in", len(args[0].encode()))

    def _bytes_out(self, ctx, args, result):
        self.bump("schema.bytes_out", len(result.encode()))

    def _witnesses(self, args, kwargs):
        rep = args[0]
        cap = kwargs.get("max_witnesses", args[1] if len(args) > 1 else 20)
        shown = sum(
            len(line.failures) if cap is None else min(cap, len(line.failures))
            for line in rep.checks
        )
        self.bump("report.witnesses", shown)

    def _text_out(self, ctx, args, result):
        self.bump("report.bytes_out", len(result.encode()))

    def _json_out(self, ctx, args, result):
        self.json_reports.append(result)

    def _mark_absorbed(self, original):
        tracer = self

        def absorb(rep, other, prefix):
            before = len(rep.checks)
            original(rep, other, prefix)
            for line in rep.checks[before:]:
                tracer.absorbed.add(id(line))
                tracer.keep.append(line)

        absorb.__wrapped__ = original
        return absorb

    def _count_products(self, original):
        tracer = self

        def mul(a, b):
            if tracer.enabled:
                tracer.counts["linalg.matrix_products"] = (
                    tracer.counts.get("linalg.matrix_products", 0) + 1
                )
            return original(a, b)

        mul.__wrapped__ = original
        return mul

    # -- end of one command: measurements kept out of every span -------------------

    def finish_command(self):
        biggest = None
        for kind, m in self.matrices:
            nnz = sum(1 for row in m.rows for x in row if x)
            if kind == "elim":
                self.bump("linalg.elim_entries", m.nrows * m.ncols)
                self.bump("linalg.elim_nnz", nnz)
            elif biggest is None or m.nrows * m.ncols > biggest[0] * biggest[1]:
                biggest = (m.nrows, m.ncols, nnz)
        if biggest is not None:
            rows, cols, nnz = biggest
            prev = self.counts.get("cohomology.matrix_rows", 0) * self.counts.get(
                "cohomology.matrix_cols", 0
            )
            if rows * cols > prev:
                self.counts["cohomology.matrix_rows"] = rows
                self.counts["cohomology.matrix_cols"] = cols
                self.counts["cohomology.matrix_nnz"] = nnz
        for doc in self.json_reports:
            self.bump("report.bytes_out", len(json.dumps(doc, indent=2).encode()))
        self.reset_command()

    # -- patching ----------------------------------------------------------------------

    def install(self):
        wrappers = {}
        for module, mod in self.mods.items():
            names = [
                n
                for n, f in vars(mod).items()
                if inspect.isfunction(f)
                and f.__module__ == mod.__name__
                and not n.startswith("_")
                and f"{module}.{n}" not in SKIP
            ]
            for n in names + [x for x in EXTRA.get(module, ()) if "." not in x]:
                fn = getattr(mod, n)
                before, after = self._hooks(module, n)
                wrappers[fn] = self._span(f"{module}.{n}", fn, before, after)
            for dotted in EXTRA.get(module, ()):
                if "." not in dotted:
                    continue
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                before, after = self._hooks(module, dotted)
                self._patch(cls, meth, self._span(f"{module}.{dotted}", fn, before, after))
        report_cls = self.mods["report"].Report
        self._patch(report_cls, "absorb", self._mark_absorbed(report_cls.__dict__["absorb"]))
        matrix_cls = self.mods["linalg"].Matrix
        self._patch(matrix_cls, "mul", self._count_products(matrix_cls.__dict__["mul"]))
        # every binding of a wrapped function, including `from .x import y`
        # ones; a private function keeps its own module's calls unwrapped, so
        # only callers outside its layer open a span for it
        for mod in [self.pkg, *self.mods.values()]:
            for n, value in list(vars(mod).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is None:
                    continue
                if n.startswith("_") and value.__module__ == mod.__name__:
                    continue
                self._patch(mod, n, wrapper)
        self.enabled = True

    def _patch(self, owner, name, value):
        self.patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        self.enabled = False
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches = []

    # -- results --------------------------------------------------------------------------

    def take(self):
        """Self time per metric and the counters, then start afresh."""
        times = {metric: 0.0 for metric in TIME_METRICS}
        for name, start, end, _, child in self.spans:
            times[category(name)] += (end - start) - child
        result = {"times": times, "counts": dict(self.counts), "spans": self.spans}
        self.spans, self.counts = [], {}
        return result


def self_times(spans):
    """Self time of every span, in order."""
    return [(end - start) - child for _, start, end, _, child in spans]
