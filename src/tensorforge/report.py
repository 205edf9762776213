"""Structured pass/fail/refused reports with exact witnesses.

Every checker returns a Report: one CheckLine per verified law, each line
carrying the tuples checked and the failing witnesses with both sides of
the identity printed exactly. Refusal (a violated precondition) is a
distinct verdict from failure, and every refusal goes through a report: a
checker gates on a precondition report with `Report.gate`, and a builder
raises through `Report.require`. One runner, `Report.law`, checks every law:
it takes the two sides as sums of sparse term tables and compares them
key by key; an operator law compares its operators column by column.
"""

from __future__ import annotations

from .errors import PreconditionError
from .linalg import Matrix, Vector, fmt_rat
from .multilinear import (
    Space, _from_columns, _sum, format_matrix, format_vector, one_based
)

PASS = "pass"
FAIL = "fail"
REFUSED = "refused"

EXIT_BY_VERDICT = {PASS: 0, FAIL: 1, REFUSED: 3}


class Failure:
    """One failing basis tuple with both sides of the law, exactly formatted.

    `indices` is the tuple 1-based, possibly nested, machine-readable;
    `where` gives the human labels of the same tuple.
    """

    def __init__(self, indices: tuple, where: str, lhs: str, rhs: str):
        self.indices = indices
        self.where = where
        self.lhs = lhs
        self.rhs = rhs

    def to_json(self) -> dict:
        return {
            "tuple": list(_flatten_json(self.indices)),
            "where": self.where,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def _flatten_json(indices):
    for x in indices:
        yield list(x) if isinstance(x, tuple) else x


class CheckLine:
    """One verified law: how many tuples were checked, which ones failed."""

    def __init__(
        self, name: str, scope: str, checked: int = 0, failures: list | None = None
    ):
        self.name = name
        self.scope = scope
        self.checked = checked
        self.failures: list[Failure] = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def add_failure(self, indices, where, lhs, rhs):
        self.failures.append(Failure(indices, where, lhs, rhs))

    def capped(self, max_witnesses: int | None) -> tuple[list[Failure], int]:
        """The witnesses shown under a cap (None shows all), and how many are not."""
        if max_witnesses is None or len(self.failures) <= max_witnesses:
            return self.failures, 0
        return self.failures[:max_witnesses], len(self.failures) - max_witnesses

    def to_json(self, max_witnesses: int | None) -> dict:
        shown, omitted = self.capped(max_witnesses)
        return {
            "name": self.name,
            "scope": self.scope,
            "checked": self.checked,
            "failures": len(self.failures),
            "witnesses": [f.to_json() for f in shown],
            "omitted_witnesses": omitted,
        }


class Report:
    """The verdict of one checker: its check lines, notes and any refusal."""

    def __init__(self, title: str):
        self.title = title
        self.checks: list[CheckLine] = []
        self.notes: list[str] = []
        self.refused = False
        self.refusal_reason: str | None = None

    @property
    def verdict(self) -> str:
        if self.refused:
            return REFUSED
        if any(not line.passed for line in self.checks):
            return FAIL
        return PASS

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    @property
    def exit_status(self) -> int:
        return EXIT_BY_VERDICT[self.verdict]

    def line(self, name: str, scope: str) -> CheckLine:
        check = CheckLine(name, scope)
        self.checks.append(check)
        return check

    def law(
        self, name: str, scope: str, count: int, lhs, rhs, values, where, keep=None,
        *, show=None,
    ) -> CheckLine:
        """Check one law given as two sums of term tables.

        The scope of a law is every basis tuple it quantifies over, `count`
        of them, and that count is what `checked` reports. lhs and rhs are
        lists of term tables, `{tuple: value}`, each holding a term of that
        side on the tuples where it can be nonzero; `keep`, if given, picks
        the keys that lie in the scope. `values` says what a side is worth
        on one tuple, and so the zero a key missing from every table of a
        side reads as and how a witness prints it: a `Space` (its vectors,
        by `format_vector`), a zero `Matrix` (operators of its shape, by
        `format_matrix`), a zero scalar (by `fmt_rat`), or another zero,
        printed by `show`. The law fails on a tuple where the two sums
        differ, and its witness records one_based(t), where(t) and both
        sides printed, work done only on failing tuples. Off the keys every
        term is zero, so both sides are zero and equal there.

        Operators enter as column tables, op e_c at key t + (c,) (see
        `multilinear._columns`): the columns are compared, `keep` sees t,
        and a failing t gets one witness, which shows the whole operators.

        The keys are walked in sorted order. Every scope in use is scanned
        in lexicographic order, so the witnesses come out as a scan of the
        whole scope would give them.
        """
        line = self.line(name, scope)
        shape = values if isinstance(values, Matrix) else None
        if shape is not None:
            zero, show, in_scope = Vector.zero(shape.nrows), format_matrix, keep
            keep = in_scope and (lambda t: in_scope(t[:-1]))
        elif isinstance(values, Space):
            zero, show = values.zero(), lambda v: format_vector(values, v)
        else:
            zero, show = values, show or fmt_rat
        left, right = _sum(lhs, keep), _sum(rhs, keep)
        failing = [
            t
            for t in sorted(left.keys() | right.keys())
            if left.get(t, zero) != right.get(t, zero)
        ]
        if shape is not None and failing:  # the failing operators, whole
            failing = dict.fromkeys(t[:-1] for t in failing)
            left, right = (
                _from_columns(
                    {t: v for t, v in side.items() if t[:-1] in failing},
                    shape.nrows,
                    shape.ncols,
                )
                for side in (left, right)
            )
            zero = shape
        for t in failing:
            a, b = left.get(t, zero), right.get(t, zero)
            line.add_failure(one_based(t), where(t), show(a), show(b))
        line.checked = count
        return line

    def refuse(self, reason: str) -> "Report":
        self.refused = True
        self.refusal_reason = reason
        return self

    def gate(self, other: "Report", prefix: str, reason: str) -> bool:
        """Whether the precondition report `other` passed. When it did not,
        its lines are absorbed under `prefix` and this report refuses with
        `reason`."""
        if other.ok:
            return True
        self.absorb(other, prefix)
        self.refuse(reason)
        return False

    def require(self, reason: str):
        """Raise PreconditionError(reason), carrying this report, unless the
        report passed."""
        if not self.ok:
            raise PreconditionError(reason, self)

    def note(self, text: str):
        self.notes.append(text)

    def absorb(self, other: "Report", prefix: str):
        """Inline another report's lines under a prefixed name."""
        for line in other.checks:
            copied = CheckLine(
                f"{prefix}: {line.name}", line.scope, line.checked, list(line.failures)
            )
            self.checks.append(copied)
        for note in other.notes:
            self.notes.append(f"{prefix}: {note}")

    def render_text(self, max_witnesses: int | None = 20) -> str:
        out = [f"{self.title}: {self.verdict.upper()}"]
        if self.refused and self.refusal_reason:
            out.append(f"  refused: {self.refusal_reason}")
        for line in self.checks:
            status = "ok" if line.passed else f"{len(line.failures)} failed"
            out.append(
                f"  {line.name} [{line.scope}]: {line.checked} checked, {status}"
            )
            shown, omitted = line.capped(max_witnesses)
            for f in shown:
                out.append(f"    witness {f.where}: LHS = {f.lhs}, RHS = {f.rhs}")
            if omitted:
                out.append(f"    ... {omitted} more witnesses omitted")
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)

    def to_json(self, max_witnesses: int | None = 20) -> dict:
        doc = {
            "title": self.title,
            "verdict": self.verdict,
            "checks": [line.to_json(max_witnesses) for line in self.checks],
            "notes": list(self.notes),
        }
        if self.refused:
            doc["refusal_reason"] = self.refusal_reason
        return doc


def tuple_label(space, indices) -> str:
    """Labels for a flat tuple of 0-based basis indices."""
    return "(" + ", ".join(space.label(i) for i in indices) + ")"
