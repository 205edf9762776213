"""Structured pass/fail/refused reports with exact witnesses.

Every checker returns a Report: one CheckLine per verified law, each line
carrying the tuples checked and the failing witnesses with both sides of
the identity printed exactly. Refusal (a violated precondition) is a
distinct verdict from failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
REFUSED = "refused"

EXIT_BY_VERDICT = {PASS: 0, FAIL: 1, REFUSED: 3}


@dataclass
class Failure:
    """One failing basis tuple with both sides of the law, exactly formatted."""

    indices: tuple  # 1-based, possibly nested, machine-readable
    where: str  # human labels for the same tuple
    lhs: str
    rhs: str

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


@dataclass
class CheckLine:
    """One verified law: how many tuples were checked, which ones failed."""

    name: str
    scope: str
    checked: int = 0
    failures: list[Failure] = field(default_factory=list)

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


@dataclass
class Report:
    title: str
    checks: list[CheckLine] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    refused: bool = False
    refusal_reason: str | None = None

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
        self, name: str, scope: str, tuples, sides, show, where, count=None
    ) -> CheckLine:
        """Check one law on the tuples of its support, in the order given.

        The scope of a law is every basis tuple it quantifies over, `count`
        of them (default: as many as `tuples` yields), and that count is
        what `checked` reports. `tuples` is the support: the tuples of the
        scope where some term of the law can be nonzero, in the order of a
        scan of the whole scope. A law built by joining the nonzero keys of
        its tables passes that join, sorted: every scope in use is scanned
        in lexicographic order, so the sorted join is in scan order. A law
        with no join passes its whole scope. Skipping a tuple off the
        support is sound because there every term is zero, so both sides
        are zero and equal; and since the support keeps the scan order, the
        witnesses come out as a full scan would give them.

        sides(t) returns (lhs, rhs); a vanishing law returns a zero as rhs.
        A tuple fails when the two differ, and its witness records
        one_based(t), where(t), show(lhs) and show(rhs). show and where run
        only on failing tuples.
        """
        line = self.line(name, scope)
        evaluated = 0
        for t in tuples:
            evaluated += 1
            lhs, rhs = sides(t)
            if lhs != rhs:
                line.add_failure(one_based(t), where(t), show(lhs), show(rhs))
        line.checked = evaluated if count is None else count
        return line

    def refuse(self, reason: str) -> "Report":
        self.refused = True
        self.refusal_reason = reason
        return self

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


def one_based(indices):
    """Recursively shift a (possibly nested) index tuple to 1-based."""
    return tuple(
        one_based(x) if isinstance(x, tuple) else x + 1 for x in indices
    )
