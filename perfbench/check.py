"""Compare one command's exit status and output with its known answer."""

from __future__ import annotations

import json
import re

VERDICT_EXIT = {"pass": 0, "fail": 1, "refused": 3}

TEXT_LINE = re.compile(r"^  (?P<name>\S.*?) \[.*\]: (?P<checked>\d+) checked, (?:ok|(?P<failed>\d+) failed)$")


def verify(cmd, status, out, err):
    """None when the command answered as known, else a one-line reason."""
    if status != cmd.exit:
        tail = (err.strip().splitlines() or [""])[-1][:160]
        return f"exit {status}, expected {cmd.exit}: {tail}"
    try:
        return CHECKERS[cmd.kind](cmd, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _report(cmd, out):
    if "--json" in cmd.argv:
        doc = json.loads(out)
        if VERDICT_EXIT[doc["verdict"]] != cmd.exit:
            return f"verdict {doc['verdict']} disagrees with exit {cmd.exit}"
        lines = {}
        for line in doc["checks"]:
            lines[line["name"]] = (line["checked"], line["failures"])
            if "--all-witnesses" in cmd.argv and (
                len(line["witnesses"]) != line["failures"] or line["omitted_witnesses"]
            ):
                return f"line {line['name']!r} omits witnesses"
    else:
        lines = {}
        for text in out.splitlines():
            match = TEXT_LINE.match(text)
            if match:
                lines[match["name"]] = (int(match["checked"]), int(match["failed"] or 0))
    return _compare_lines(cmd.lines, lines)


def _compare_lines(expected, got):
    for name, (checked, failures) in expected.items():
        if name not in got:
            return f"line {name!r} missing"
        got_checked, got_failures = got[name]
        if got_checked != checked:
            return f"line {name!r}: {got_checked} checked, expected {checked}"
        if failures is None:
            if got_failures == 0:
                return f"line {name!r}: no failures, expected some"
        elif got_failures != failures:
            return f"line {name!r}: {got_failures} failures, expected {failures}"
    return None


def _document(cmd, out):
    doc = json.loads(out)
    if doc.get("format") != "tensorforge/1":
        return "emitted document has no tensorforge/1 format tag"
    kinds = sorted(doc.get("structures", {}))
    if kinds != cmd.expect["kinds"]:
        return f"emitted kinds {kinds}, expected {cmd.expect['kinds']}"
    want = cmd.expect.get("brackets")
    if want is not None and doc["structures"]["three_leibniz"][0]["brackets"] != want:
        return "emitted bracket differs from the known one"
    return None


def _cohomology(cmd, out):
    rows = json.loads(out)["cohomology"]
    if rows != cmd.expect:
        return f"cohomology rows {rows}, expected {cmd.expect}"
    return None


def _classify(cmd, out):
    doc = json.loads(out)
    got = {key: doc[key] for key in cmd.expect}
    if got != cmd.expect:
        return f"classification {got}, expected {cmd.expect}"
    if len(doc["representatives"]) != doc["class_dim"]:
        return "one representative per class expected"
    return None


CHECKERS = {
    "report": _report,
    "document": _document,
    "cohomology": _cohomology,
    "classify": _classify,
}
