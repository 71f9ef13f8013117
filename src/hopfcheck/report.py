"""Check results and reports with deterministic rendering.

A report is a flat list of named pass/fail/skip entries plus computed
values; the same structure renders as text or as canonical JSON.  Nothing
here depends on the algebra layer, so every module can emit results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import filterfalse

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def passed(name: str) -> CheckResult:
    return CheckResult(name, PASS)


def failed(name: str, witness: str | None = None) -> CheckResult:
    return CheckResult(name, FAIL, witness)


def skipped(name: str, reason: str | None = None) -> CheckResult:
    return CheckResult(name, SKIP, reason)


def check(name: str, ok: bool, witness: str | None = None) -> CheckResult:
    return passed(name) if ok else failed(name, witness)


def flag(value: bool) -> str:
    """A truth value as a report line prints it: true or false."""
    return json.dumps(value)


def grid_check(name: str, items, predicate, describe) -> CheckResult:
    """Run predicate over items in order, once per item up to the first it
    rejects; fail with that item's witness.  The loop runs in C, so items
    and a predicate built from C callables cost no Python call per item."""
    for item in filterfalse(predicate, items):
        return failed(name, describe(item))
    return passed(name)


@dataclass
class Report:
    """An ordered collection of check results and computed values."""

    title: str
    conventions: list[str] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    computed: list[tuple[str, str]] = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        self.checks.append(result)

    def extend(self, results) -> None:
        self.checks.extend(results)

    def add_computed(self, name: str, value: str) -> None:
        self.computed.append((name, value))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def counts(self) -> tuple[int, int, int]:
        return tuple(sum(c.status == s for c in self.checks) for s in (PASS, FAIL, SKIP))

    def render_text(self, timestamp: str | None = None) -> str:
        lines = [f"== {self.title} =="]
        if timestamp is not None:
            lines.append(f"generated at: {timestamp}")
        if self.conventions:
            lines.append("conventions:")
            lines.extend(f"  - {c}" for c in self.conventions)
        if self.checks:
            lines.append("checks:")
            tag = {PASS: "PASS", FAIL: "FAIL", SKIP: "SKIP"}
            for c in self.checks:
                suffix = f"  :: {c.witness}" if c.witness else ""
                lines.append(f"  [{tag[c.status]}] {c.name}{suffix}")
        if self.computed:
            lines.append("computed:")
            lines.extend(f"  {name} = {value}" for name, value in self.computed)
        ps, fs, ss = self.counts
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"result: {verdict} ({ps} passed, {fs} failed, {ss} skipped)")
        return "\n".join(lines)

    def to_json_obj(self, timestamp: str | None = None) -> dict:
        obj = {
            "title": self.title,
            "conventions": list(self.conventions),
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "computed": [{"name": n, "value": v} for n, v in self.computed],
            "result": PASS if self.ok else FAIL,
        }
        if timestamp is not None:
            obj["generated_at"] = timestamp
        return obj

    def render_json(self, timestamp: str | None = None) -> str:
        return json.dumps(self.to_json_obj(timestamp), indent=2, sort_keys=True)
