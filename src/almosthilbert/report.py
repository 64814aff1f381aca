"""Structured verification reports.

A report is a list of named checks, each either asserted against a
declared tolerance (status pass/fail) or recorded as a measurement
(status measured, where worst_violation carries the measured value).
The JSON rendering is canonical: the schema is versioned, field ordering
is fixed by sort_keys, checks are sorted by name, and the wall-clock
durations (the report's and each check's) are excluded so identical
(suite, seed, params) runs produce identical bytes; the text rendering
prints them.  A number that is inf or NaN is written as null.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
MEASURED = "measured"


@dataclass
class CheckResult:
    name: str
    status: str
    worst_violation: float
    samples: int
    params: dict
    duration: float = 0.0  # seconds; like the report's, outside the canonical bytes

    def __post_init__(self):
        if self.status not in (PASS, FAIL, MEASURED):
            raise ValueError(f"unknown status {self.status!r}")


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    seed: int = 0
    tail_bounds: dict = field(default_factory=dict)
    duration: float = 0.0

    def add(self, *checks: CheckResult) -> "VerificationReport":
        self.checks.extend(checks)
        return self

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def sorted_checks(self) -> list[CheckResult]:
        return sorted(self.checks, key=lambda c: c.name)


def _clean_param(v):
    """A report value as a JSON scalar: a number that is inf or NaN becomes
    None, JSON's null, as RFC 8259 JSON has no spelling for either."""
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    try:
        v = float(v)
    except (TypeError, ValueError):
        return str(v)
    return v if math.isfinite(v) else None


def to_json(report: VerificationReport) -> str:
    doc = {
        "schema": 1,
        "suite": report.suite,
        "seed": int(report.seed),
        "tail_bounds": {k: _clean_param(float(v)) for k, v in sorted(report.tail_bounds.items())},
        "checks": [
            {
                "name": c.name,
                "status": c.status,
                "worst_violation": _clean_param(float(c.worst_violation)),
                "samples": int(c.samples),
                "params": {k: _clean_param(v) for k, v in sorted(c.params.items())},
            }
            for c in report.sorted_checks()
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def csv_text(header, rows) -> str:
    """A header row and then ``rows`` as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def to_csv(report: VerificationReport) -> str:
    rows = [[report.suite, c.name, c.status, repr(float(c.worst_violation)), c.samples,
             ";".join(f"{k}={_clean_param(v)}" for k, v in sorted(c.params.items()))]
            for c in report.sorted_checks()]
    return csv_text(["suite", "check", "status", "worst_violation", "samples", "params"], rows)


def _rank(c: CheckResult) -> tuple[bool, float]:
    """How badly an asserted check fared: (failing, worst / tol).  A NaN
    worst or a nonzero tally (tol 0) counts as failing and ranks infinite."""
    worst, tol = c.worst_violation, c.params.get("tol", 0.0)
    if math.isnan(worst) or (worst > 0.0 and tol == 0.0):
        return True, math.inf
    return c.status == FAIL, worst / tol if tol else 0.0


def to_text(report: VerificationReport) -> str:
    lines = [f"suite {report.suite}  seed={report.seed}"]
    for c in report.sorted_checks():
        tol = c.params.get("tol", math.nan)
        if c.status == MEASURED:
            lines.append(f"  MEAS {c.name:<42} value={c.worst_violation:.6g}  n={c.samples}"
                         f"  {c.duration:.3f}s")
        else:
            lines.append(
                f"  {c.status.upper():<4} {c.name:<42} worst={c.worst_violation:.3g}"
                f"  tol={tol:.3g}  n={c.samples}  {c.duration:.3f}s"
            )
    for k, v in sorted(report.tail_bounds.items()):
        lines.append(f"  tail {k} <= {v:.3g}")
    failing = sum(1 for c in report.checks if c.status == FAIL)
    asserted = [c for c in report.checks if c.status != MEASURED]
    if asserted:
        worst = max(asserted, key=_rank)
        lines.append(
            f"{len(report.checks)} checks, {failing} failing; "
            f"worst violation {worst.worst_violation:.3g} against tol "
            f"{worst.params.get('tol', math.nan):.3g} ({worst.name})"
        )
    else:
        lines.append(f"{len(report.checks)} checks, {failing} failing")
    lines.append(f"duration: {report.duration:.2f}s")
    return "\n".join(lines) + "\n"


def render(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise ValueError(f"unknown report format {fmt!r}")
