"""Structured records for certified claims and their text/CSV rendering."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Claim kinds.
INEQUALITY = "inequality"
EQUALITY = "equality"
PROPERTY = "property"       # pass rule stated in the notes

#: The pass rule of each kind that has one, as (lhs, rhs, tolerance) ->
#: verdict; :func:`make_report` derives verdicts from it and
#: :meth:`VerificationReport.consistent` checks them against it.
PASS_RULES = {
    INEQUALITY: lambda lhs, rhs, tol: lhs <= rhs + tol,
    EQUALITY: lambda lhs, rhs, tol: abs(lhs - rhs) <= tol,
}

#: A trace distance is at most this, so a bound at or above it is vacuous.
TRACE_DISTANCE_DIAMETER = 2.0


def vacuous_notes(rhs: float) -> List[str]:
    """The note of a trace-distance bound ``rhs`` that is vacuous."""
    return (["bound exceeds trace-distance diameter"]
            if rhs >= TRACE_DISTANCE_DIAMETER else [])


@dataclass
class VerificationReport:
    """One certified claim: computed value, bound, tolerance, verdict."""

    claim_id: str
    kind: str
    inputs: Dict[str, object]
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    wall_time: float = 0.0
    notes: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        """Fail the claim on a rule beyond its pass rule: the verdict
        becomes false and ``reason`` goes into the notes and the
        failures."""
        self.passed = False
        self.notes.append(reason)
        self.failures.append(reason)

    def consistent(self) -> bool:
        """Whether the stored verdict matches the stored numbers and the
        recorded failures; a kind with no rule in :data:`PASS_RULES`
        always is."""
        rule = PASS_RULES.get(self.kind)
        return rule is None or self.passed == (
            rule(self.lhs, self.rhs, self.tolerance) and not self.failures)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        rel = "<=" if self.kind == INEQUALITY else "~="
        inputs = " ".join(f"{k}={_fmt_value(v)}" for k, v in self.inputs.items())
        note = f"  [{'; '.join(self.notes)}]" if self.notes else ""
        return (f"{status}  {self.claim_id:<22} lhs={self.lhs:.6g} {rel} "
                f"rhs={self.rhs:.6g} (tol={self.tolerance:.1g})  {inputs}{note}")


def make_report(claim_id: str, kind: str, inputs: Dict[str, object],
                lhs: float, rhs: float, tolerance: float,
                wall_time: float = 0.0,
                notes: Sequence[str] = ()) -> VerificationReport:
    """Build a report with the verdict derived from the stated pass rule."""
    if kind not in PASS_RULES:
        raise ValueError(f"make_report cannot derive a verdict for kind {kind!r}")
    passed = PASS_RULES[kind](lhs, rhs, tolerance)
    return VerificationReport(claim_id, kind, dict(inputs), float(lhs),
                              float(rhs), float(tolerance), bool(passed),
                              float(wall_time), list(notes))


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def csv_cell(v) -> str:
    """Deterministic CSV cell formatting (floats via repr-stable %.12g)."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}j"
    return str(v)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence[object]]):
    """Write a CSV table with deterministic formatting (no timestamps); a
    cell that holds a comma or a quote is quoted, so every row parses to
    as many fields as the header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([csv_cell(v) for v in row] for row in rows)


def render_reports(title: str, reports: Sequence[VerificationReport]) -> str:
    lines = [title, "=" * len(title)]
    for rep in reports:
        lines.append(rep.summary_line())
    n_pass = sum(1 for r in reports if r.passed)
    lines.append(f"-- {n_pass}/{len(reports)} claims passed")
    return "\n".join(lines) + "\n"


def reports_to_rows(reports: Sequence[VerificationReport]):
    """Flatten reports into CSV rows (deterministic, no wall time)."""
    header = ["claim_id", "kind", "inputs", "lhs", "rhs", "tolerance",
              "passed", "notes"]
    rows = []
    for r in reports:
        inputs = ";".join(f"{k}={_fmt_value(v)}" for k, v in sorted(r.inputs.items()))
        rows.append([r.claim_id, r.kind, inputs, r.lhs, r.rhs, r.tolerance,
                     r.passed, ";".join(r.notes)])
    return header, rows
