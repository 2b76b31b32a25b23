"""The benchmark's workloads and its correctness gate.

Each workload is a disjoint set of ``fermicert.suites`` runners, called
with the per-suite seeds that ``run_all(seed)`` uses.  Together the three
workloads are exactly ``fermicert all --seed <s>``: 68 + 81 + 51 claims.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Suites per workload, in the order ``run_all`` calls them.
#: ``lemma-properties`` is not in ``suites.SUITES``; ``run_all`` calls it
#: first with ``seed + 1``.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    # The Theorem-1 mixture optimizer: many small eigh and kron calls.
    "theorem1-witness": ("verify-theorem1", "verify-corollary"),
    # Symbolic invariance checks and Lemma-3 trace norms; no optimizer.
    "invariance-lemma3": ("check-invariance", "verify-lemma3"),
    # Dense kernels: 1-RDMs, cumulants, Hamiltonian spectra, mean field.
    "spectra-meanfield": ("lemma-properties", "check-algebra", "verify-clt",
                          "rdm-spectrum", "gs-bound"),
}

#: The claim whose lhs measures how good a workload's certificates are:
#: the Theorem-1 witness distance, the Lemma-3 odd-part trace norm and
#: the mean-field energy gap.  Each mean is above 0 at every seed.
CERT_CLAIM: Dict[str, str] = {
    "theorem1-witness": "theorem1",
    "invariance-lemma3": "lemma3",
    "spectra-meanfield": "gs-bound",
}

ALL_SUITES: Tuple[str, ...] = ("lemma-properties", "check-algebra",
                               "check-invariance", "verify-lemma3",
                               "verify-theorem1", "verify-clt",
                               "verify-corollary", "rdm-spectrum",
                               "gs-bound")


_SEED_INPUT = re.compile(r"(?<![^;])seed=(-?\d+)")


def suite_calls(suites, names: Sequence[str], seed: int
                ) -> Iterator[Tuple[str, Callable[[], tuple]]]:
    """(name, thunk) per suite, seeded exactly as ``suites.run_all``."""
    offsets = {name: i for i, name in enumerate(suites.SUITES)}
    for name in names:
        if name == "lemma-properties":
            yield name, (lambda: suites.run_lemma_properties(seed=seed + 1))
        else:
            runner, s = suites.SUITES[name], seed + offsets[name]
            yield name, (lambda runner=runner, s=s: runner(s))


def seed_template(inputs: str, seed: int) -> str:
    """Rewrite ``seed=<n>`` in a claim's inputs as an offset from the run
    seed, so that one reference serves every seed."""
    return _SEED_INPUT.sub(
        lambda m: f"seed={{s{int(m.group(1)) - seed:+d}}}", inputs)


def claim_rows(reports) -> List[list]:
    """Gate-relevant fields of each report, with the inputs rendered as in
    summary.csv."""
    from fermicert.report import reports_to_rows

    _, rows = reports_to_rows(reports)
    return [[row[0], row[1], row[2], bool(rep.passed), bool(rep.consistent()),
             float(rep.lhs), float(rep.rhs)]
            for row, rep in zip(rows, reports)]


def gate(claims: Dict[str, List[list]], reference: Dict[str, List[list]],
         names: Sequence[str], seed: int) -> Tuple[int, int, List[str]]:
    """Compare one pass's claims with the recorded reference.

    Returns (expected, failed, problems).  A claim fails when it is
    missing, differs from the reference in (claim_id, kind, inputs,
    passed), did not pass, or is inconsistent with its own numbers.  A
    suite that raised has no claims, so all of its claims count as missing.
    """
    expected = failed = 0
    problems: List[str] = []
    for name in names:
        want = reference[name]
        got = claims.get(name, [])
        expected += len(want)
        bad = 0
        for i, ref in enumerate(want):
            if i >= len(got):
                bad += 1
                continue
            cid, kind, inputs, passed, consistent = got[i][:5]
            key = [cid, kind, seed_template(inputs, seed), passed]
            if key != list(ref) or not passed or not consistent:
                bad += 1
                if len(problems) < 10:
                    problems.append(f"{name}[{i}]: got {key} "
                                    f"consistent={consistent}, want {ref}")
        extra = max(0, len(got) - len(want))
        if extra:
            problems.append(f"{name}: {extra} claims beyond the reference")
        failed += min(len(want), bad + extra)
    return expected, failed, problems


def cert_lhs_mean(claims: Dict[str, List[list]], workload: str) -> float:
    """Mean lhs of the workload's certificate claim (``CERT_CLAIM``).

    Every row counts the same, also those whose bound is vacuous, so a
    weaker optimizer or a looser computation raises the metric by the
    share it loosens the certificates.
    """
    vals = [row[5] for rows in claims.values() for row in rows
            if row[0] == CERT_CLAIM[workload]]
    return sum(vals) / len(vals) if vals else float("nan")
