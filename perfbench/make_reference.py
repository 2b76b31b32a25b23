"""Record the claims that ``fermicert all`` makes, per suite, as the
benchmark's reference.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py 0 1

Runs ``suites.run_all(seed)`` for each seed given, splits its claims by
the suite runner that made them, and writes ``reference.json`` with
(claim_id, kind, inputs, passed) per claim.  Inputs that name a seed are
stored relative to the run seed; the script fails unless every seed gives
the same reference and every claim passed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from fermicert import suites

from workloads import ALL_SUITES, WORKLOADS, claim_rows, seed_template

RUNNERS = {"lemma-properties": "run_lemma_properties",
           "check-algebra": "run_check_algebra",
           "check-invariance": "run_check_invariance",
           "verify-lemma3": "run_verify_lemma3",
           "verify-theorem1": "run_verify_theorem1",
           "verify-clt": "run_verify_clt",
           "verify-corollary": "run_verify_corollary",
           "rdm-spectrum": "run_rdm_spectrum",
           "gs-bound": "run_gs_bound"}


def claims_by_suite(seed: int) -> dict:
    """Run ``run_all(seed)`` with each suite runner wrapped so that its
    claims are attributed to it."""
    made = {}
    originals = {name: getattr(suites, attr) for name, attr in RUNNERS.items()}

    def recording(name, runner):
        def wrapper(*args, **kwargs):
            reports, tables = runner(*args, **kwargs)
            made[name] = claim_rows(reports)
            return reports, tables
        return wrapper

    try:
        for name, attr in RUNNERS.items():
            setattr(suites, attr, recording(name, originals[name]))
        reports, _ = suites.run_all(seed)
    finally:
        for name, attr in RUNNERS.items():
            setattr(suites, attr, originals[name])
    flat = [row for name in ALL_SUITES for row in made[name]]
    if flat != claim_rows(reports):
        raise SystemExit(f"seed {seed}: suites do not add up to run_all")
    if not all(row[3] and row[4] for row in flat):
        raise SystemExit(f"seed {seed}: not every claim passed")
    return {name: [[cid, kind, seed_template(inputs, seed), passed]
                   for cid, kind, inputs, passed, *_ in rows]
            for name, rows in made.items()}


def main(seeds) -> int:
    refs = [claims_by_suite(seed) for seed in seeds]
    if any(ref != refs[0] for ref in refs):
        raise SystemExit("the reference differs between seeds")
    counts = {w: sum(len(refs[0][n]) for n in names)
              for w, names in WORKLOADS.items()}
    out = {"seeds_checked": list(seeds), "claims_per_workload": counts,
           "suites": refs[0]}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0, 1]))
