"""Check that a workload's CSV tables are byte-identical across two runs
of one seed and across BLAS thread counts 1 and 2.

    python3 perfbench/determinism.py --workload spectra-meanfield --seed 0

Runs three fresh passes one after another (1, 1 and 2 BLAS threads),
prints one JSON line with the verdicts and exits with 1 if any table
differs or a pass failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from run import DEADLINE_S, HERE, run_passes
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    out = HERE / "out" / "determinism" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    digests = []
    for tag, threads in (("threads1a", 1), ("threads1b", 1), ("threads2", 2)):
        deadline = time.perf_counter() + DEADLINE_S
        (res,) = run_passes(args.workload, args.seed, out, [(tag, False)],
                            deadline, threads)
        digests.append(res["csv_sha256"] if res else None)
    ok = digests[0] is not None
    record = {"workload": args.workload, "seed": args.seed,
              "tables": sorted(digests[0]) if ok else [],
              "identical_repeat": ok and digests[0] == digests[1],
              "identical_threads_1_2": ok and digests[0] == digests[2]}
    print(json.dumps(record))
    return 0 if record["identical_repeat"] and record[
        "identical_threads_1_2"] else 1


if __name__ == "__main__":
    sys.exit(main())
