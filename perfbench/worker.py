"""One pass of one workload in a fresh process.

Started by ``run.py`` with the package's ``src`` directory on PYTHONPATH
and one BLAS thread.  It imports fermicert, runs the workload's suites
once (wrapped by the span tracer with ``--trace``), writes the workload's
CSV tables and a ``result.json`` into ``--out``.  With ``--probe`` it only
imports the package and prints its set-up time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, claim_rows, suite_calls

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package() -> float:
    """Import the CLI and everything it loads from ``SRC``; return the
    ``time.perf_counter()`` reading when done.  The parent passes its own
    reading before the spawn as ``--t0``; on Linux both read the same
    monotonic clock."""
    import fermicert.cli  # noqa: F401

    origin = Path(fermicert.cli.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"fermicert imported from {origin}, not from {SRC}")
    return time.perf_counter()


def _facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(workload: str, seed: int, out: Path, tracer=None) -> dict:
    """Run the workload's suites once and write its tables into ``out``."""
    from fermicert import suites
    from fermicert.report import reports_to_rows, write_csv

    claims, errors, suite_wall = {}, {}, {}
    reports, tables = [], {}
    cpu0 = _cpu_s()
    for name, call in suite_calls(suites, WORKLOADS[workload], seed):
        # Free the reference cycles that earlier suites left behind, so
        # that the peak memory does not depend on when the collector
        # happens to run.  The suite's clock starts after the collection.
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"suites.{name}"):
                    sub_reports, sub_tables = call()
            else:
                sub_reports, sub_tables = call()
        except Exception:  # a failing suite counts as missing claims
            errors[name] = traceback.format_exc()
            continue
        finally:
            suite_wall[name] = time.perf_counter() - t0
        claims[name] = claim_rows(sub_reports)
        reports.extend(sub_reports)
        tables.update(sub_tables)
    wall = sum(suite_wall.values())
    cpu = _cpu_s() - cpu0

    out.mkdir(parents=True, exist_ok=True)
    tables["summary"] = reports_to_rows(reports)
    digests = {}
    for table, (header, rows) in sorted(tables.items()):
        path = out / f"{table}.csv"
        write_csv(path, header, rows)
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"wall_s": wall, "cpu_s": cpu, "suite_wall_s": suite_wall,
            "claims": claims, "errors": errors, "csv_sha256": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.perf_counter() before spawning")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    setup_s = _import_package() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import scipy.sparse.linalg  # noqa: F401  (eigsh is wrapped)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = run_pass(args.workload, args.seed, args.out, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["facts"] = _facts()
    if tracer is not None:
        result["layers"] = tracer.metrics(result["wall_s"])
        result["layers"]["run.cpu_s"] = result["cpu_s"]
        result["spans"] = len(tracer.starts)
        tracer.save(args.out / "spans.npz")
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
