"""fermicert benchmark: one workload, one seed, checked and measured.

    python3 perfbench/run.py --workload theorem1-witness --seed 0 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a
fresh ``worker.py`` process with ``OPENBLAS_NUM_THREADS=1``; passes repeat
until ``--seconds`` have gone by (one pass is longer than that at the
benchmark's setting).  Every pass goes through the correctness gate: each
claim passes, is consistent with its own numbers, and matches the claims
that ``fermicert all --seed <s>`` made when the benchmark was recorded.
The passes of one run must also write byte-identical CSV tables.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass side by side, one per core, and reports the
per-layer metrics of the traced one.  The last line of standard output is
the result as JSON; the lines before it give the details, and the whole
record goes to ``perfbench/out/<workload>/seed<n>-trace<t>/run.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import metric_specs  # noqa: E402
from workloads import WORKLOADS, cert_lhs_mean, gate  # noqa: E402

#: Import-only processes per run, for the set-up time median.
SETUP_PROBES = 5
#: No pass starts after this many seconds, and none may run longer.
DEADLINE_S = 165.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({k: str(threads) for k in THREAD_VARS})
    return env


def _spawn(args, threads: int = 1, **kwargs) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--t0", repr(time.perf_counter()), *args]
    return subprocess.Popen(cmd, env=_env(threads), cwd=str(ROOT), **kwargs)


def _finish(procs, deadline: float):
    """Wait for every process; kill what is still running at the deadline."""
    try:
        for proc in procs:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def setup_probe(deadline: float):
    """Set-up time of one import-only process, or None if it failed."""
    proc = _spawn(["--probe"], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        return None
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def run_passes(workload: str, seed: int, out: Path, specs, deadline: float,
               threads: int = 1):
    """Start one worker per (tag, trace) spec at once; return their results,
    None for a worker that failed."""
    procs = []
    for tag, traced in specs:
        args = ["--workload", workload, "--seed", str(seed),
                "--out", str(out / tag)] + (["--trace"] if traced else [])
        procs.append(_spawn(args, threads))
    _finish(procs, deadline)
    results = []
    for (tag, _), proc in zip(specs, procs):
        path = out / tag / "result.json"
        ok = proc.returncode == 0 and path.is_file()
        results.append(json.loads(path.read_text()) if ok else None)
    return results


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"L{level}"] = size
    return facts


def check(results, reference, workload: str, seed: int):
    """Gate every pass; the CSV outputs of the passes of one run (an
    untraced and a traced one with --trace 1) must be byte-identical."""
    names = WORKLOADS[workload]
    attempted = failed = 0
    problems = []
    for i, res in enumerate(results):
        if res is None:
            expected = sum(len(reference[n]) for n in names)
            attempted += expected
            failed += expected
            problems.append(f"pass {i}: worker failed")
            continue
        expected, bad, why = gate(res["claims"], reference, names, seed)
        attempted += expected
        failed += bad
        problems += [f"pass {i}: {p}" for p in why]
        problems += [f"pass {i}: {name} raised:\n{tb}"
                     for name, tb in res["errors"].items()]
    digests = {json.dumps(r["csv_sha256"], sort_keys=True)
               for r in results if r is not None}
    if len(digests) > 1:
        problems.append("CSV outputs differ between passes of one seed")
    correct = failed == 0 and not problems
    return correct, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fermicert" / "__init__.py").is_file():
        sys.stderr.write(f"no fermicert sources under {SRC}\n")
        return 2
    reference = json.loads((HERE / "reference.json").read_text())["suites"]

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    out = HERE / "out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)

    if args.trace:
        plain, traced = run_passes(args.workload, args.seed, out,
                                   [("untraced", False), ("traced", True)],
                                   deadline)
        results = [plain, traced]
    else:
        setups = [s for s in (setup_probe(deadline)
                              for _ in range(SETUP_PROBES)) if s is not None]
        results = []
        while True:
            t_pass = time.perf_counter()
            (res,) = run_passes(args.workload, args.seed, out,
                                [(f"pass{len(results)}", False)], deadline)
            results.append(res)
            took = time.perf_counter() - t_pass
            now = time.perf_counter()
            if (res is None or now - start >= args.seconds
                    or now + 1.5 * took > deadline):
                break

    correct, attempted, failed, problems = check(
        results, reference, args.workload, args.seed)
    ok = [r for r in results if r is not None]
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine_facts(),
              "software": ok[0]["facts"] if ok else None,
              "passes": len(results), "correct": correct,
              "attempted": attempted, "failed": failed,
              "claims_failed_frac": failed / attempted,
              "problems": problems}

    metrics = {}
    if ok and args.trace:
        if traced is not None:
            layers = dict(traced["layers"])
            layers["run.trace_overhead_s"] = (
                traced["wall_s"] - plain["wall_s"] if plain else float("nan"))
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit, _ in metric_specs()}
            record["spans"] = traced["spans"]
    elif ok:
        setups += [r["setup_s"] for r in ok]
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in ok),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in ok), "unit": "MB"},
            "cert_lhs_mean": {"value": statistics.median(
                cert_lhs_mean(r["claims"], args.workload) for r in ok),
                "unit": "lhs"},
        }
        record["setup_samples_s"] = setups
    record["pass_wall_s"] = [r["wall_s"] for r in ok]
    record["suite_wall_s"] = [r["suite_wall_s"] for r in ok]
    record["metrics"] = metrics
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.json").write_text(json.dumps(record, indent=1))

    for key in ("machine", "software", "passes", "pass_wall_s",
                "suite_wall_s", "claims_failed_frac"):
        print(f"{key}: {json.dumps(record[key])}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
