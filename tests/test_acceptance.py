"""Acceptance gate: one test per certification criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the criterion at its stated tolerance.  The
sweeps are exactly the ones behind the command-line suites, so the gate
certifies what the tool ships.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fermicert import suites
from fermicert.cumulants import LadderIndex, fourier_cumulant
from fermicert.fock import DenseOperator
from fermicert.algebra import SystemShape

ROOT = Path(__file__).resolve().parents[1]

DIAG_THIRDS = DenseOperator(SystemShape(1, 1),
                            np.diag([1.0 / 3.0, 2.0 / 3.0]).astype(complex))


def _announce(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())


@pytest.fixture(scope="module")
def lemma3_suite():
    return suites.run_verify_lemma3()


@pytest.fixture(scope="module")
def theorem1_suite():
    return suites.run_verify_theorem1(seed=3)


@pytest.fixture(scope="module")
def clt_suite():
    return suites.run_verify_clt()


def test_criterion_1_algebra_oracle():
    start = time.perf_counter()
    reports, _ = suites.run_check_algebra(seed=0)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 30.0
    worst = max(r.lhs for r in reports)
    oracle = next(r for r in reports if r.claim_id == "algebra-oracle")
    cases = oracle.inputs["cases"]
    _announce("1 algebra-oracle",
              ok, f"({cases} cases, max dev {worst:.2e}, {elapsed:.1f}s)")
    assert all(r.passed for r in reports)
    assert cases == 500
    assert oracle.tolerance == 1e-10
    assert elapsed < 30.0


def test_criterion_2_lemma_property_suites():
    reports, _ = suites.run_lemma_properties(seed=1)
    ok = all(r.passed for r in reports)
    instances = [r.inputs["instances"] for r in reports]
    _announce("2 lemma1+lemma2", ok,
              f"({instances[0]} instances each, tol 1e-9)")
    assert ok
    assert instances == [200, 200]
    for r in reports:
        assert r.tolerance == 1e-9


def test_criterion_3_lemma3_certification(lemma3_suite):
    start = time.perf_counter()
    reports, tables = lemma3_suite
    rows = tables["lemma3"][1]
    ok = all(r.passed for r in reports)
    # Sweep coverage: V in {6, 8}, mu in {0, +-0.5, +-1}, all admissible k.
    seen = {(row[0], row[2]) for row in rows}
    assert seen == {(V, mu) for V in (6, 8) for mu in (0.0, 0.5, -0.5, 1.0, -1.0)}
    for row in rows:
        V, _, mu, k, lhs, rhs, passed = row
        assert passed
        assert lhs <= rhs + 1e-9
        if k == 1:
            assert lhs == 0.0
    n_k6 = sum(1 for row in rows if row[0] == 6 and row[2] == 0.0)
    n_k8 = sum(1 for row in rows if row[0] == 8 and row[2] == 0.0)
    assert (n_k6, n_k8) == (5, 7)
    elapsed = time.perf_counter() - start
    _announce("3 lemma3-sweep", ok, f"({len(rows)} instances)")
    assert ok


def test_criterion_3_runtime():
    start = time.perf_counter()
    suites.run_verify_lemma3()
    elapsed = time.perf_counter() - start
    _announce("3b lemma3-runtime", elapsed < 120.0, f"({elapsed:.1f}s < 120s)")
    assert elapsed < 120.0


def test_criterion_4_theorem1_certification(theorem1_suite):
    reports, tables = theorem1_suite
    rows = tables["theorem1"][1]
    ok = all(r.passed for r in reports)
    for row in rows:
        V, _, mu, k, r_, distance, bound, max_offdiag, passed = row
        assert passed
        assert distance <= bound + 1e-9
        if mu == 0.0:
            assert distance < 1e-6
        assert max_offdiag < 1e-8
    _announce("4 theorem1-sweep", ok, f"({len(rows)} instances)")
    assert ok


def test_criterion_5_lemma4_equality(clt_suite):
    start = time.perf_counter()
    reports, tables = clt_suite
    lemma4 = [r for r in reports if r.claim_id == "hudson-lemma4"]
    delta = [r for r in reports if r.claim_id == "hudson-delta-rule"]
    assert lemma4 and delta
    for r in lemma4:
        assert r.passed and r.tolerance == 1e-9
    # Exhaustive coverage at p = 1: V in {2, 3, 4} and w in {2, 4}.
    covered = {(r.inputs["V"], r.inputs["w"]) for r in lemma4
               if r.inputs["p"] == 1}
    assert covered == {(V, w) for V in (2, 3, 4) for w in (2, 4)}
    for r in delta:
        assert r.passed and r.lhs <= 1e-12
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in lemma4 + delta)
    _announce("5 lemma4+delta", ok,
              f"(max dev {max(r.lhs for r in lemma4):.2e})")
    assert ok


def test_criterion_5_runtime():
    start = time.perf_counter()
    suites.run_verify_clt()
    elapsed = time.perf_counter() - start
    _announce("5b clt-runtime", elapsed < 120.0, f"({elapsed:.1f}s < 120s)")
    assert elapsed < 120.0


@pytest.mark.xfail(strict=True, raises=(ZeroDivisionError, AssertionError),
                   reason="stated ratio is 0/0: every single-mode fermionic "
                          "state is Gaussian, so K_4 vanishes identically; "
                          "the equality-case content is certified by the "
                          "companion tests")
def test_criterion_6_literal_ratio_form():
    for V in range(2, 9):
        q = V // 2
        ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
               LadderIndex(-1, 1, q), LadderIndex(1, 1, q)]
        res = fourier_cumulant(DIAG_THIRDS, V, [ops])
        lhs = abs(res.direct.item())
        ratio = lhs * V / abs(res.single_site_cumulant.item())
        assert 1.0 - 1e-9 <= ratio <= 1.0 + 1e-9


def test_criterion_6_suppression_equality_case(clt_suite):
    reports, tables = clt_suite
    rows = tables["suppression"][1]
    p1_rows = [row for row in rows if row[1] == 1]
    assert {row[0] for row in p1_rows} == set(range(2, 9))
    for row in p1_rows:
        V, p, w, lhs, rhs, equality_dev, passed = row
        assert passed
        assert equality_dev <= 1e-9          # lhs * V == |K_4| (both zero)
        assert lhs <= rhs + 1e-9
    ratio_reports = [r for r in reports if r.claim_id == "suppression-ratio-p2"]
    assert ratio_reports
    for r in ratio_reports:
        assert r.passed
        assert abs(r.lhs - 1.0) <= 1e-9      # genuine nonzero equality case
    _announce("6 suppression-equality", True,
              "(subtraction form at p=1; literal ratio form is 0/0, "
              "nonzero ratio certified at p=2)")


def test_criterion_7_corollary_slope():
    reports, _ = suites.run_verify_corollary()
    slope_reports = [r for r in reports if r.claim_id == "corollary-slope"]
    assert len(slope_reports) == 1
    slope = slope_reports[0].lhs
    ok = abs(slope + 1.0) <= 0.3
    _announce("7 corollary-slope", ok, f"(slope {slope:.4f})")
    assert ok
    assert slope_reports[0].passed


def test_criterion_8_rdm_spectrum():
    reports, tables = suites.run_rdm_spectrum()
    ok = all(r.passed for r in reports)
    spectrum = [r for r in reports if r.claim_id == "rdm-spectrum"]
    assert spectrum and spectrum[0].lhs < 1e-10
    k0 = [r for r in reports if r.claim_id == "rdm-real-k0"]
    assert k0 and k0[0].lhs == 0.0
    for row in tables["rdm_bound"][1]:
        V, mu, a, abs_b, abs_bv, bound, passed = row
        assert passed
        assert abs_b <= bound + 1e-9
    _announce("8 rdm-spectrum", ok,
              f"(max dev {spectrum[0].lhs:.2e}, k=0 exact)")
    assert ok


def test_criterion_9_gs_bound():
    reports, tables = suites.run_gs_bound(seed=13)
    ok = all(r.passed for r in reports)
    for row in tables["gsbound"][1]:
        family, V, p, k, e_prod, e_gs, gap, bound, precond, passed = row
        assert passed
        assert gap >= -1e-9
        assert gap <= bound + 1e-6
    convexity = [r for r in reports if r.claim_id == "gs-convexity-step"]
    assert convexity and convexity[0].passed
    _announce("9 gs-bound", ok, f"({len(tables['gsbound'][1])} families)")
    assert ok


def _run_all_in_a_fresh_process(out, blas_threads: str):
    """``fermicert all --seed 0`` in its own interpreter, so no state,
    report or cached ladder term carries over from another run, at a fixed
    BLAS thread count; returns the finished process and the wall time."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": blas_threads}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fermicert.cli", "--out",
                           str(out), "all", "--seed", "0"], env=env,
                          cwd=ROOT, capture_output=True, text=True)
    return proc, time.perf_counter() - start


def test_criterion_10_determinism_and_runtime(tmp_path):
    # Run A on one BLAS thread, run B on two: the outputs must not depend
    # on the thread count either.
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    run_a, first_runtime = _run_all_in_a_fresh_process(out_a, "1")
    run_b, _ = _run_all_in_a_fresh_process(out_b, "2")
    assert run_a.returncode == 0, run_a.stderr
    assert run_b.returncode == 0, run_b.stderr
    names = sorted(p.name for p in out_a.glob("*.csv")) + ["all.txt"]
    assert names == sorted(p.name for p in out_b.glob("*.csv")) + ["all.txt"]
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes()
                    for n in names)
    ok = identical and first_runtime < 900.0
    _announce("10 determinism+runtime", ok,
              f"({len(names)} outputs byte-identical at 1 and 2 BLAS "
              f"threads, {first_runtime:.0f}s < 900s)")
    assert identical
    assert first_runtime < 900.0
