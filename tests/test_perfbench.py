"""The benchmark's contract with the package.

``perfbench/tests`` has its own ``conftest.py``, which one pytest session
cannot import beside ``tests/conftest.py``, so its tests run in a second
session from the repository root.  They guard the tracer's contract with
the package: the names in ``TARGETS`` and the spans it records.  The
claim gate is checked here in-process: every workload's suites, at the
two seeds ``perfbench/reference.json`` records, against that reference.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fermicert import suites

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_perfbench_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr


def _workloads(monkeypatch):
    """``perfbench/workloads.py`` loaded by path, with no bytecode written
    next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_claims_pass_the_benchmark_gate(monkeypatch, seed):
    # A change to a claim's id, kind, inputs string or verdict would pass
    # the package's own tests and still fail every benchmark pass.
    workloads = _workloads(monkeypatch)
    reference = json.loads(
        (PERFBENCH / "reference.json").read_text())["suites"]
    got = {}
    for workload, names in workloads.WORKLOADS.items():
        claims = {name: workloads.claim_rows(call()[0]) for name, call in
                  workloads.suite_calls(suites, names, seed)}
        got[workload] = workloads.gate(claims, reference, names, seed)
    assert got == {"theorem1-witness": (68, 0, []),
                   "invariance-lemma3": (81, 0, []),
                   "spectra-meanfield": (51, 0, [])}
