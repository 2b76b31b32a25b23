"""The benchmark's own tests, run in a subprocess.

``perfbench/tests`` has its own ``conftest.py``, which one pytest session
cannot import beside ``tests/conftest.py``, so these tests start a second
session from the repository root.  They guard the tracer's contract with
the package: the names in ``TARGETS`` and the spans it records.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
