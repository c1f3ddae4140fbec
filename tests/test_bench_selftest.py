"""The benchmark's own self-test, bench/test_bench.py, passes.

It runs in a child process: bench/run.py pins the BLAS threads before numpy
is first imported, which an in-process collection next to the other tests
is too late for.  Every workload runs at its smallest size, with and
without the tracer, so a renamed traced call site or a call path that no
longer reaches a required site fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/test_bench.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
