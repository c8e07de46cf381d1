"""The benchmark's self-test: its output checkers read ``Exact`` values
through ``verify``, ``transform`` and ``norms``, and must accept the
program's real output and reject corrupted copies of it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all cases behave" in done.stdout
