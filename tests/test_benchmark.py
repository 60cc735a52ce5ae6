"""The benchmark's self-test runs clean against this checkout."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # guards the tracer's hold on the program: solve_affine still wraps
    # cleanly, and an auto lift at weight 6 still traces an infeasible unit
    # probe solve, then the oracle solve
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "perfbench self-test: ok\n"
