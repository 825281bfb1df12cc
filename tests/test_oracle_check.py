"""The benchmark's output oracles accept today's output and reject corrupted copies."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_oracles_accept_the_output():
    proc = subprocess.run([sys.executable, "perfbench/oracle_check.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
