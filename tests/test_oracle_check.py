"""The benchmark's harness still fits the package: its output oracles accept
today's output and reject corrupted copies, and its tracer finds every
function it wraps."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACE = """
import sys
sys.path[:0] = ["perfbench", "src"]
from tracing import Tracer
tracer = Tracer()
tracer.install()
tracer.uninstall()
"""


def test_benchmark_oracles_accept_the_output():
    proc = subprocess.run([sys.executable, "perfbench/oracle_check.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_tracer_resolves_every_target():
    proc = subprocess.run([sys.executable, "-c", TRACE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-4000:]
