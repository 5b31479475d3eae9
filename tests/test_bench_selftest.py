"""The benchmark's self-test: its corpora run, its checks reject corrupted
outputs, and its tracer still finds the library functions it wraps."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_self_test_passes():
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "self-test passed" in proc.stdout
