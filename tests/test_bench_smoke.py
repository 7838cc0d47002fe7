"""The benchmark's smoke mode runs against the package as it stands, so a
signature change in a call the benchmark makes fails here too."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_mode_passes():
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run_bench.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = [ln for ln in done.stdout.splitlines() if ln.startswith("smoke ")]
    assert len(lines) == 8, done.stdout
    assert all(ln.endswith("correct=True") for ln in lines), done.stdout
