"""The microbenchmarks in ``benches/`` still run against the library's API.

Every ``benches/bench_*.py`` runs once, untimed (``--benchmark-disable``), in
one pytest subprocess. Skipped when pytest-benchmark is not installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_file_runs_once():
    benches = sorted(str(p) for p in (ROOT / "benches").glob("bench_*.py"))
    assert benches
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-o", "python_files=bench_*.py",
         "--benchmark-disable", "-p", "no:cacheprovider", *benches],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
