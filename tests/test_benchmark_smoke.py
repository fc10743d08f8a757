"""The benchmark's own smoke run (perfbench/smoke.py): every workload at a
tiny size, untraced and traced, with the traced span counts checked, so a
change that breaks the benchmark fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else []))}
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
