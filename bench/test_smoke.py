"""The benchmark's own test: every workload at a tiny size, in both modes.

    python3 -m pytest bench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=RUN.parent.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("correct=True") == 6, proc.stdout
