"""The benchmark's own smoke check, run as part of the test suite.

``atkbench/smoke.py`` runs every benchmark workload untraced and traced on
tiny instances, checks that the tracer counts one span per oracle query
and that the guarantee gate fails a ``lossy:2`` oracle. Its span files go
to the git-ignored ``.bench_out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "atkbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
