"""The benchmark's self-test: the bench still drives the CLI and its checks still catch faults.

``bench/selftest.py`` runs one tiny ``fit`` + ``rank`` per queue shape and
one ``sweep`` operation, checks each clean output, and requires every
corrupted copy to count as a failure. It writes only under ``.bench_work/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
