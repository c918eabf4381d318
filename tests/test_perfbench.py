"""Smoke test of the benchmark harness with per-layer tracing switched on.

`perfbench/tracing.py` patches engine and oracle methods by name, so a
change to their names or signatures can break `--trace 1` while every
other test passes. One short traced `audit` round catches that.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_audit_round_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
