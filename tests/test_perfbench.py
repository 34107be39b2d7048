"""The benchmark harness in ``perfbench/`` runs against this checkout.

Its self-test must pass, and a short traced run of the ``scale`` workload must
check every output. The harness traces and calls the program by name
(``mipbuild.build_model``, ``substitute_columns``, ``ipm.solve_ipm``,
``VarIndex.col`` and ``columns``, among others), so a change that breaks it
fails here and not only in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=300)


def test_selftest_passes():
    proc = _python("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("self-test passed")


def test_traced_scale_run_checks_every_output():
    proc = _python("perfbench/run.py", "--workload", "scale", "--seed", "1",
                   "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
