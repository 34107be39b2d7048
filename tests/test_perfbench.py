"""The benchmark harness in ``perfbench/`` runs against this checkout.

Its self-test must pass, and a short traced run of the ``scale`` workload and
a short run of the ``oracle`` workload must check every output; the ``oracle``
operation passes the curves of ``ogpf.fit_all_curves`` to ``enumerate_solve``. The harness traces and calls the program by name
(``mipbuild.build_model``, ``substitute_columns``, ``ipm.solve_ipm``,
``VarIndex.col`` and ``columns``, among others), so a change that breaks it
fails here and not only in the benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import ogpf

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


def test_oracle_run_checks_every_output():
    proc = _python("perfbench/run.py", "--workload", "oracle", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def _tracing_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_consensus_layers(small2area):
    """The tracer wraps ``area_views`` and ``solve_consensus`` by name; a
    consensus solve records both, with the interior point under the
    consensus span."""
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        ogpf.solve_two_stage(small2area, 2, mode="consensus")
    finally:
        tracer.uninstall()
    spans = {sid: (parent, name) for sid, parent, name, *_ in tracer.spans}
    names = [name for _, name in spans.values()]
    assert "mipbuild.area_views" in names
    assert names.count("convexsolve.consensus") == 1

    def ancestors(sid):
        parent = spans[sid][0]
        while parent >= 0:
            yield spans[parent][1]
            parent = spans[parent][0]

    assert any("convexsolve.consensus" in ancestors(sid)
               for sid, (_, name) in spans.items() if name == "ipm.solve")
