"""Smoke test of the benchmark at reduced sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced.  Each run must print
every metric BENCHMARK.json names, with its unit, and fail no check.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric_and_no_failure(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_every_original():
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    import tracing
    from workloads import import_gltkit

    gl = import_gltkit()
    owners = [getattr(gl, m) for m in tracing._MODULES] + [
        gl.builders.DiscretizationCase, gl.symbols.SymbolExpr, gl.symbols.Rearrangement]
    before = [dict(vars(o)) for o in owners]
    tracer = tracing.Tracer(gl)
    tracer.install()
    # the importing module's binding is wrapped, not only the defining one
    assert gl.builders.sym_eigvals is not before[owners.index(gl.builders)]["sym_eigvals"]
    assert gl.cli.get_case is not before[owners.index(gl.cli)]["get_case"]
    tracer.uninstall()
    after = [dict(vars(o)) for o in owners]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(a[k] is v for k, v in b.items())
