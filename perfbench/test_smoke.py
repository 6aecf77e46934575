"""Smoke test of the benchmark itself, at tiny size.

    python -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and twice traced with ``--scale tiny
--seconds 1`` (one pass). The result line must carry every declared metric
with its declared unit, and the per-layer counts must repeat exactly.
Without the package sources the benchmark must fail without a result.
The speed sampler must take slices and keep them out of its clock.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("semiwave.profile_solves", "semiwave.cold_solves", "model.equilibrium_calls",
          "fbsolver.trace_rows", "io.bytes")


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    result = _result(workload, trace=0)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0.0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat(workload):
    first = _result(workload, trace=1)["metrics"]
    second = _result(workload, trace=1)["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_sampler_keeps_slices_out_of_its_clock(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import speed

    sampler = speed.Sampler(str(tmp_path))
    sampler.start()
    try:
        wall0, clock0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - wall0 < 0.5:
            pass
        wall, clock = time.perf_counter() - wall0, sampler.clock() - clock0
    finally:
        sampler.stop()
    assert len(sampler.slices) >= 3
    assert wall - clock == pytest.approx(sampler.busy, abs=1e-3)
    slowdown, hidden = sampler.window(0, sampler.mark())
    assert slowdown > 0.0 and hidden == 0.0
