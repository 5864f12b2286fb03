"""Tests of the benchmark itself, at the small size of every workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
from spans import Target, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_the_spec_names_only_workloads_the_command_runs():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)


def _cli(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc = _cli(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    assert "failed_ratio" in proc.stdout
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert all(name in proc.stdout for name, _unit in bench.REPORT_ONLY)


def _add_offset(dep) -> None:
    dep.estimate()[...] += 10.0


@pytest.mark.parametrize("workload", ["mega-clean", "hierarchy-dense"])
def test_planted_wrong_estimate_fails_the_check(workload):
    result = bench.run_workload(workload, 5, 0.5, False, small=True, plant=_add_offset)
    assert result["correct"] is False and result["failed"] >= 1
    assert any("rmse" in p for p in result["problems"])


def test_estimates_that_differ_between_episodes_fail_the_check():
    episodes = []

    def drift(dep):
        if dep not in episodes:
            episodes.append(dep)
        dep.estimate()[0, 0] += 1e-9 * len(episodes)

    result = bench.run_workload("mega-clean", 5, 0.5, False, small=True, plant=drift)
    assert result["correct"] is False
    assert any("differ" in p for p in result["problems"])


def test_planted_wrong_gateway_estimate_fails_the_check():
    def skew(doc):
        doc["field"] = [[v + 10.0 for v in row] for row in doc["field"]]

    result = bench.run_workload("gateway-live", 5, 1.0, False, small=True, plant=skew)
    assert result["correct"] is False
    assert any("rmse" in p for p in result["problems"])


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    proc = _cli("mega-clean", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the tracer ------------------------------------------------------------


def test_self_time_excludes_children_and_wrappers_restore():
    import importlib

    omp_mod = importlib.import_module("repro.core.omp")  # the package re-exports omp()
    mega = importlib.import_module("repro.sim.mega")
    original = omp_mod.omp
    tracer = Tracer()
    tracer.install([Target("core.omp", "repro.core.omp", "omp")])
    assert mega.omp is not original and omp_mod.omp is mega.omp
    tracer.uninstall()
    assert mega.omp is original and omp_mod.omp is original

    spans = {"busy": [10.0, 3.0, 2.0], "parents": [-1, 0, 0]}
    assert self_times(spans) == [5.0, 3.0, 2.0]


def test_coroutine_busy_time_leaves_out_suspension():
    import repro.gateway.protocol as protocol

    async def scenario():
        reader = asyncio.StreamReader()
        loop = asyncio.get_running_loop()
        loop.call_later(0.2, reader.feed_data, protocol.ws_encode("hi"))
        return await protocol.ws_read_message(reader)

    tracer = Tracer()
    tracer.install([Target("ws", "repro.gateway.protocol", "ws_read_message")])
    try:
        assert asyncio.run(scenario()) == (protocol.OP_TEXT, b"hi")
    finally:
        tracer.uninstall()
    (busy,) = tracer.busy
    (start,), (end,) = tracer.starts, tracer.ends
    assert end - start >= 0.15 and busy < 0.05
