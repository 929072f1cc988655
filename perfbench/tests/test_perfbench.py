"""Tests of the benchmark itself.

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == wl.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    p = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
              "--trace", str(trace), "--tiny"])
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
    assert report["provenance"]["threads"]["MIXFORMER_NUM_THREADS"] == "1"
    for name, m in report["end_to_end"].items():
        assert m["unit"] == run.END_TO_END_UNITS[name] and m["samples"] >= 1


@pytest.fixture(scope="module")
def served():
    mx = run.import_package(ROOT)
    w = wl.tiny(wl.WORKLOADS["serve_wide"])
    inp = wl.set_up(mx, w, seed=7)
    outputs = {i: wl.run_op(mx, w, inp, i) for i in range(3)}
    return mx, w, inp, outputs


def test_gate_passes_unperturbed_scores(served):
    mx, w, inp, outputs = served
    gate = wl.check_serving(mx, w, inp, outputs, [0, 1, 2])
    assert gate.failed == set() and gate.meter_minus_trace == 0
    wl.baseline_pass(mx, w, inp, outputs, gate)
    assert gate.failed == set()


def test_perturbed_score_counts_as_failed_op(served):
    mx, w, inp, outputs = served
    bad = {i: o.copy() for i, o in outputs.items()}
    bad[1][0, 0] *= 1.0 + 1e-6
    gate = wl.check_serving(mx, w, inp, bad, [0, 1, 2])
    assert gate.failed == {1}
    gate = wl.GateResult()
    wl.baseline_pass(mx, w, inp, bad, gate)
    assert gate.failed == {1}


def test_non_finite_score_fails_even_when_not_sampled(served):
    mx, w, inp, outputs = served
    bad = {i: o.copy() for i, o in outputs.items()}
    bad[2][0, 1] = np.nan
    assert wl.check_serving(mx, w, inp, bad, [0]).failed == {2}


def test_non_finite_loss_fails_train_op():
    mx = run.import_package(ROOT)
    w = wl.tiny(wl.WORKLOADS["train"])
    inp = wl.set_up(mx, w, seed=7)
    gate = wl.check_train(mx, w, inp, {0: 0.7, 1: float("inf")}, [0])
    assert gate.failed == {1} and gate.meter_minus_trace == 0


def test_tail_latency_keeps_ten_samples_above():
    assert run.tail_latency(list(range(1000)))[1] == 99.0
    value, pct = run.tail_latency(list(range(100)))
    assert value == 89 and pct == 90.0
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_repeat_stream_reuses_user_and_sequence():
    mx = run.import_package(ROOT)
    w = wl.tiny(wl.WORKLOADS["serve_longseq_repeat"])
    inp = wl.set_up(mx, w, seed=3)
    assert 0.0 < wl.repeat_share(inp.pool) < 1.0
    assert len({r.candidates.tobytes() for r in inp.pool}) == len(inp.pool)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(["--workload", "serve_wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
             cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
