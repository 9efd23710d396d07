"""Tests of the benchmark itself; run from the checkout root with

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps it out of the library's own test collection: the two
traced rounds per workload take about a minute.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, exact_nn_distances  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def is_count(name: str, unit: str) -> bool:
    return unit in ("count", "B") or name.endswith(".evals_per_point")


def test_benchmark_json_lists_what_the_runs_report():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(LAYER_METRICS)
    for m in BENCHMARK["per_layer"]:
        assert (m["unit"], m["better"]) == LAYER_METRICS[m["name"]]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    rounds = [{"calls": [{"wall_s": 1.0, "exit": 0}], "import_s": 0.5,
               "peak_rss_kb": 1024}]
    reported = run.untraced_metrics(rounds, WORKLOADS["fit_ellipsoid"], [0.5])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: m["unit"] for name, m in reported.items()
    }


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    time.sleep(0.02)
    tracer.close(inner, 5)
    time.sleep(0.01)
    tracer.close(outer)
    agg = tracer.aggregate()
    assert agg["b"]["count"] == 5 and agg["a"]["calls"] == 1
    assert agg["a"]["total_s"] == pytest.approx(
        agg["a"]["self_s"] + agg["b"]["total_s"], abs=1e-12
    )
    assert 0.005 < agg["a"]["self_s"] < agg["b"]["self_s"]


def test_installed_wrappers_are_removed_afterwards():
    import flowmesh.deform

    original = flowmesh.deform.sample_grid
    with Tracer().installed():
        assert flowmesh.deform.sample_grid is not original
    assert flowmesh.deform.sample_grid is original


def test_exact_nn_matches_all_pairs_search():
    rng = np.random.default_rng(7)
    for a_shape, b_scale in (((700, 3), 1.0), ((300, 3), 3.0)):
        a = rng.normal(size=a_shape)
        b = rng.normal(size=(500, 3)) * b_scale
        brute = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min(axis=1)
        assert np.array_equal(exact_nn_distances(a, b), brute)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(name, tmp_path):
    """Two traced rounds of the same seed give identical counts, and pass."""
    workload = WORKLOADS[name](tmp_path, 3, tmp_path / "cache")
    workload.prepare()
    workload.run_checks()
    run.write_spec(tmp_path, workload)
    env = run.child_env()
    layers = []
    for index in (0, 1):
        result = run.run_round(tmp_path, index, True, env, time.monotonic() + 170)
        assert workload.check_round(index, [c["exit"] for c in result["calls"]]) == []
        layers.append(result["layers"])
    counts = [
        {k: v for k, v in rnd.items() if is_count(k, LAYER_METRICS[k][0])}
        for rnd in layers
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_ellipsoid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_layer_metrics_of_an_empty_trace_are_zero():
    values = layer_metrics(Tracer())
    assert set(values) <= set(LAYER_METRICS)
    assert all(v == 0 for v in values.values())
