"""Tests of the benchmark itself: its checks catch wrong answers and broken
forests, its generator keeps the loader's ids, and a tiny run of every
workload reports every metric.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import run  # noqa: E402

TINY = {
    "oneway-1e5": {"n": 300, "pairs": 1200, "static_columns": 4, "churn_columns": 4,
                   "setup_reps": 2, "churn_events": 20, "min_events": 30, "max_events": 400,
                   "import_reps": 1},
    "recip-1e4": {"n": 200, "pairs": 400, "static_columns": 4, "churn_columns": 8,
                  "setup_reps": 2, "churn_events": 20, "min_events": 30, "max_events": 400,
                  "import_reps": 1},
    "cli-1e3": {"n": 100, "pairs": 400, "min_requests": 3, "max_requests": 10, "import_reps": 1},
}


def tiny_run(name: str, trace: bool, tmp_path) -> dict:
    spec = dict(run.WORKLOADS[name], **TINY[name], seed=5, seconds=0.2, trace=trace)
    return run.run_workload(spec, str(tmp_path / f"{name}-{int(trace)}"))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_reports_every_metric(name, tmp_path):
    for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        res = tiny_run(name, trace, tmp_path)
        assert res["notes"] == []
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == set(names)
        for metric in res["metrics"].values():
            assert np.isfinite(metric["value"])
    named = {
        "setup_s", "query_p50_ms", "query_p95_ms", "events_per_s", "event_p95_ms",
        "churn_rel_err", "request_p50_ms", "request_p90_ms", "peak_rss_mb",
        "graph.load_ms", "sampling.forest_ms", "estimators.sfqplus_us_per_forest",
        "estimators.sfq_us_per_forest", "dynamic.insert_ms", "dynamic.delete_ms",
        "dynamic.prune_ms", "dynamic.spawned_per_insert", "dynamic.prune_rate",
        "dynamic.prune_keep_ratio", "forest.distinct", "forest.weight", "forest.ess",
        "forest.succ_mb_computed", "cli.import_ms", "cli.request_overhead_ms"}
    assert named <= set(run.END_TO_END) | set(run.PER_LAYER)


def test_wrong_estimate_is_a_failed_operation():
    eps = 0.1
    assert run.answer_ok(0.2, 0.2, True, eps)
    assert not run.answer_ok(0.2 * (1 + 3.5 * eps), 0.2, True, eps)
    assert not run.answer_ok(0.05 + 3.5 * eps, 0.05, False, eps)
    assert not run.answer_ok(float("nan"), 0.2, True, eps)
    assert not run.answer_ok(1.5, 1.0, True, eps)
    assert not run.answer_ok("ValueError('forest list is empty')", 0.2, True, eps)


def test_wrong_cli_answer_is_counted_failed():
    spec = {"epsilon": 0.1}
    plan = {"requests": [[1, 0], [2, 1]]}
    ref = {"requests": [0.25, 0.25]}
    line = "entry=({i},{i}) method=sfqplus value={v} samples=168 sample_seconds=0.03 query_seconds=0.0002"
    obs = {"outputs": [[0, line.format(i=0, v=0.25), ""], [0, line.format(i=1, v=0.9), ""]]}
    parsed, failed, notes = run.judge_cli(spec, plan, ref, obs)
    assert failed == 1 and parsed[0]["value"] == 0.25
    assert "request 1" in notes[0]


def test_wrong_estimate_and_injected_cycle_are_failed_operations(tmp_path):
    spec = dict(run.WORKLOADS["oneway-1e5"], **TINY["oneway-1e5"], seed=9, seconds=0.2,
                trace=False)
    workdir = tmp_path / "run"
    assert run.run_workload(spec, str(workdir))["failed"] == 0
    plan, ref, obs = (json.loads((workdir / f"{name}.json").read_text())
                      for name in ("plan", "ref", "observed"))
    assert plan["static"][0][0] == plan["static"][0][1]  # a diagonal entry
    obs["static_values"][0] = ref["static"][0] * (1 + 4 * spec["epsilon"])
    _, failed, notes = run.judge_library(spec, plan, ref, obs, str(workdir))
    assert failed == 1 and notes[0].startswith("static")

    obs["static_values"][0] = ref["static"][0]
    rows = json.loads((workdir / "forests.json").read_text())
    rows["fresh"][0][0], rows["fresh"][0][1] = 1, 0  # as validate --inject-cycle does
    (workdir / "forests.json").write_text(json.dumps(rows))
    _, failed, notes = run.judge_library(spec, plan, ref, obs, str(workdir))
    assert failed == 1 and "cycle" in notes[0]


def test_injected_cycle_is_a_failed_operation():
    # The 3-cycle 0 -> 1 -> 2 -> 0 and its forest rooted at 2.
    n = 3
    keys = np.array(sorted(u * n + v for u, v in [(0, 1), (1, 2), (2, 0)]))
    assert run.forest_errors([1, 2, -1], keys) == []
    # The same corruption as ``forestq validate --inject-cycle``.
    assert "cycle" in " ".join(run.forest_errors([1, 0, -1], keys))
    assert "not in graph" in " ".join(run.forest_errors([2, -1, -1], keys))


def test_generator_ids_match_first_appearance(tmp_path):
    sys.path.insert(0, run.os.path.join(run.ROOT, "src"))
    from forestq import load_edge_list

    rng = np.random.Generator(np.random.Philox(7))
    edges = gen.relabel_first_appearance(gen.random_pair_graph(rng, 500, 2000))
    path = tmp_path / "g.txt"
    gen.write_edges(str(path), edges)
    g = load_edge_list(str(path)).graph
    assert g.n == 500 and g.m == 2000
    assert all(g.has_edge(int(u), int(v)) for u, v in edges)
    assert not any(g.has_edge(int(v), int(u)) for u, v in edges)


def test_reference_matches_dense_solve():
    rng = np.random.Generator(np.random.Philox(11))
    n = 2500
    edges = gen.random_pair_graph(rng, n, 4 * n)
    cols = [0, 7, 99]
    jacobi = gen.forest_columns(n, edges, cols)
    deg = np.bincount(edges[:, 0], minlength=n)
    m = np.diag(1.0 + deg)
    np.add.at(m, (edges[:, 0], edges[:, 1]), -1.0)
    dense = np.linalg.solve(m, np.eye(n)[:, cols])
    assert np.abs(jacobi - dense).max() < 1e-10
