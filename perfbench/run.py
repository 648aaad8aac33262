"""forestq benchmark: seeded closed-loop workloads, checked answers, metrics.

    PYTHONPATH=src python3 perfbench/run.py --workload oneway-1e5 --seed 1 \\
        --seconds 10 --trace 0

Each run generates its inputs from ``--seed`` (``gen.py``, a separate
process), runs the workload in a fresh measuring process (``measure.py``),
checks every answer against the generator's reference, prints one
``name value unit`` line per metric and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` records spans around every call into
forestq and reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

# Workload parameters.  Sizes come from the north-star workloads; the
# counts of checked entries are what keeps each metric's run-to-run spread
# small (see README.md).
WORKLOADS: dict[str, dict] = {
    "oneway-1e5": {
        "kind": "library", "n": 100_000, "pairs": 400_000, "mode": "directed",
        "epsilon": 0.1, "delta": 0.01, "prune_factor": 5.0, "setup_reps": 3,
        "static_columns": 48, "static_per_column": 16, "tracked": 1, "tracked_pool": 64,
        "churn_events": 200, "churn_columns": 96, "churn_entries": "one-hop",
        "min_events": 200, "max_events": 100_000, "spot_checks": 4, "import_reps": 5,
    },
    "recip-1e4": {
        "kind": "library", "n": 10_000, "pairs": 20_000, "mode": "undirected",
        "epsilon": 0.03, "delta": 0.01, "prune_factor": 5.0, "setup_reps": 3,
        "static_columns": 32, "static_per_column": 8, "tracked": 8, "tracked_pool": 64,
        "churn_events": 200, "churn_columns": 128, "churn_entries": "diagonal",
        "min_events": 200, "max_events": 4_000, "spot_checks": 4, "import_reps": 5,
    },
    "cli-1e3": {
        "kind": "cli", "n": 1_000, "pairs": 4_000, "mode": "directed",
        "epsilon": 0.1, "delta": 0.01, "min_requests": 100, "max_requests": 400,
        "import_reps": 5,
    },
}

END_TO_END = {
    "setup_s": "s", "query_p50_ms": "ms", "query_p95_ms": "ms", "events_per_s": "1/s",
    "event_p95_ms": "ms", "request_p50_ms": "ms",
    "request_p90_ms": "ms", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.load_ms": "ms", "sampling.forest_ms": "ms",
    "estimators.sfqplus_us_per_forest": "us", "estimators.sfq_us_per_forest": "us",
    "dynamic.insert_ms": "ms", "dynamic.delete_ms": "ms", "dynamic.prune_ms": "ms",
    "dynamic.spawned_per_insert": "count", "dynamic.prune_rate": "1/event",
    "dynamic.prune_keep_ratio": "ratio", "forest.distinct": "count", "forest.weight": "count",
    "forest.ess": "count", "forest.succ_mb_computed": "MB", "cli.import_ms": "ms",
    "cli.request_overhead_ms": "ms", "graph.self_s": "s", "sampling.self_s": "s",
    "estimators.self_s": "s", "dynamic.self_s": "s", "cli.self_s": "s",
    "harness.self_s": "s", "trace.spans": "count", "trace.overhead_pct": "%",
    "churn_rel_err": "ratio",
}

# A checked answer may miss its reference by this many epsilons (absolute
# off the diagonal, relative on it).  The Bernstein bound behind
# required_samples puts a miss this large near 1e-7 for a correct sampler.
TOLERANCE_EPS = 3.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


# ---- correctness ----

def answer_ok(value, ref: float, diagonal: bool, epsilon: float) -> bool:
    """A checked answer is finite, in [0, 1] and within 3 epsilon of ref."""
    if not in_unit(value):
        return False
    miss = abs(value - ref)
    return miss <= TOLERANCE_EPS * epsilon * (ref if diagonal else 1.0)


def in_unit(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def forest_errors(successor, edge_keys: np.ndarray) -> list[str]:
    """Why ``successor`` is not a spanning converging forest of the graph.

    ``edge_keys`` holds u * n + v for every directed edge (u, v), sorted.
    """
    succ = np.asarray(successor, dtype=np.int64)
    n = len(succ)
    errors = []
    tails = np.flatnonzero(succ >= 0)
    absent = tails[~np.isin(tails * n + succ[tails], edge_keys)]
    if len(absent):
        u = int(absent[0])
        errors.append(f"{len(absent)} successor edges not in graph, e.g. ({u}, {int(succ[u])})")
    jump = np.where(succ < 0, np.arange(n), succ)
    for _ in range(max(1, n).bit_length() + 1):
        jump = jump[jump]
    if np.any(succ[jump] >= 0):
        errors.append("successor chains contain a cycle")
    return errors


def edge_keys(n: int, path: str, mode: str, events: list, done: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted u * n + v keys of the graph before and after ``done`` events."""
    pairs = np.loadtxt(path, dtype=np.int64, ndmin=2)
    if mode == "undirected":
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    initial = np.unique(pairs[:, 0] * n + pairs[:, 1])
    final = set(initial.tolist())
    for kind, u, v in events[:done]:
        (final.add if kind == "I" else final.discard)(u * n + v)
    return initial, np.array(sorted(final), dtype=np.int64)


def judge_library(spec: dict, plan: dict, ref: dict, obs: dict, workdir: str) -> tuple[int, int, list]:
    eps = spec["epsilon"]
    attempted = failed = 0
    notes = []
    attempted += len(obs["setup_s"])
    reps = len(obs["static_values"]) // len(plan["static"])
    for (i, j, method), value, r in zip(plan["static"] * reps, obs["static_values"],
                                        ref["static"] * reps):
        attempted += 1
        if not answer_ok(value, r, i == j, eps):
            failed += 1
            notes.append(f"static ({i},{j},{method}) = {value!r}, reference {r:.6g}")
    for k, (ok, values) in enumerate(zip(obs["event_ok"], obs["tracked_values"])):
        attempted += 1
        if not ok or not all(in_unit(v) for v in values):
            failed += 1
            notes.append(f"event {k}: invariant broken or bad answer {values!r}")
    churn = obs["churn_values"]
    if churn is None:
        attempted += 1
        failed += 1
        notes.append(f"stream stopped before the churn checkpoint at {spec['churn_events']} events")
    else:
        for value in churn:
            attempted += 1
            if not in_unit(value):
                failed += 1
                notes.append(f"churn answer {value!r}")
    with open(os.path.join(workdir, "forests.json"), encoding="utf-8") as fh:
        rows = json.load(fh)
    initial, final = edge_keys(spec["n"], os.path.join(workdir, "graph.txt"), spec["mode"],
                               plan["events"], obs["events_done"])
    for label, edges in (("fresh", initial), ("final", final)):
        for succ in rows[label]:
            attempted += 1
            errs = forest_errors(succ, edges)
            if errs:
                failed += 1
                notes.append(f"{label} forest: {'; '.join(errs)}")
    return attempted, failed, notes


def chunked_rate(seconds: list[float], chunks: int = 10) -> float:
    """Median over ``chunks`` equal slices of the operations per second.

    A stall from another process on a shared machine slows one slice and
    leaves the median alone.
    """
    k = max(1, len(seconds) // chunks)
    return statistics.median(k / sum(seconds[c:c + k]) for c in range(0, len(seconds) - k + 1, k))


def rel_err(values: list[float], refs: list[float]) -> float:
    return statistics.fmean(abs(v - r) / r for v, r in zip(values, refs))


def parse_request(stdout: str) -> dict:
    """Fields of the CLI's ``entry=... value=... samples=...`` line."""
    line = stdout.strip().splitlines()[-1]
    fields = dict(tok.split("=", 1) for tok in line.split())
    return {"value": float(fields["value"]), "samples": int(fields["samples"]),
            "sample_s": float(fields["sample_seconds"]),
            "query_s": float(fields["query_seconds"])}


def judge_cli(spec: dict, plan: dict, ref: dict, obs: dict) -> tuple[list, int, list]:
    parsed, failed, notes = [], 0, []
    for k, (code, out, err) in enumerate(obs["outputs"]):
        i = plan["requests"][k][1]
        try:
            if code != 0:
                raise ValueError(f"exit {code}: {err.strip()}")
            req = parse_request(out)
        except (ValueError, KeyError, IndexError) as exc:
            failed += 1
            notes.append(f"request {k} ({i},{i}): {exc}")
            parsed.append(None)
            continue
        if not answer_ok(req["value"], ref["requests"][k], True, spec["epsilon"]):
            failed += 1
            notes.append(f"request {k} ({i},{i}) = {req['value']!r}, "
                         f"reference {ref['requests'][k]:.6g}")
        parsed.append(req)
    return parsed, failed, notes


# ---- metrics ----

def windowed_quantile(values: list[float], window: int, q: float) -> float:
    """Median over consecutive windows of ``window`` values of their q-quantile.

    Each window is the static batch on one fresh list; a window that a
    noisy neighbour slowed moves its own quantile, not the median.
    """
    return statistics.median(quantile(values[c:c + window], q)
                             for c in range(0, len(values) - window + 1, window))


def library_metrics(obs: dict) -> dict:
    static_ms = [t * 1e3 for t in obs["static_s"]]
    batch = obs["static_batch"]
    return {
        "setup_s": statistics.median(obs["setup_s"]),
        "query_p50_ms": windowed_quantile(static_ms, batch, 0.50),
        "query_p95_ms": windowed_quantile(static_ms, batch, 0.95),
        "events_per_s": chunked_rate(obs["event_s"]),
        "event_p95_ms": quantile(obs["event_s"], 0.95) * 1e3,
        "request_p50_ms": windowed_quantile(static_ms, batch, 0.50),
        "request_p90_ms": windowed_quantile(static_ms, batch, 0.90),
        "peak_rss_mb": obs["peak_rss_mb"],
    }


def cli_metrics(obs: dict, parsed: list) -> dict:
    wall_ms = [t * 1e3 for t in obs["request_s"]]
    good = [(k, p) for k, p in enumerate(parsed) if p is not None]
    setup = [obs["request_s"][k] - p["query_s"] for k, p in good]
    return {
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "query_p50_ms": quantile(wall_ms, 0.50),
        "query_p95_ms": quantile(wall_ms, 0.95),
        "events_per_s": chunked_rate(obs["request_s"]),
        "event_p95_ms": quantile(wall_ms, 0.95),
        "request_p50_ms": quantile(wall_ms, 0.50),
        "request_p90_ms": quantile(wall_ms, 0.90),
        "peak_rss_mb": obs["peak_rss_mb"],
    }


def self_times(spans: list) -> dict:
    """Self seconds per layer: span length minus its children's."""
    self_s = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    out: dict = {}
    for (name, *_), t in zip(spans, self_s):
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def _median(values: list[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def library_layers(spec: dict, ref: dict, obs: dict) -> dict:
    lay = obs["layer"]
    spans = obs["spans"]
    per = self_times(spans)
    traced = sum(end - start for _, start, end, parent in spans if parent < 0)
    n, count = obs["n"], obs["count"]
    out = {
        "graph.load_ms": _median(obs["load_s"], 1e3),
        "sampling.forest_ms": _median(obs["sample_s"], 1e3) / count,
        "estimators.sfqplus_us_per_forest": _median(obs["per_forest_s"]["sfqplus"], 1e6),
        "estimators.sfq_us_per_forest": _median(obs["per_forest_s"]["sfq"], 1e6),
        "dynamic.insert_ms": _median(lay["insert_s"], 1e3),
        "dynamic.delete_ms": _median(lay["delete_s"], 1e3),
        "dynamic.prune_ms": _median(lay["prune_s"], 1e3),
        "dynamic.spawned_per_insert": statistics.fmean(lay["spawned"]) if lay["spawned"] else 0.0,
        "dynamic.prune_rate": len(lay["prune_s"]) / obs["events_done"],
        "dynamic.prune_keep_ratio": statistics.fmean(lay["keep"]) if lay["keep"] else 0.0,
        "forest.distinct": obs["final_distinct"],
        "forest.weight": obs["final_weight"],
        "forest.ess": obs["ess"],
        "forest.succ_mb_computed": obs["final_distinct"] * n * 4 / 1e6,
        "cli.import_ms": _median(obs["import_ms"]),
        "cli.request_overhead_ms": 0.0,
        "trace.spans": len(spans),
        "trace.overhead_pct": 100.0 * len(spans) * obs["span_cost_s"] / traced,
        "churn_rel_err": rel_err(obs["churn_values"], ref["churn"]) if obs["churn_values"] else float("nan"),
    }
    for layer in ("graph", "sampling", "estimators", "dynamic", "cli", "harness"):
        out[f"{layer}.self_s"] = per.get(layer, 0.0)
    return out


def cli_layers(spec: dict, ref: dict, obs: dict, parsed: list) -> dict:
    good = [(obs["request_s"][k], p) for k, p in enumerate(parsed) if p is not None]
    answers = [(p["value"], ref["requests"][k]) for k, p in enumerate(parsed) if p is not None]
    count = good[0][1]["samples"] if good else 0
    sample = [p["sample_s"] for _, p in good]
    query = [p["query_s"] for _, p in good]
    overhead = [w - p["sample_s"] - p["query_s"] for w, p in good]
    spans = 3 * len(good)
    return {
        "graph.load_ms": _median(obs["load_s"], 1e3),
        "sampling.forest_ms": _median(sample, 1e3) / max(count, 1),
        "estimators.sfqplus_us_per_forest": _median(query, 1e6) / max(count, 1),
        "estimators.sfq_us_per_forest": 0.0,
        "dynamic.insert_ms": 0.0, "dynamic.delete_ms": 0.0, "dynamic.prune_ms": 0.0,
        "dynamic.spawned_per_insert": 0.0, "dynamic.prune_rate": 0.0,
        "dynamic.prune_keep_ratio": 0.0,
        "forest.distinct": count, "forest.weight": count, "forest.ess": float(count),
        "forest.succ_mb_computed": count * spec["n"] * 4 / 1e6,
        "cli.import_ms": _median(obs["import_ms"]),
        "cli.request_overhead_ms": _median(overhead, 1e3),
        "graph.self_s": 0.0, "sampling.self_s": sum(sample), "estimators.self_s": sum(query),
        "dynamic.self_s": 0.0, "cli.self_s": sum(overhead),
        "harness.self_s": obs["elapsed_s"] - sum(obs["request_s"]),
        "trace.spans": spans,
        "trace.overhead_pct": 100.0 * spans * obs["span_cost_s"] / obs["elapsed_s"],
        "churn_rel_err": rel_err(*zip(*answers)) if answers else float("nan"),
    }


# ---- running a workload ----

def _python(script: str, *args: str) -> None:
    res = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                         capture_output=True, text=True)
    if res.returncode != 0:
        raise BenchError(f"{script} failed with exit {res.returncode}:\n{res.stderr[-3000:]}")


def run_workload(spec: dict, workdir: str) -> dict:
    """Generate, measure and judge one run; return the result object."""
    os.makedirs(workdir, exist_ok=True)
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    _python("gen.py", spec_path, workdir)
    _python("measure.py", spec_path, workdir)
    with open(os.path.join(workdir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    with open(os.path.join(workdir, "ref.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    with open(os.path.join(workdir, "observed.json"), encoding="utf-8") as fh:
        obs = json.load(fh)
    if spec["kind"] == "cli":
        parsed, failed, notes = judge_cli(spec, plan, ref, obs)
        attempted = len(parsed)
        metrics = cli_layers(spec, ref, obs, parsed) if spec["trace"] else cli_metrics(obs, parsed)
    else:
        attempted, failed, notes = judge_library(spec, plan, ref, obs, workdir)
        metrics = library_layers(spec, ref, obs) if spec["trace"] else library_metrics(obs)
    units = PER_LAYER if spec["trace"] else END_TO_END
    bad = [name for name in units if not math.isfinite(metrics[name])]
    if bad:
        # Only a run with failed operations lacks a figure; keep the JSON valid.
        notes.append(f"no value for {', '.join(bad)}")
        metrics.update(dict.fromkeys(bad, 0.0))
    return {
        "correct": failed == 0 and not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "notes": notes,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "forestq", "__init__.py")):
        print("error: src/forestq not found; run from a forestq checkout", file=sys.stderr)
        return 2
    spec = dict(WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
                trace=bool(args.trace))
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = run_workload(spec, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it
    for note in result.pop("notes")[:20]:
        print(f"FAIL {note}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
