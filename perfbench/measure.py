"""The measuring process of the forestq benchmark.

    python3 perfbench/measure.py SPEC.json WORKDIR

runs one workload against the inputs ``gen.py`` wrote to WORKDIR and
writes what it observed to ``WORKDIR/observed.json``: timings, answers,
list invariants, spans (when tracing), and peak RSS.  It does not judge
the answers; ``run.py`` compares them with the references afterwards.

This process only loads, runs and reads ``ru_maxrss``: generation and
reference solves happen in another process, and forest spot checks and
list-health scans happen after the read, so peak RSS is the program's.
The timed path uses the README library API plus ``len()`` and
``total_weight``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

pc = time.perf_counter


class Tracer:
    """In-memory spans: (name, start, end, parent index or -1).

    Each set-up, static query and event is a root span; calls into
    forestq are its children.  A disabled tracer records nothing.
    """

    def __init__(self, on: bool) -> None:
        self.on = on
        self.spans: list[tuple[str, float, float, int]] = []

    def root(self, name: str, start: float) -> int:
        """Open a root span; ``_close`` sets its end."""
        if self.on:
            self.spans.append((name, start, start, -1))
        return len(self.spans) - 1

    def call(self, parent: int, name: str, fn, *args):
        """Run ``fn(*args)``; return (result, seconds)."""
        t0 = pc()
        out = fn(*args)
        t1 = pc()
        if self.on:
            self.spans.append((name, t0, t1, parent))
        return out, t1 - t0


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def span_cost_s(reps: int = 20000) -> float:
    """Measured cost of recording one span, for the overhead estimate."""
    probe = Tracer(True)
    noop = int
    t0 = pc()
    for _ in range(reps):
        probe.call(-1, "probe", noop)
    t1 = pc()
    bare = Tracer(False)
    for _ in range(reps):
        bare.call(-1, "probe", noop)
    return max(0.0, ((t1 - t0) - (pc() - t1)) / reps)


def import_ms(reps: int) -> list[float]:
    """Wall time of ``import forestq.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import forestq.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(reps):
        res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, check=True)
        out.append(float(res.stdout.strip()) * 1e3)
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---- library workloads ----

def run_library(spec: dict, workdir: str) -> dict:
    sys.path.insert(0, SRC)
    from forestq import (EstimatorParams, ForestRng, PruneConfig, delete_update,
                         insert_update, load_edge_list, prune, required_samples,
                         sample_forest_list, sfq_query, sfqplus_query)

    with open(os.path.join(workdir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    graph_path = os.path.join(workdir, "graph.txt")
    tr = Tracer(spec["trace"])
    obs: dict = {"setup_s": [], "load_s": [], "sample_s": []}

    count = required_samples(EstimatorParams(spec["epsilon"], spec["delta"]), diagonal=True)
    obs["count"] = count
    per_forest_s: dict = {"sfq": [], "sfqplus": []}
    static_values, static_s = [], []

    def query(parent: int, i: int, j: int, method: str):
        if method == "sfq":
            est, dt = tr.call(parent, "estimators.sfq_query", sfq_query, forests, i, j)
        else:
            est, dt = tr.call(parent, "estimators.sfqplus_query", sfqplus_query, g, forests, i, j)
        if tr.on:
            per_forest_s[method].append(dt / len(forests))
        return est.value

    # Each set-up builds the same list from the same seed and runs the
    # static batch on it while it is fresh, so query latency is measured in
    # several windows of time instead of one short one.
    for _ in range(spec["setup_reps"]):
        g = forests = None
        t0 = pc()
        sid = tr.root("harness.setup", t0)
        res, t_load = tr.call(sid, "graph.load_edge_list", load_edge_list, graph_path, spec["mode"])
        g = res.graph
        forests, t_sample = tr.call(sid, "sampling.sample_forest_list",
                                    sample_forest_list, g, count, ForestRng(spec["seed"]))
        t1 = pc()
        _close(tr, sid, t1)
        obs["setup_s"].append(t1 - t0)
        obs["load_s"].append(t_load)
        obs["sample_s"].append(t_sample)
        for i, j, method in plan["static"]:
            t0 = pc()
            qid = tr.root("harness.static", t0)
            try:
                value = query(qid, i, j, method)
            except (ValueError, RuntimeError) as exc:
                value = repr(exc)
            t1 = pc()
            _close(tr, qid, t1)
            static_values.append(value)
            static_s.append(t1 - t0)
    obs["static_values"], obs["static_s"] = static_values, static_s
    obs["static_batch"] = len(plan["static"])
    obs["n"] = g.n
    fresh = _successors(forests, spec["spot_checks"])

    cfg = PruneConfig(count, spec["prune_factor"])
    prune_rng = ForestRng(spec["seed"] + 1)
    # Tuples of ints drop out of the garbage collector's scans, so the
    # planned stream does not add to the program's collection cost.
    events = [tuple(e) for e in plan.pop("events")]
    event_s, event_ok, tracked_values = [], [], []
    layer = {"insert_s": [], "delete_s": [], "prune_s": [], "spawned": [], "keep": []}
    churn_values = None
    # ``per_event`` tracked entries are re-estimated after every event, in
    # rotation through the pool, so the cost of an event does not hinge on
    # how deep a handful of nodes sit in their trees.
    pool, per_event = plan["tracked"], spec["tracked"]
    stream_start = pc()
    deadline = stream_start + spec["seconds"]
    for k, (kind, u, v) in enumerate(events):
        t0 = pc()
        eid = tr.root("harness.event", t0)
        ok = True
        try:
            if kind == "I":
                spawned, dt = tr.call(eid, "dynamic.insert_update", insert_update, g, forests, (u, v))
                layer["insert_s"].append(dt)
                layer["spawned"].append(spawned)
            else:
                _, dt = tr.call(eid, "dynamic.delete_update", delete_update, g, forests, (u, v))
                layer["delete_s"].append(dt)
            before = forests.total_weight
            if before > cfg.threshold:
                _, dt = tr.call(eid, "dynamic.prune", prune, forests, cfg, prune_rng)
                layer["prune_s"].append(dt)
                layer["keep"].append(cfg.threshold / before)
            values = [query(eid, *pool[(k * per_event + x) % len(pool)]) for x in range(per_event)]
            ok = count <= forests.total_weight <= cfg.threshold
        except (ValueError, RuntimeError, OverflowError) as exc:
            values, ok = [repr(exc)], False
        t1 = pc()
        _close(tr, eid, t1)
        event_s.append(t1 - t0)
        event_ok.append(ok)
        tracked_values.append(values)
        if not ok:
            break
        if k + 1 == spec["churn_events"]:
            # Untimed: the error after a fixed amount of churn, so that
            # a faster program (more events in the budget) reads the same.
            paused = pc()
            churn_values = [sfqplus_query(g, forests, i, j).value for i, j, _ in plan["churn"]]
            deadline += pc() - paused
        if k + 1 >= spec["min_events"] and pc() >= deadline:
            break
    obs["event_s"], obs["event_ok"], obs["tracked_values"] = event_s, event_ok, tracked_values
    obs["events_done"] = len(event_s)
    obs["churn_values"] = churn_values
    obs["final_distinct"], obs["final_weight"] = len(forests), forests.total_weight
    obs["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)

    # Everything below runs after the RSS read.
    final = _successors(forests, spec["spot_checks"])
    _save_rows(workdir, fresh, final)
    obs["layer"] = layer
    if spec["trace"]:
        weights = [f.multiplicity for f in forests]
        obs["ess"] = sum(weights) ** 2 / sum(w * w for w in weights)
        obs["spans"] = tr.spans
        obs["per_forest_s"] = per_forest_s
        obs["span_cost_s"] = span_cost_s()
        obs["import_ms"] = import_ms(spec["import_reps"])
    return obs


def _close(tr: Tracer, sid: int, end: float) -> None:
    if tr.on:
        name, start, _, parent = tr.spans[sid]
        tr.spans[sid] = (name, start, end, parent)


def _successors(forests, k: int) -> list:
    """Copies of the successor arrays of up to k forests, spread over the list."""
    items = list(forests)
    step = max(1, len(items) // max(k, 1))
    return [items[x].successor.copy() for x in range(0, len(items), step)][:k]


def _save_rows(workdir: str, fresh: list, final: list) -> None:
    rows = {"fresh": [a.tolist() for a in fresh], "final": [a.tolist() for a in final]}
    with open(os.path.join(workdir, "forests.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


# ---- CLI workload ----

def run_cli(spec: dict, workdir: str) -> dict:
    with open(os.path.join(workdir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    graph_path = os.path.join(workdir, "graph.txt")
    env = child_env()
    wall, outputs = [], []
    start = pc()
    for k, (seed, i) in enumerate(plan["requests"]):
        cmd = [sys.executable, "-m", "forestq.cli", "--graph", graph_path, "--seed", str(seed),
               "--epsilon", str(spec["epsilon"]), "query", str(i), str(i)]
        t0 = pc()
        res = subprocess.run(cmd, env=env, capture_output=True, text=True)
        t1 = pc()
        wall.append(t1 - t0)
        outputs.append([res.returncode, res.stdout, res.stderr[-500:]])
        if k + 1 >= spec["min_requests"] and t1 - start >= spec["seconds"]:
            break
    obs: dict = {"request_s": wall, "outputs": outputs, "elapsed_s": pc() - start}
    obs["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if spec["trace"]:
        sys.path.insert(0, SRC)
        from forestq import load_edge_list

        load_s = []
        for _ in range(spec["import_reps"]):
            t0 = pc()
            load_edge_list(graph_path, spec["mode"])
            load_s.append(pc() - t0)
        obs["load_s"] = load_s
        obs["span_cost_s"] = span_cost_s()
        obs["import_ms"] = import_ms(spec["import_reps"])
    return obs


def main(spec_path: str, workdir: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    obs = run_cli(spec, workdir) if spec["kind"] == "cli" else run_library(spec, workdir)
    with open(os.path.join(workdir, "observed.json"), "w", encoding="utf-8") as fh:
        json.dump(obs, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: measure.py SPEC.json WORKDIR")
    main(sys.argv[1], sys.argv[2])
