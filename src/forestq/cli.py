"""Command-line front end.

Subcommands:

* ``query``    estimate one forest-matrix entry from fresh samples
* ``replay``   apply an update stream, tracking the maintained forest list
* ``validate`` self-checks: oracle cross-check, forest validity, uniformity

All CSV output starts with ``#`` comment lines echoing the full run
configuration.  With a fixed ``--seed`` the CSV content is byte-for-byte
reproducible; wall-clock timings are kept out of it
(``replay`` writes them to a separate file on request).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
import time
from typing import Callable, Iterator, Sequence

from . import oracle
from .dynamic import (PruneConfig, UpdateEvent, apply_stream, delete_update, insert_update,
                      parse_update_stream)
from .estimators import EntryEstimate, EstimatorParams, required_samples, sfq_query, sfqplus_query
from .forest import Forest, ForestList
from .graph import Digraph, load_edge_list, random_digraph
from .sampling import ForestRng, sample_forest_list


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="forestq",
        description="Forest-matrix entry estimation via sampled spanning converging forests.",
    )
    p.add_argument("--graph", metavar="PATH", help="edge-list file (u v per line)")
    p.add_argument("--mode", choices=("directed", "undirected"), default="directed",
                   help="undirected inserts both directions per line")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--epsilon", type=float, default=0.03, help="accuracy target")
    p.add_argument("--delta", type=float, default=0.01, help="failure probability")
    p.add_argument("--prune-factor", type=float, default=5.0,
                   help="forest list cap as a multiple of its seed size")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="estimate one entry (i, j)")
    q.add_argument("i", type=int)
    q.add_argument("j", type=int)
    q.add_argument("--method", choices=("sfq", "sfqplus"), default="sfqplus")
    q.add_argument("--samples", type=int, help="override the derived sample count")

    r = sub.add_parser("replay", help="apply an update stream")
    r.add_argument("--stream", required=True, metavar="PATH",
                   help="update file, one 'I u v' or 'D u v' per line")
    r.add_argument("--out", metavar="PATH", help="results CSV (default stdout)")
    r.add_argument("--query", action="append", default=[], metavar="I,J[,METHOD]",
                   help="entry re-estimated after every event; repeatable")
    r.add_argument("--samples", type=int, help="seed list size override")
    r.add_argument("--timings-out", metavar="PATH",
                   help="per-event wall times CSV (not reproducible by nature)")

    v = sub.add_parser("validate", help="run the invariant battery")
    v.add_argument("--random", type=int, metavar="N", default=0,
                   help="cross-check N random digraphs (n <= 5) as well")
    v.add_argument("--samples", type=int, default=20000,
                   help="sample count for the uniformity check")
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = {
        "query": cmd_query,
        "replay": cmd_replay,
        "validate": cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---- shared plumbing ----

def _load(args: argparse.Namespace) -> Digraph:
    if not args.graph:
        raise ValueError(f"{args.command} requires --graph")
    res = load_edge_list(args.graph, args.mode)
    if res.duplicates_dropped or res.self_loops_dropped:
        print(
            f"note: dropped {res.duplicates_dropped} duplicate edges, "
            f"{res.self_loops_dropped} self-loops",
            file=sys.stderr,
        )
    return res.graph


def _params(args: argparse.Namespace) -> EstimatorParams:
    try:
        return EstimatorParams(args.epsilon, args.delta)
    except ValueError as exc:  # the message starts with the field, which the option names
        raise ValueError(f"--{str(exc).split()[0]}: {exc}") from None


def _config_lines(args: argparse.Namespace, g: Digraph) -> list[str]:
    return [
        f"# forestq {args.command}",
        f"# graph={args.graph} mode={args.mode} seed={args.seed} epsilon={args.epsilon}"
        f" delta={args.delta} prune_factor={args.prune_factor}",
        f"# n={g.n} m={g.m}",
    ]


def _entry(method: str, g: Digraph, forests: ForestList, i: int, j: int) -> EntryEstimate:
    """Entry (i, j) by ``method``, "sfq" or "sfqplus"."""
    return sfq_query(forests, i, j) if method == "sfq" else sfqplus_query(g, forests, i, j)


@contextlib.contextmanager
def _open_out(path: str | None) -> Iterator:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


# ---- query ----

def cmd_query(args: argparse.Namespace) -> int:
    g = _load(args)
    i, j = args.i, args.j
    for x in (i, j):
        if not 0 <= x < g.n:
            raise ValueError(f"node {x} out of range [0, {g.n})")
    count = args.samples
    if count is None:
        count = required_samples(_params(args), g.out_degree(j), diagonal=(i == j))
    if count < 1:
        raise ValueError("--samples must be >= 1")
    rng = ForestRng(args.seed)
    t0 = time.perf_counter()
    forests = sample_forest_list(g, count, rng)
    t1 = time.perf_counter()
    est = _entry(args.method, g, forests, i, j)
    t2 = time.perf_counter()
    print(
        f"entry=({i},{j}) method={est.estimator} value={est.value!r} "
        f"samples={count} sample_seconds={t1 - t0:.4f} query_seconds={t2 - t1:.4f}"
    )
    return 0


# ---- replay ----

def _parse_query_specs(specs: list[str], n: int) -> list[tuple[int, int, str]]:
    out = []
    for spec in specs:
        parts = spec.split(",")
        try:
            if len(parts) not in (2, 3):
                raise ValueError
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad --query {spec!r}, expected I,J[,METHOD]") from None
        method = parts[2] if len(parts) == 3 else "sfqplus"
        if method not in ("sfq", "sfqplus"):
            raise ValueError(f"bad --query method {method!r}")
        for x in (i, j):
            if not 0 <= x < n:
                raise ValueError(f"--query node {x} out of range [0, {n})")
        out.append((i, j, method))
    return out


def cmd_replay(args: argparse.Namespace) -> int:
    g = _load(args)
    events = parse_update_stream(args.stream)
    queries = _parse_query_specs(args.query, g.n)
    count = args.samples
    if count is None:
        count = required_samples(_params(args), diagonal=True)
    if count < 1:
        raise ValueError("--samples must be >= 1")
    try:
        cfg = PruneConfig(count, args.prune_factor)
    except ValueError as exc:  # count >= 1 holds here
        raise ValueError(f"--prune-factor: {exc}") from None
    rng = ForestRng(args.seed)
    forests = sample_forest_list(g, count, rng)

    def run_queries() -> list[float]:
        return [_entry(method, g, forests, i, j).value for i, j, method in queries]

    timing_rows: list[list] = []
    with _open_out(args.out) as fh:
        for line in _config_lines(args, g):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        header = ["seq", "kind", "u", "v", "total_weight", "rows"]
        header += [f"q_{i}_{j}_{m}" for i, j, m in queries]
        writer.writerow(header)
        writer.writerow([-1, "init", "", "", forests.total_weight, len(forests)]
                        + [repr(v) for v in run_queries()])

        def on_event(ev: UpdateEvent) -> None:
            nonlocal mark
            # Timed from the end of the previous row: the update and its prune.
            t1 = time.perf_counter()
            values = run_queries()
            t2 = time.perf_counter()
            writer.writerow(
                [ev.sequence, ev.kind, ev.edge[0], ev.edge[1],
                 forests.total_weight, len(forests)]
                + [repr(v) for v in values]
            )
            timing_rows.append([ev.sequence, ev.kind, f"{t1 - mark:.6f}", f"{t2 - t1:.6f}"])
            mark = time.perf_counter()

        mark = time.perf_counter()
        apply_stream(g, forests, events, cfg, rng, on_event)
    if args.timings_out:
        with open(args.timings_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["seq", "kind", "update_seconds", "query_seconds"])
            writer.writerows(timing_rows)
    return 0


# ---- validate ----

def cmd_validate(args: argparse.Namespace) -> int:
    if args.random < 0:
        raise ValueError("--random must be >= 0")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if not args.graph and not args.random:
        raise ValueError("validate needs --graph and/or --random N")
    checks: list[tuple[str, bool, str]] = []

    if args.random:
        gen = ForestRng(args.seed).generator
        worst = ""
        ok = True
        for k in range(args.random):
            n = int(gen.integers(1, 6))
            m = int(gen.integers(0, n * (n - 1) + 1)) if n > 1 else 0
            report = oracle.cross_check(random_digraph(n, m, gen))
            if not report.ok:
                ok = False
                worst = report.summary()
                break
        checks.append(
            ("random-digraph cross-check", ok,
             worst or f"{args.random} graphs, oracles agree within 1e-10")
        )

    if args.graph:
        res = load_edge_list(args.graph, args.mode)
        g = res.graph
        print(f"# loaded n={g.n} m={g.m} duplicates_dropped={res.duplicates_dropped} "
              f"self_loops_dropped={res.self_loops_dropped}")
        checks.extend(_graph_battery(g, args))

    failed = False
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed = True
    return 1 if failed else 0


def _graph_battery(g: Digraph, args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    try:
        report = oracle.cross_check(g)
        checks.append(("oracle cross-check", report.ok, report.summary()))
        forest_count = report.forest_count
    except ValueError as exc:
        checks.append(("oracle cross-check", True, f"skipped: {exc}"))
        forest_count = 0

    rng = ForestRng(args.seed)
    probe = sample_forest_list(g, min(200, args.samples), rng)
    errors = probe.invariant_errors(g)
    checks.append(
        ("sampled forests valid", not errors,
         "; ".join(errors) if errors else f"{len(probe)} forests checked")
    )

    if 2 <= forest_count and args.samples >= 20 * forest_count:
        from scipy import stats

        fs = oracle.enumerate_forests(g)
        rng2 = ForestRng(args.seed + 1)
        agg = sample_forest_list(g, args.samples, rng2).weight_by_forest()
        counts = [agg.pop(f, 0) for f in fs.forests]
        unknown = sum(agg.values())
        if unknown:
            checks.append(("sampler uniformity", False, f"{unknown} samples are not forests of the graph"))
        else:
            pvalue = stats.chisquare(counts).pvalue
            checks.append(
                ("sampler uniformity", pvalue >= 0.001,
                 f"chi-square p={pvalue:.4f} over {forest_count} forests, {args.samples} samples")
            )
    elif forest_count == 1:
        checks.append(("sampler uniformity", True, "skipped: one forest, nothing to test"))
    else:
        checks.append(("sampler uniformity", True, "skipped: graph not enumerable at this sample budget"))

    if g.n <= 4:
        ok, detail = _exact_update_uniformity(g)
        checks.append(("single-edge updates preserve uniformity", ok, detail))
    else:
        checks.append(("single-edge updates preserve uniformity", True, "skipped: n > 4"))

    return checks


def _exact_update_uniformity(g: Digraph) -> tuple[bool, str]:
    base = oracle.enumerate_forests(g)
    tested = 0
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            g2 = g.copy()
            forests = ForestList(Forest(f) for f in base.forests)
            if g2.has_edge(u, v):
                delete_update(g2, forests, (u, v))
            else:
                insert_update(g2, forests, (u, v))
            target = oracle.enumerate_forests(g2)
            agg = forests.weight_by_forest()
            weights = {agg.get(f, 0) for f in target.forests}
            if len(agg) != target.size or len(weights) != 1 or 0 in weights:
                return False, f"non-uniform list after {'delete' if g.has_edge(u, v) else 'insert'} ({u}, {v})"
            tested += 1
    return True, f"{tested} single-edge updates, all exactly uniform"


if __name__ == "__main__":
    sys.exit(main())
