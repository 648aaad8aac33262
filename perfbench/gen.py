"""Seeded inputs and reference answers for the forestq benchmark.

Everything here is the benchmark's own numpy/scipy code: nothing from
``forestq`` is imported, so a library change cannot change the inputs or
the answers they are checked against.

    python3 perfbench/gen.py SPEC.json OUTDIR

reads a workload spec (see ``run.py``) and writes into OUTDIR:

* ``graph.txt``    edge list, node ids dense in order of first appearance,
                   so the loader's ids equal the generator's;
* ``plan.json``    static query batch, update stream, tracked entries,
                   churn checkpoint entries or CLI requests;
* ``ref.json``     reference values for every checked entry.

References are columns of (I + L)^-1 from Jacobi iteration on I + L,
which converges on every digraph because row u of the iteration matrix
sums to d_u / (1 + d_u) < 1.  Small graphs use a dense solve instead.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import scipy.sparse

JACOBI_TOL = 1e-13
JACOBI_MAX_ITERS = 20000
DENSE_LIMIT = 2000


# ---- graphs ----

def _random_pairs(gen: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` (u, v) pairs with u != v, uniform otherwise."""
    u = gen.integers(0, n, size=count)
    v = (u + gen.integers(1, n, size=count)) % n
    return np.stack([u, v], axis=1)


def random_pair_graph(gen: np.random.Generator, n: int, pairs: int) -> np.ndarray:
    """``pairs`` distinct unordered node pairs, written one direction each.

    Every node gets one pair of its own first, so no node is left out of
    the edge list (the loader only knows nodes that appear in an edge).
    The rest are uniform.  The returned (u, v) rows contain no self-loop,
    no duplicate and no reciprocal pair.
    """
    if pairs < n or pairs > n * (n - 1) // 2:
        raise ValueError(f"cannot place {pairs} pairs on {n} nodes")
    base = np.stack([np.arange(n), (np.arange(n) + gen.integers(1, n, size=n)) % n], axis=1)
    chunks = [base]
    have = 0
    while True:
        cand = np.concatenate(chunks)
        key = np.minimum(cand[:, 0], cand[:, 1]) * n + np.maximum(cand[:, 0], cand[:, 1])
        _, first = np.unique(key, return_index=True)
        first.sort()
        have = len(first)
        if have >= pairs:
            break
        chunks.append(_random_pairs(gen, n, 2 * (pairs - have) + 64))
    edges = cand[first[:pairs]]
    return edges[gen.permutation(len(edges))]


def relabel_first_appearance(edges: np.ndarray) -> np.ndarray:
    """Rename nodes 0, 1, 2, ... in order of first appearance in ``edges``."""
    flat = edges.ravel()
    labels, first = np.unique(flat, return_index=True)
    order = labels[np.argsort(first)]
    new = np.empty(flat.max() + 1, dtype=np.int64)
    new[order] = np.arange(len(order))
    return new[edges]


def write_edges(path: str, edges: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{u} {v}" for u, v in edges.tolist()))
        fh.write("\n")


def directed_edges(edges: np.ndarray, reciprocal: bool) -> np.ndarray:
    """The directed edge set the loader builds from ``edges``."""
    if reciprocal:
        return np.concatenate([edges, edges[:, ::-1]])
    return edges


# ---- reference solves ----

def forest_columns(n: int, edges: np.ndarray, cols: list[int]) -> np.ndarray:
    """Columns ``cols`` of (I + L)^-1, shape (n, len(cols))."""
    if not cols:
        return np.zeros((n, 0))
    u, v = edges[:, 0], edges[:, 1]
    deg = np.bincount(u, minlength=n).astype(float)
    if n <= DENSE_LIMIT:
        m = np.diag(1.0 + deg)
        np.add.at(m, (u, v), -1.0)
        rhs = np.zeros((n, len(cols)))
        rhs[cols, np.arange(len(cols))] = 1.0
        return np.linalg.solve(m, rhs)
    adj = scipy.sparse.csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    scale = 1.0 / (1.0 + deg)
    b = np.zeros((n, len(cols)))
    b[cols, np.arange(len(cols))] = 1.0
    b *= scale[:, None]
    x = b.copy()
    for _ in range(JACOBI_MAX_ITERS):
        nxt = b + scale[:, None] * (adj @ x)
        delta = np.abs(nxt - x).max()
        x = nxt
        if delta < JACOBI_TOL:
            return x
    raise RuntimeError(f"Jacobi iteration did not reach {JACOBI_TOL} in {JACOBI_MAX_ITERS} steps")


def reference_entries(n: int, edges: np.ndarray, entries: list[tuple[int, int]]) -> list[float]:
    cols = sorted({j for _, j in entries})
    pos = {j: k for k, j in enumerate(cols)}
    x = forest_columns(n, edges, cols)
    return [float(x[i, pos[j]]) for i, j in entries]


# ---- query and stream planning ----

class EdgeSet:
    """Directed edge set with O(1) uniform choice of a present edge."""

    def __init__(self, edges: np.ndarray) -> None:
        self.items = [tuple(e) for e in edges.tolist()]
        self.index = {e: k for k, e in enumerate(self.items)}

    def __contains__(self, e) -> bool:
        return e in self.index

    def add(self, e) -> None:
        self.index[e] = len(self.items)
        self.items.append(e)

    def remove(self, e) -> None:
        k = self.index.pop(e)
        last = self.items.pop()
        if k < len(self.items):
            self.items[k] = last
            self.index[last] = k

    def choice(self, gen: np.random.Generator):
        return self.items[int(gen.integers(len(self.items)))]


def plan_stream(gen: np.random.Generator, n: int, edges: EdgeSet, events: int,
                reciprocal: bool, checkpoint: int) -> tuple[list, np.ndarray]:
    """Alternate inserts and deletes of uniform edges; mutates ``edges``.

    One-way graphs insert an edge only if neither direction is present, so
    they stay one-way.  Reciprocal graphs insert and delete both directions
    as two consecutive events, so they stay reciprocal.  Returns the events
    as [kind, u, v] and the directed edge set after ``checkpoint`` events.
    """
    out: list = []
    at_checkpoint = None
    insert = True
    while len(out) < events:
        if insert:
            while True:
                u, v = (int(x) for x in gen.integers(0, n, size=2))
                if u != v and (u, v) not in edges and (v, u) not in edges:
                    break
            batch = [(u, v), (v, u)] if reciprocal else [(u, v)]
            for e in batch:
                edges.add(e)
            out.extend(["I", *e] for e in batch)
        else:
            u, v = edges.choice(gen)
            batch = [(u, v), (v, u)] if reciprocal else [(u, v)]
            for e in batch:
                edges.remove(e)
            out.extend(["D", *e] for e in batch)
        insert = not insert
        if at_checkpoint is None and len(out) >= checkpoint:
            at_checkpoint = _replay_to(edges, out, checkpoint)
    return out[:events], at_checkpoint


def _replay_to(edges: EdgeSet, events: list, k: int) -> np.ndarray:
    """Edge set after the first k of ``events``, given the set after all."""
    present = set(edges.items)
    for kind, u, v in reversed(events[k:]):
        if kind == "I":
            present.discard((u, v))
        else:
            present.add((u, v))
    return np.array(sorted(present), dtype=np.int64).reshape(-1, 2)


def in_lists(n: int, edges: np.ndarray) -> list[list[int]]:
    order = np.argsort(edges[:, 1], kind="stable")
    starts = np.searchsorted(edges[order, 1], np.arange(n + 1))
    src = edges[order, 0]
    return [src[starts[k]:starts[k + 1]].tolist() for k in range(n)]


def plan_static_batch(gen: np.random.Generator, n: int, edges: np.ndarray,
                      columns: int, per_column: int) -> list[list]:
    """Entries [i, j, method] on ``columns`` random target nodes j.

    Each column gets the diagonal (sfqplus) and up to ``per_column - 1``
    sources i one or two hops upstream of j, alternating sfqplus and sfq:
    a random pair on a sparse digraph has an entry near 0 and checks
    nothing.
    """
    ins = in_lists(n, edges)
    batch = []
    for j in gen.choice(n, size=columns, replace=False).tolist():
        batch.append([j, j, "sfqplus"])
        one = list(ins[j])
        two = sorted({k for i in one for k in ins[i]} - set(one) - {j})
        pool = [int(x) for x in gen.permutation(one)] + [int(x) for x in gen.permutation(two)]
        for k, i in enumerate(pool[: per_column - 1]):
            batch.append([i, j, "sfqplus" if k % 2 == 0 else "sfq"])
    return batch


def plan_churn(gen: np.random.Generator, n: int, edges: np.ndarray, columns: int,
               kind: str) -> list[tuple[int, int]]:
    """Entries whose error after churn is reported, on ``columns`` random j.

    ``"diagonal"`` takes (j, j).  ``"one-hop"`` takes (i, j) for every
    in-neighbour i of j: on one-way graphs the diagonal error is about
    1e-4, too small to track, while one-hop entries are 0.02-0.05.
    """
    cols = gen.choice(n, size=columns, replace=False).tolist()
    if kind == "diagonal":
        return [(j, j) for j in cols]
    ins = in_lists(n, edges)
    return [(i, j) for j in cols for i in ins[j]]


def generate(spec: dict, outdir: str) -> None:
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([spec["seed"], 0x5EED])))
    n = spec["n"]
    reciprocal = spec["mode"] == "undirected"
    pairs = random_pair_graph(gen, n, spec["pairs"])
    pairs = relabel_first_appearance(pairs)
    write_edges(os.path.join(outdir, "graph.txt"), pairs)
    directed = directed_edges(pairs, reciprocal)

    plan: dict = {}
    ref: dict = {}
    if spec["kind"] == "cli":
        nodes = gen.integers(0, n, size=spec["max_requests"]).tolist()
        seeds = gen.integers(0, 2**31 - 1, size=spec["max_requests"]).tolist()
        plan["requests"] = [[s, i] for s, i in zip(seeds, nodes)]
        cols = forest_columns(n, directed, sorted(set(nodes)))
        pos = {j: k for k, j in enumerate(sorted(set(nodes)))}
        ref["requests"] = [float(cols[i, pos[i]]) for i in nodes]
    else:
        static = plan_static_batch(gen, n, directed, spec["static_columns"],
                                   spec["static_per_column"])
        plan["static"] = static
        ref["static"] = reference_entries(n, directed, [(i, j) for i, j, _ in static])
        pool = spec["tracked_pool"]
        plan["tracked"] = _pick_tracked(plan_static_batch(gen, n, directed, pool, 3), pool)
        events, after = plan_stream(gen, n, EdgeSet(directed), spec["max_events"],
                                    reciprocal, spec["churn_events"])
        plan["events"] = events
        churn = plan_churn(gen, n, after, spec["churn_columns"], spec["churn_entries"])
        plan["churn"] = [[i, j, "sfqplus"] for i, j in churn]
        # Only the traced run reports churn_rel_err; skipping the solve
        # otherwise shortens an untraced run by about 5 s at n = 1e5.
        ref["churn"] = reference_entries(n, after, churn) if spec["trace"] else []
    with open(os.path.join(outdir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    with open(os.path.join(outdir, "ref.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh)


def _pick_tracked(candidates: list[list], count: int) -> list[list]:
    """``count`` tracked entries cycling diagonal/off-diagonal x sfqplus/sfq."""
    diag = [(i, j) for i, j, _ in candidates if i == j]
    off = [(i, j) for i, j, _ in candidates if i != j]
    kinds = [(diag, "sfqplus"), (off, "sfqplus"), (diag, "sfq"), (off, "sfq")]
    out = []
    for x in range(count):
        entries, method = kinds[x % 4]
        i, j = entries[(x // 4) % len(entries)]
        out.append([i, j, method])
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: gen.py SPEC.json OUTDIR")
    with open(sys.argv[1], encoding="utf-8") as fh:
        generate(json.load(fh), sys.argv[2])
