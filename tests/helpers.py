"""Shared fixtures-as-functions for the test suite."""

from __future__ import annotations

import numpy as np

import os

from forestq import Digraph, Forest, ForestList, LoadResult, enumerate_forests, random_digraph
from forestq import estimators


def build_graph(n: int, edges) -> Digraph:
    g = Digraph(n)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def three_cycle() -> Digraph:
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def two_node() -> Digraph:
    return build_graph(2, [(0, 1)])


def uniform_list(g: Digraph) -> ForestList:
    """Exactly uniform list: every forest of g once, multiplicity 1."""
    return ForestList(
        Forest(np.array(f, dtype=np.int32)) for f in enumerate_forests(g).forests
    )


def chain_root(row, i: int) -> int:
    """Plain chain walk: the reference the store's roots are checked against."""
    for _ in range(len(row) + 1):
        if row[i] == -1:
            return i
        i = int(row[i])
    raise AssertionError("successor chain does not terminate")


def random_small_digraph(gen: np.random.Generator, max_n: int = 5, min_edges: int = 0) -> Digraph:
    n = int(gen.integers(1, max_n + 1))
    cap = n * (n - 1)
    lo = min(min_edges, cap)
    m = int(gen.integers(lo, cap + 1)) if cap else 0
    return random_digraph(n, m, gen)


def weighted_mean_var(values, weights) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    mean = float((v * w).sum() / total)
    var = float((w * (v - mean) ** 2).sum() / total)
    return mean, var


# ---- loop references for the vectorised graph builders ----

def reference_load_edge_list(source, mode: str = "directed") -> LoadResult:
    """Line-by-line edge-list loader, one has_edge/insert_edge per edge."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return reference_load_edge_list(fh, mode)
    remap: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    self_loops = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        for x in (a, b):
            if x not in remap:
                remap[x] = len(remap)
        if a == b:
            self_loops += 1
            continue
        u, v = remap[a], remap[b]
        pairs.append((u, v))
        if mode == "undirected":
            pairs.append((v, u))
    g = Digraph(len(remap))
    duplicates = 0
    for u, v in pairs:
        if g.has_edge(u, v):
            duplicates += 1
        else:
            g.insert_edge(u, v)
    node_ids = [0] * len(remap)
    for orig, dense in remap.items():
        node_ids[dense] = orig
    return LoadResult(g, node_ids, duplicates, self_loops)


def reference_random_digraph(n: int, m: int, rng: np.random.Generator) -> Digraph:
    """Per-edge random_digraph: the same rng calls, one insert_edge per edge."""
    limit = n * (n - 1)
    if m > limit:
        raise ValueError(f"m={m} exceeds {limit} possible edges on {n} nodes")
    g = Digraph(n)
    if m == 0:
        return g
    if m > limit // 2:
        pool = [(u, v) for u in range(n) for v in range(n) if u != v]
        for k in rng.permutation(limit)[:m]:
            g.insert_edge(*pool[k])
        return g
    while g.m < m:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v and not g.has_edge(u, v):
            g.insert_edge(u, v)
    return g


def adjacency(g: Digraph) -> tuple[list[list[int]], list[list[int]]]:
    """Every node's out- and in-neighbors, in the graph's order."""
    return ([g.out_neighbors(u).tolist() for u in range(g.n)],
            [g.in_neighbors(u).tolist() for u in range(g.n)])



def per_forest_values(g: Digraph, fl: ForestList, i: int, j: int, kind: str):
    """Per-forest estimator values and multiplicities, for moment checks.

    sfq and sfqplus score through the library's kernel.  neighbor-average,
    a reference point between them for variance tests, hits where i roots
    at an in-neighbor of j, over 1 + d_j; it is unbiased off the diagonal.
    """
    if kind == "neighbor-average":
        return np.isin(fl.roots(i), g.in_neighbors(j)) / (1 + g.out_degree(j)), fl.weight
    hit, base, denom = estimators._scores(g, fl, i, j, kind)
    return (base + hit) / denom, fl.weight
