"""Shared fixtures-as-functions for the test suite."""

from __future__ import annotations

import numpy as np

from forestq import Digraph, Forest, ForestList, enumerate_forests, random_digraph


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
