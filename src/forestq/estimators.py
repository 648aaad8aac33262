"""Monte-Carlo estimators for forest-matrix entries.

Entry (i, j) of the forest matrix (I + L)^-1 equals the probability that a
uniform spanning converging forest roots node i at node j.  Given a sampled
forest list, two estimators are offered:

* ``sfq_query``: the plain hit frequency of ``root(i) == j``;
* ``sfqplus_query``: a smoothed variant that also credits forests rooting i
  at an in-neighbor of j, scaled by 1/(2+d_j) off the diagonal and
  1/(1+d_i) on it.  Its per-sample variance is strictly smaller.

Both are unbiased.  ``required_samples`` gives the sample count at which
the smoothed estimator meets an (epsilon, delta) accuracy target: absolute
error for off-diagonal entries, relative error for diagonal ones.

Every estimate is a weighted sum of one per-forest score kernel, computed
for all rows of the forest store at once from the root of i in each
row.  Hits are summed as integer multiplicities, so estimates are exact up
to one final division no matter how large the list grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forest import ForestList
from .graph import Digraph


@dataclass(frozen=True)
class EstimatorParams:
    """Accuracy target: error bound epsilon holds except with prob. delta."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class EntryEstimate:
    value: float
    sample_weight: int
    estimator: str


def required_samples(
    params: EstimatorParams, target_out_degree: int = 0, diagonal: bool = False
) -> int:
    """Sample count guaranteeing the accuracy target for sfqplus_query.

    Off-diagonal entries get an absolute epsilon guarantee (the bound
    shrinks with the target's out-degree); diagonal entries get a relative
    one, independent of degree.
    """
    eps = params.epsilon
    tail = math.log(2.0 / params.delta)
    if diagonal:
        raw = (2.0 / (3.0 * eps) + 1.0 / (4.0 * eps * eps)) * tail
    else:
        d = target_out_degree
        raw = (1.0 / (2.0 * eps * eps) + 2.0 / (3.0 * eps)) * tail / float((2 + d) ** 2)
    return max(1, math.ceil(raw))


def sfq_query(forests: ForestList, i: int, j: int) -> EntryEstimate:
    """Hit-frequency estimate of entry (i, j)."""
    return _estimate(None, forests, i, j, "sfq")


def sfqplus_query(g: Digraph, forests: ForestList, i: int, j: int) -> EntryEstimate:
    """Smoothed estimate of entry (i, j); degrees come from the current graph.

    Raises ValueError if the graph changed since the list was sampled or
    last updated.
    """
    forests.check_version(g)
    return _estimate(g, forests, i, j, "sfqplus")


def forest_distance(
    g: Digraph, forests: ForestList, i: int, j: int, method: str = "sfqplus"
) -> float:
    """Estimated forest distance omega_ii + omega_jj - omega_ij - omega_ji.

    Exactly 0.0 for i == j.  Estimation noise can push values slightly
    outside [0, 2]; they are returned unclamped.
    """
    if method == "sfqplus":
        def q(a: int, b: int) -> float:
            return sfqplus_query(g, forests, a, b).value
    elif method == "sfq":
        def q(a: int, b: int) -> float:
            return sfq_query(forests, a, b).value
    else:
        raise ValueError(f"method must be 'sfq' or 'sfqplus', got {method!r}")
    if i == j:
        _check_query(forests, i, j)
        return 0.0
    return q(i, i) + q(j, j) - q(i, j) - q(j, i)


def _check_query(forests: ForestList, i: int, j: int) -> int:
    if not len(forests):
        raise ValueError("forest list is empty")
    n = forests.n
    for x in (i, j):
        if not 0 <= x < n:
            raise ValueError(f"node {x} out of range [0, {n})")
    w = forests.total_weight
    if w <= 0:
        raise ValueError("forest list has zero total weight")
    return w


def _estimate(
    g: Digraph | None, forests: ForestList, i: int, j: int, estimator: str
) -> EntryEstimate:
    """Weighted mean of the per-forest scores, summed as integers."""
    w = _check_query(forests, i, j)
    hit, base, denom = _scores(g, forests, i, j, estimator)
    hits = int(forests.weight[hit].sum())
    return EntryEstimate((base * w + hits) / (denom * w), w, estimator)


def _scores(
    g: Digraph | None, forests: ForestList, i: int, j: int, estimator: str
) -> tuple[np.ndarray, int, int]:
    """The score kernel: forest k scores ``(base + hit[k]) / denom``.

    sfq hits where i roots at j.  Off the diagonal sfqplus also hits at the
    in-neighbors of j, over 2 + d_j; on it, base 1 plus hits at the
    in-neighbors of i, over 1 + d_i.  neighbor-average, a reference point
    for variance tests, hits at the in-neighbors of j only, over 1 + d_j.
    """
    if estimator not in ("sfq", "sfqplus", "neighbor-average"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if estimator == "neighbor-average" and i == j:
        raise ValueError("neighbor-average estimator is defined off the diagonal only")
    root = forests.roots(i)
    if estimator == "sfq":
        return root == j, 0, 1
    into = np.zeros(g.n, dtype=bool)
    into[g.in_neighbors(j)] = True
    if estimator == "neighbor-average":
        return into[root], 0, 1 + g.out_degree(j)
    if i == j:
        return into[root], 1, 1 + g.out_degree(i)
    return (root == j) | into[root], 0, 2 + g.out_degree(j)


def _per_forest_values(
    g: Digraph, forests: ForestList, i: int, j: int, estimator: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-forest estimator values and multiplicities, for moment checks."""
    hit, base, denom = _scores(g, forests, i, j, estimator)
    return (base + hit) / denom, forests.weight
