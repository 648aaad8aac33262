"""Exact reference computations for small graphs.

Two independent routes to the forest matrix ``(I + L)^-1`` of a digraph,
where ``L`` is the out-degree Laplacian:

* a dense linear-algebra solve (LU with partial pivoting), and
* brute-force enumeration of all spanning converging forests, counting
  roots pair by pair.

Both are deliberately naive; they exist to validate the sampling machinery,
not to scale.  ``cross_check`` runs the two against each other plus the
analytic bounds every forest matrix must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Digraph

# Guards keeping the oracles inside desk-scale budgets.
DENSE_NODE_LIMIT = 2000
ENUMERATION_LIMIT = 10**7


def laplacian(g: Digraph) -> np.ndarray:
    """Dense out-degree Laplacian D - A."""
    n = g.n
    lap = np.zeros((n, n))
    for u in range(n):
        lap[u, u] = g.out_degree(u)
        for v in g.out_neighbors(u):
            lap[u, v] -= 1.0
    return lap


def exact_forest_matrix(g: Digraph) -> np.ndarray:
    """Dense forest matrix (I + L)^-1 via LU factorization.

    Limited to ``DENSE_NODE_LIMIT`` nodes; use :func:`exact_entries` for
    selected entries of larger graphs.
    """
    import scipy.linalg

    n = g.n
    if n > DENSE_NODE_LIMIT:
        raise ValueError(f"n={n} exceeds dense oracle limit {DENSE_NODE_LIMIT}")
    if n == 0:
        return np.zeros((0, 0))
    m = np.eye(n) + laplacian(g)
    lu, piv = scipy.linalg.lu_factor(m)
    return scipy.linalg.lu_solve((lu, piv), np.eye(n))


def exact_entries(g: Digraph, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Selected entries of (I + L)^-1 via sparse direct LU.

    Factorizes once and solves one right-hand side per distinct column, so
    it stays cheap even at node counts far beyond the dense limit.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    n = g.n
    rows, cols, vals = [], [], []
    for u in range(n):
        rows.append(u)
        cols.append(u)
        vals.append(1.0 + g.out_degree(u))
        for v in g.out_neighbors(u):
            rows.append(u)
            cols.append(v)
            vals.append(-1.0)
    m = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))
    lu = scipy.sparse.linalg.splu(m)
    wanted = sorted({j for _, j in pairs})
    rhs = np.zeros((n, len(wanted)))
    for k, j in enumerate(wanted):
        rhs[j, k] = 1.0
    sol = lu.solve(rhs)
    col_of = {j: k for k, j in enumerate(wanted)}
    return np.array([sol[i, col_of[j]] for i, j in pairs])


@dataclass(frozen=True)
class ForestSet:
    """All spanning converging forests of a digraph.

    ``forests`` holds one successor tuple per forest (-1 marks a root).
    ``pair_counts[i, j]`` is the number of forests in which node i's tree
    is rooted at node j.
    """

    n: int
    forests: list[tuple[int, ...]]
    pair_counts: np.ndarray

    @property
    def size(self) -> int:
        return len(self.forests)


def enumerate_forests(g: Digraph) -> ForestSet:
    """Enumerate every spanning converging forest by backtracking.

    Each node independently picks "root" or one out-edge; assignments that
    close a directed cycle are pruned as soon as the closing edge appears.
    Guarded by ``ENUMERATION_LIMIT`` on the raw choice space.
    """
    n = g.n
    space = 1
    for u in range(n):
        space *= g.out_degree(u) + 1
        if space > ENUMERATION_LIMIT:
            raise ValueError(f"choice space exceeds enumeration limit {ENUMERATION_LIMIT}")

    succ = [-1] * n
    found: list[tuple[int, ...]] = []

    def closes_cycle(i: int, j: int) -> bool:
        u = j
        while u != -1:
            if u == i:
                return True
            u = succ[u]
        return False

    def extend(i: int) -> None:
        if i == n:
            found.append(tuple(succ))
            return
        succ[i] = -1
        extend(i + 1)
        for j in g.out_neighbors(i).tolist():
            if not closes_cycle(i, j):
                succ[i] = j
                extend(i + 1)
        succ[i] = -1

    extend(0)

    counts = np.zeros((n, n), dtype=np.int64)
    root = [0] * n
    for f in found:
        for i in range(n):
            u = i
            while f[u] != -1:
                u = f[u]
            root[i] = u
        for i in range(n):
            counts[i, root[i]] += 1
    return ForestSet(n, found, counts)


@dataclass
class CrossCheckReport:
    """Outcome of pitting the two oracles against each other."""

    n: int
    forest_count: int
    max_abs_diff: float
    max_row_sum_dev: float
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        lines = [
            f"cross-check {status}: n={self.n} forests={self.forest_count} "
            f"max|diff|={self.max_abs_diff:.3e} max|rowsum-1|={self.max_row_sum_dev:.3e}"
        ]
        lines.extend(f"  violation: {v}" for v in self.violations)
        return "\n".join(lines)


def cross_check(g: Digraph, tol: float = 1e-10) -> CrossCheckReport:
    """Verify enumeration counts against the dense solve and analytic bounds.

    Checks, for Omega = (I+L)^-1 with the convention that entry (i, j) is
    the fraction of forests rooting i at j:

    * ``pair_counts / size`` matches Omega entrywise within ``tol``;
    * rows sum to 1;
    * ``0 <= Omega[j, i] < Omega[i, i] <= 1`` for i != j;
    * ``1/(1+d_i) <= Omega[i, i] <= 2/(2+d_i)``;
    * ``Omega[i, j] <= 1/(2+d_j)`` for i != j.
    """
    omega = exact_forest_matrix(g)
    fs = enumerate_forests(g)
    n = g.n
    violations: list[str] = []

    if fs.size == 0:
        violations.append("enumeration found no forests")
        return CrossCheckReport(n, 0, float("inf"), float("inf"), violations)

    empirical = fs.pair_counts / fs.size
    max_diff = float(np.max(np.abs(empirical - omega))) if n else 0.0
    if max_diff > tol:
        violations.append(f"enumeration vs dense solve differ by {max_diff:.3e} > {tol:.1e}")

    row_dev = float(np.max(np.abs(omega.sum(axis=1) - 1.0))) if n else 0.0
    if row_dev > tol:
        violations.append(f"row sums deviate from 1 by {row_dev:.3e}")

    for i in range(n):
        d_i = g.out_degree(i)
        if not (1.0 / (1 + d_i) - tol <= omega[i, i] <= 2.0 / (2 + d_i) + tol):
            violations.append(f"diagonal bound violated at node {i}: {omega[i, i]!r}")
        for j in range(n):
            if i == j:
                continue
            if not (-tol <= omega[j, i] < omega[i, i]):
                violations.append(f"column dominance violated at ({j}, {i})")
            if omega[i, j] > 1.0 / (2 + g.out_degree(j)) + tol:
                violations.append(f"off-diagonal bound violated at ({i}, {j})")
    if n and (float(np.max(omega)) > 1.0 + tol or float(np.min(omega)) < -tol):
        violations.append("entries outside [0, 1]")

    return CrossCheckReport(n, fs.size, max_diff, row_dev, violations)
