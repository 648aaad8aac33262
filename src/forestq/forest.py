"""Spanning converging forests and weighted forest collections.

A forest over n nodes is stored as a flat successor array: ``successor[i]``
is the node i points to, or -1 if i is a root.  Every weakly connected
component is a tree whose edges all point toward its root, so following
successors from any node terminates at that node's root.

Root lookups are cached per node.  The sampler hands every forest over with
a clean cache, found while it sampled.  Mutating a forest only sets a dirty
flag; stale caches are repaired either on demand (one chain walk per query)
or wholesale by :meth:`Forest.rebuild_roots`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class ForestCycleError(RuntimeError):
    """A successor chain closed a directed cycle; the forest is corrupt."""


class Forest:
    """One spanning converging forest with an integer multiplicity."""

    __slots__ = ("successor", "multiplicity", "dirty", "_root")

    def __init__(
        self,
        successor: np.ndarray,
        multiplicity: int = 1,
        root: np.ndarray | None = None,
        dirty: bool = True,
    ) -> None:
        self.successor = np.asarray(successor, dtype=np.int32)
        self.multiplicity = multiplicity
        self._root = root
        self.dirty = dirty if root is not None else True

    @property
    def n(self) -> int:
        return len(self.successor)

    def contains_edge(self, u: int, v: int) -> bool:
        return self.successor[u] == v

    def is_root(self, u: int) -> bool:
        return self.successor[u] == -1

    def resolve_root(self, i: int) -> int:
        """Root of the tree containing i.

        O(1) when the cache is clean; otherwise walks the successor chain
        and refreshes cache entries along the way.
        """
        if not self.dirty:
            return int(self._root[i])
        succ = self.successor
        limit = len(succ)
        path = []
        u = i
        w = int(succ[u])
        while w != -1:
            path.append(u)
            u = w
            if len(path) > limit:
                raise ForestCycleError(f"successor chain from node {i} does not terminate")
            w = int(succ[u])
        root = self._root
        if root is None:
            root = self._root = np.empty(limit, dtype=np.int32)
        root[u] = u
        for v in path:
            root[v] = u
        return u

    def rebuild_roots(self) -> None:
        """Recompute the whole root cache and clear the dirty flag."""
        succ = self.successor
        n = len(succ)
        if n == 0:
            self._root = np.empty(0, dtype=np.int32)
            self.dirty = False
            return
        idx = np.arange(n, dtype=np.int32)
        jump = np.where(succ == -1, idx, succ)
        for _ in range(64):
            step = jump[jump]
            if np.array_equal(step, jump):
                break
            jump = step
        else:
            raise ForestCycleError("root pointers failed to converge: successor cycle present")
        if not np.all(succ[jump] == -1):
            raise ForestCycleError("successor chains contain a cycle")
        self._root = jump
        self.dirty = False

    def as_tuple(self) -> tuple[int, ...]:
        """Canonical encoding: the successor array as a tuple."""
        return tuple(int(x) for x in self.successor)

    def root_nodes(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.successor == -1)]

    def invariant_errors(self, graph) -> list[str]:
        """Structural checks against a graph; empty list means valid."""
        errors: list[str] = []
        if self.n != graph.n:
            errors.append(f"size mismatch: forest has {self.n} nodes, graph {graph.n}")
            return errors
        if self.multiplicity < 1:
            errors.append(f"multiplicity {self.multiplicity} < 1")
        for u in range(self.n):
            v = int(self.successor[u])
            if v != -1 and not graph.has_edge(u, v):
                errors.append(f"successor edge ({u}, {v}) not in graph")
        try:
            probe = Forest(self.successor.copy())
            probe.rebuild_roots()
        except ForestCycleError as exc:
            errors.append(str(exc))
            return errors
        if not self.dirty:
            for u in range(self.n):
                if int(self._root[u]) != probe.resolve_root(u):
                    errors.append(f"stale root cache at node {u} despite clean flag")
        return errors

    def debug_lines(self) -> Iterator[str]:
        """Human-readable dump, one ``i -> j`` (or ``i -> .`` for roots) per node."""
        for u in range(self.n):
            v = int(self.successor[u])
            yield f"{u} -> ." if v == -1 else f"{u} -> {v}"

    def __repr__(self) -> str:
        return f"Forest(n={self.n}, roots={len(self.root_nodes())}, x{self.multiplicity})"


class ForestList:
    """Multiset of forests; multiplicities carry the weight.

    ``total_weight`` is the multiset cardinality and is kept in sync by the
    update operations.  ``epoch`` increments on every mutation so callers
    can detect unexpected interleaving.
    """

    __slots__ = ("forests", "total_weight", "epoch")

    def __init__(self, forests: Iterable[Forest] = ()) -> None:
        self.forests = list(forests)
        self.total_weight = sum(f.multiplicity for f in self.forests)
        self.epoch = 0

    def append(self, forest: Forest) -> None:
        self.forests.append(forest)
        self.total_weight += forest.multiplicity

    def recompute_weight(self) -> int:
        self.total_weight = sum(f.multiplicity for f in self.forests)
        return self.total_weight

    def weight_by_forest(self) -> dict[tuple[int, ...], int]:
        """Aggregate multiplicity per distinct successor tuple."""
        agg: dict[tuple[int, ...], int] = {}
        for f in self.forests:
            key = f.as_tuple()
            agg[key] = agg.get(key, 0) + f.multiplicity
        return agg

    def __len__(self) -> int:
        return len(self.forests)

    def __iter__(self) -> Iterator[Forest]:
        return iter(self.forests)

    def __repr__(self) -> str:
        return f"ForestList(distinct={len(self.forests)}, weight={self.total_weight})"
