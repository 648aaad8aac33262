"""Spanning converging forests and the columnar forest store.

A forest over n nodes is a successor array: ``successor[i]`` is the node i
points to, or -1 if i is a root, so following successors from any node
ends at the root of its tree.

:class:`ForestList` stores a weighted multiset of forests as columns: an
int32 successor slab ``succ`` of shape (capacity, n), an int64 ``weight``
per slot, and ``order``, the live slots in list order.  ``root`` holds the
roots the sampler found for its rows, and ``clean[slot]`` says they still
hold: an update that copies a row into the slot or edits it clears the
flag.  Roots in the other rows come from one vectorised chain walk.  The
slab sits on a private anonymous memory map, which grows in place; a page
is resident only once a row on it is written.  ``version`` is the graph
version the list was sampled or last updated at (``None`` for a list built
from forests); queries and updates against a graph at another version
raise.

:class:`Forest` is a plain (successor, multiplicity) record.
"""

from __future__ import annotations

import mmap
from typing import Iterable, Iterator

import numpy as np


class ForestCycleError(RuntimeError):
    """A successor chain closed a directed cycle; the forest is corrupt."""


class Forest:
    """One spanning converging forest with an integer multiplicity."""

    __slots__ = ("successor", "multiplicity")

    def __init__(self, successor: np.ndarray, multiplicity: int = 1) -> None:
        self.successor = np.asarray(successor, dtype=np.int32)
        self.multiplicity = multiplicity

    @property
    def n(self) -> int:
        return len(self.successor)

    def contains_edge(self, u: int, v: int) -> bool:
        return self.successor[u] == v

    def is_root(self, u: int) -> bool:
        return self.successor[u] == -1

    def as_tuple(self) -> tuple[int, ...]:
        """Canonical encoding: the successor array as a tuple."""
        return tuple(self.successor.tolist())

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
            _walk(self.successor[None, :], np.zeros(self.n, np.intp), np.arange(self.n))
        except ForestCycleError as exc:
            errors.append(str(exc))
        return errors

    def debug_lines(self) -> Iterator[str]:
        """Human-readable dump, one ``i -> j`` (or ``i -> .`` for roots) per node."""
        for u in range(self.n):
            v = int(self.successor[u])
            yield f"{u} -> ." if v == -1 else f"{u} -> {v}"

    def __repr__(self) -> str:
        return f"Forest(n={self.n}, roots={len(self.root_nodes())}, x{self.multiplicity})"


class ForestList:
    """Multiset of forests in a columnar store; multiplicities carry the weight.

    ``total_weight`` is the multiset cardinality.  Iteration yields a
    read-only :class:`Forest` view of each live row, in list order.
    """

    __slots__ = ("succ", "weight", "order", "root", "clean", "version", "_map")

    def __init__(self, forests: Iterable[Forest] = ()) -> None:
        rows = list(forests)
        self._fill(len(rows), rows[0].n if rows else 0, sampled=False)
        for k, f in enumerate(rows):
            self.succ[k] = f.successor
        self.weight[:] = [f.multiplicity for f in rows]

    @classmethod
    def _blank(cls, count: int, n: int) -> "ForestList":
        """``count`` weight-1 rows whose successors and roots the sampler writes."""
        fl = cls.__new__(cls)
        fl._fill(count, n, sampled=True)
        return fl

    def _fill(self, count: int, n: int, sampled: bool) -> None:
        self._map = mmap.mmap(-1, max(count * n * 4, 1), flags=mmap.MAP_PRIVATE)
        self.succ = np.frombuffer(self._map, np.int32, count * n).reshape(count, n)
        self.weight = np.ones(count, dtype=np.int64)
        self.order = np.arange(count)
        self.root = np.empty((count if sampled else 0, n), dtype=np.int32)
        self.clean = np.full(count, sampled)
        self.version: int | None = None

    @property
    def n(self) -> int:
        return self.succ.shape[1]

    @property
    def total_weight(self) -> int:
        return int(self.weight[self.order].sum())

    def check_version(self, g) -> None:
        """Raise ValueError if the list is stamped with a version other than ``g``'s."""
        if self.version is not None and self.version != g.version:
            raise ValueError(
                f"forest list matches graph version {self.version}, but the graph is at "
                f"version {g.version}: it changed without updating the list"
            )

    def roots(self, i: int, rows: np.ndarray | None = None) -> np.ndarray:
        """Root of node i in each slot of ``rows`` (default: the live rows in order)."""
        rows = self.order if rows is None else rows
        out = np.empty(len(rows), dtype=np.intp)
        clean = self.clean[rows]
        out[clean] = self.root[rows[clean], i]
        dirty = rows[~clean]
        out[~clean] = _walk(self.succ, dirty, np.full(len(dirty), i))
        return out

    def claim(self, k: int) -> np.ndarray:
        """k free slots, growing the slab when too few are left."""
        if len(self.order) + k > len(self.weight):
            self._grow(max(2 * len(self.weight), len(self.order) + k))
        free = np.ones(len(self.weight), dtype=bool)
        free[self.order] = False
        slots = np.flatnonzero(free)[:k]
        self.clean[slots] = False
        return slots

    def _grow(self, cap: int) -> None:
        old, n = len(self.weight), self.n
        self.succ, rows = None, old  # drop this list's own view, so the map can resize
        try:
            self._map.resize(max(cap * n * 4, 1))
            rows = cap
        except BufferError:
            # Forest views from iteration still pin the map: copy the rows
            # to a new one instead.
            new = mmap.mmap(-1, max(cap * n * 4, 1), flags=mmap.MAP_PRIVATE)
            np.frombuffer(new, np.int32, old * n)[:] = np.frombuffer(self._map, np.int32, old * n)
            self._map, rows = new, cap
        finally:
            self.succ = np.frombuffer(self._map, np.int32, rows * n).reshape(rows, n)
        self.weight = np.concatenate([self.weight, np.zeros(cap - old, dtype=np.int64)])
        self.clean = np.concatenate([self.clean, np.zeros(cap - old, dtype=bool)])

    def weight_by_forest(self) -> dict[tuple[int, ...], int]:
        """Aggregate multiplicity per distinct successor tuple."""
        agg: dict[tuple[int, ...], int] = {}
        for f in self:
            key = f.as_tuple()
            agg[key] = agg.get(key, 0) + f.multiplicity
        return agg

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[Forest]:
        rows = self.succ.view()
        rows.flags.writeable = False
        for s in self.order.tolist():
            yield Forest(rows[s], int(self.weight[s]))

    def __repr__(self) -> str:
        return f"ForestList(distinct={len(self)}, weight={self.total_weight})"


def _walk(succ: np.ndarray, rows: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Root of node ``cur[k]`` in row ``rows[k]``; a chain past n nodes is a cycle."""
    out = np.empty(len(rows), dtype=np.intp)
    idx = np.arange(len(rows))
    for _ in range(succ.shape[1] + 1):
        if not len(idx):
            return out
        nxt = succ[rows, cur]
        end = nxt < 0
        out[idx[end]] = cur[end]
        go = ~end
        idx, rows, cur = idx[go], rows[go], nxt[go]
    raise ForestCycleError("successor chains contain a cycle")
