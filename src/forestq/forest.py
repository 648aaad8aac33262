"""Spanning converging forests and the paged, copy-on-write forest store.

A forest over n nodes is a successor array: ``successor[i]`` is the node i
points to, or -1 if i is a root, so following successors from any node
ends at the root of its tree.

:class:`ForestList` stores a weighted multiset of forests as rows: row k of
``table``, ``weight`` and ``sampled`` is the k-th forest of the list.
Successors sit in pages of W = 2^shift nodes, W the smallest power of two
>= n but at most 1024: ``pages`` is int32 of shape (P, W), the int32
``table[k]`` names row k's ceil(n/W) pages, so entry (k, u) is
``pages[table[k, u >> shift], u & (W - 1)]``, and ``ref`` counts the rows
naming each page.  ``append`` adds copies of rows that share their pages; a
write copies a page to a free one (``ref == 0``) unless every row naming it
takes the same write.  ``keep`` is the one way rows leave: it drops their
page references and filters the rows, in order.  A new store reserves as
many spare pages as it fills, as zeros that stay unmapped until handed out;
the pool doubles only when none is free, and a keep that leaves at most
1/32 of it live moves the live pages into a pool of twice their number.
``sampled[k]`` is the row of ``root``, the roots the sampler found, that
row k came from, or -1 once a write or a copy made it; other rows' roots
come from one vectorised chain walk, and a keep that leaves no row using
``root`` frees it.  Pickles hold only the live pages, and ``root`` only
while a row uses it.  ``version`` is the graph version the list was sampled
or last updated at (``None`` for a list built from forests); queries and
updates against a graph at another version raise.

:class:`Forest` is a plain (successor, multiplicity) record.
"""

from __future__ import annotations

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

    def as_tuple(self) -> tuple[int, ...]:
        """Canonical encoding: the successor array as a tuple."""
        return tuple(self.successor.tolist())

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
            if v != -1 and not (0 <= v < self.n and graph.has_edge(u, v)):
                errors.append(f"successor edge ({u}, {v}) not in graph")
        try:
            _walk(ForestList([self]), np.zeros(self.n, np.intp), np.arange(self.n))
        except (ForestCycleError, ValueError) as exc:  # a cycle, or successors out of range
            errors.append(str(exc))
        return errors

    def __repr__(self) -> str:
        roots = int((self.successor == -1).sum())
        return f"Forest(n={self.n}, roots={roots}, x{self.multiplicity})"


class ForestList:
    """Multiset of forests in a paged columnar store; multiplicities carry the weight.

    ``total_weight`` is the multiset cardinality.  Iteration yields a
    :class:`Forest` holding a read-only copy of each row, in list order.
    """

    __slots__ = ("n", "shift", "pages", "table", "ref", "weight", "sampled", "root",
                 "version")

    def __init__(self, forests: Iterable[Forest] = ()) -> None:
        rows = list(forests)
        n = rows[0].n if rows else 0
        for k, f in enumerate(rows):
            if f.n != n:
                raise ValueError(f"forest {k} has {f.n} nodes, forest 0 has {n}")
            if ((f.successor < -1) | (f.successor >= n)).any():
                raise ValueError(f"forest {k} has a successor outside [-1, {n})")
        succ = self._fill(len(rows), n, sampled=False)
        succ[:] = [f.successor for f in rows]
        self.weight[:] = [f.multiplicity for f in rows]

    @classmethod
    def _blank(cls, count: int, n: int) -> tuple["ForestList", np.ndarray]:
        """Weight-1 rows for the sampler, and a (count, n) view of their pages."""
        fl = cls.__new__(cls)
        return fl, fl._fill(count, n, sampled=True)

    def _fill(self, count: int, n: int, sampled: bool) -> np.ndarray:
        """Give ``count`` rows fresh contiguous pages, returned as a (count, n) view."""
        self.n = n
        self.shift = min(10, max(n - 1, 0).bit_length())
        width = 1 << self.shift
        per = -(-n // width)
        self.pages = np.zeros((2 * count * per, width), dtype=np.int32)
        self.table = np.arange(count * per, dtype=np.int32).reshape(count, per)
        self.ref = np.zeros(2 * count * per, dtype=np.int64)
        self.ref[:count * per] = 1
        self.weight = np.ones(count, dtype=np.int64)
        self.sampled = np.arange(count) if sampled else np.full(count, -1)
        self.root = np.empty((count if sampled else 0, n), dtype=np.int32)
        self.version: int | None = None
        return self.pages[:count * per].reshape(count, per * width)[:, :n]

    @property
    def total_weight(self) -> int:
        return int(self.weight.sum())

    def check_version(self, g) -> None:
        """Raise ValueError if the list is stamped with a version other than ``g``'s."""
        if self.version is not None and self.version != g.version:
            raise ValueError(
                f"forest list matches graph version {self.version}, but the graph is at "
                f"version {g.version}: it changed without updating the list"
            )

    def column(self, rows: np.ndarray | slice, u) -> np.ndarray:
        """Successor of node u (one node, or one per row) in each row of ``rows``."""
        return self.pages[self.table[rows, u >> self.shift], u & ((1 << self.shift) - 1)]

    def write(self, rows: np.ndarray, u: int, value: int) -> None:
        """Set node u's successor to ``value`` in each row of ``rows``.

        A page that rows outside ``rows`` name too is copied first, and the
        rows of ``rows`` naming it share the copy.
        """
        k = u >> self.shift
        named = self.table[rows, k]
        page, inv, cnt = np.unique(named, return_inverse=True, return_counts=True)
        shared = self.ref[page] > cnt
        if shared.any():
            new = self._alloc(int(shared.sum()))
            self.pages[new] = self.pages[page[shared]]
            self.ref[page[shared]] -= cnt[shared]
            self.ref[new] = cnt[shared]
            page[shared] = new
            self.table[rows, k] = page[inv]
        self.pages[page, u & ((1 << self.shift) - 1)] = value
        self.sampled[rows] = -1

    def _alloc(self, k: int) -> np.ndarray:
        """k free pages, growing the pool only when too few are free."""
        free = np.flatnonzero(self.ref == 0)
        if len(free) < k:
            size = max(2 * len(self.ref), len(self.ref) + k - len(free))
            self.pages = _grown(self.pages, size)
            self.ref = _grown(self.ref, size)
            free = np.flatnonzero(self.ref == 0)
        return free[:k]

    def append(self, src: np.ndarray) -> np.ndarray:
        """Append copies of rows ``src`` that share their pages; returns the new rows."""
        start = len(self.weight)
        # Every allocation comes first, so a MemoryError leaves the list as it was.
        copied = self.table[src]
        table = np.concatenate([self.table, copied])
        weight = np.concatenate([self.weight, self.weight[src]])
        sampled = np.concatenate([self.sampled, np.full(len(src), -1)])
        np.add.at(self.ref, copied, 1)
        self.table, self.weight, self.sampled = table, weight, sampled
        return np.arange(start, len(weight))

    def keep(self, rows: np.ndarray) -> None:
        """Keep the rows where the boolean mask ``rows`` is set, in order.

        Drops the other rows' page references, frees ``root`` once no kept
        row uses it, and compacts the pool once at most 1/32 of it is live.
        """
        kept = np.flatnonzero(rows)
        np.subtract.at(self.ref, self.table.take(np.flatnonzero(~rows), axis=0), 1)
        self.table = self.table.take(kept, axis=0)
        self.weight, self.sampled = self.weight.take(kept), self.sampled.take(kept)
        if len(self.root) and (self.sampled < 0).all():
            self.root = np.empty((0, self.n), dtype=np.int32)
        if 32 * np.count_nonzero(self.ref) <= len(self.ref):
            self.pages, self.table, self.ref = self._packed(2)

    def _packed(self, factor: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live pages at the front of a pool ``factor`` times their number,
        with ``table`` and ``ref`` renumbered to match."""
        live = np.flatnonzero(self.ref)
        pages = np.zeros((factor * len(live), self.pages.shape[1]), dtype=np.int32)
        # mode="clip" writes straight into ``out``; "raise" would buffer a copy.
        np.take(self.pages, live, axis=0, out=pages[:len(live)], mode="clip")
        remap = np.zeros(len(self.ref), dtype=np.int32)
        remap[live] = np.arange(len(live))
        return pages, remap[self.table], _grown(self.ref[live], len(pages))

    def __getstate__(self) -> tuple[None, dict]:
        state = {k: getattr(self, k) for k in self.__slots__}
        state["pages"], state["table"], state["ref"] = self._packed(1)
        if (self.sampled < 0).all():
            state["root"] = self.root[:0]
        return None, state  # (no __dict__, slot values), as pickle and copy expect

    def roots(self, i: int, rows: np.ndarray | None = None) -> np.ndarray:
        """Root of node i in each row of ``rows`` (default: every row, in order)."""
        rows = np.arange(len(self)) if rows is None else rows
        src = self.sampled[rows]
        clean = src >= 0
        out = np.empty(len(rows), dtype=np.intp)
        out[clean] = self.root[src[clean], i]
        dirty = rows[~clean]
        out[~clean] = _walk(self, dirty, np.full(len(dirty), i))
        return out

    def weight_by_forest(self) -> dict[tuple[int, ...], int]:
        """Aggregate multiplicity per distinct successor tuple."""
        agg: dict[tuple[int, ...], int] = {}
        for f in self:
            key = f.as_tuple()
            agg[key] = agg.get(key, 0) + f.multiplicity
        return agg

    def __len__(self) -> int:
        return len(self.weight)

    def __iter__(self) -> Iterator[Forest]:
        for k in range(len(self)):
            row = self.pages[self.table[k]].ravel()[:self.n]
            row.flags.writeable = False
            yield Forest(row, int(self.weight[k]))

    def __repr__(self) -> str:
        return f"ForestList(distinct={len(self)}, weight={self.total_weight})"


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    """``a`` extended to ``size`` rows with zeros, which stay unmapped until written."""
    out = np.zeros((size,) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


def _walk(fl: ForestList, rows: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Root of node ``cur[k]`` in row ``rows[k]``; a chain past n nodes is a cycle."""
    out = np.empty(len(rows), dtype=np.intp)
    idx = np.arange(len(rows))
    for _ in range(fl.n + 1):
        if not len(idx):
            return out
        nxt = fl.column(rows, cur)
        end = nxt < 0
        out[idx[end]] = cur[end]
        go = ~end
        idx, rows, cur = idx[go], rows[go], nxt[go]
    raise ForestCycleError("successor chains contain a cycle")
