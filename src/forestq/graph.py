"""Mutable simple directed graphs on nodes ``0..n-1``, on numpy arrays.

Out- and in-adjacency are flat int32 arrays with a segment per node.  An
insert appends into the node's slack; a full segment first moves to the
end of the array with doubled room.  A delete moves the segment's last
entry into the hole.  Both cost O(degree), and neighbor order is that of a
list with appends and swap-removes.  Neighbor arrays are read-only views.
``Digraph.version`` counts successful mutations; a copy or a pickled and
restored graph keeps its source's count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


class _Adjacency:
    """Node u's neighbors are ``nbr[start[u]:start[u] + degree[u]]``.

    The segment has room for ``cap[u]`` entries and ``end`` is the first
    slot past the last segment.  ``ro`` is a read-only view of ``nbr``.  The
    per-node arrays are memoryviews, so their items are Python ints.
    """

    __slots__ = ("nbr", "ro", "start", "degree", "cap", "end")

    def __init__(self, n: int, keys: np.ndarray, vals: np.ndarray) -> None:
        """Neighbors ``vals`` grouped by node ``keys``, in order, no slack."""
        degree = np.bincount(keys, minlength=n)
        self.degree = memoryview(degree)
        self.start = memoryview(degree.cumsum() - degree)
        self.cap = memoryview(degree.copy())
        self.end = len(vals)
        # Room to relocate segments; the spare slot past the last segment
        # keeps a read at start[u] + degree[u] in bounds.
        nbr = np.empty(2 * self.end + 4 * n + 1, dtype=np.int32)
        nbr[:self.end] = vals[keys.argsort(kind="stable")]
        self._set(nbr)

    def _set(self, nbr: np.ndarray) -> None:
        self.nbr = nbr
        self.ro = nbr.view()
        self.ro.flags.writeable = False

    def append(self, u: int, v: int) -> None:
        s = self.start[u]
        d = self.degree[u]
        if d == self.cap[u]:
            # Move the full segment to the end, growing the array if needed.
            new = self.end
            cap = max(2 * d, 4)
            if new + cap >= len(self.nbr):
                grown = np.empty(2 * (new + cap) + 1, dtype=np.int32)
                grown[:new] = self.nbr[:new]
                self._set(grown)
            self.nbr[new:new + d] = self.nbr[s:s + d]
            s = new
            self.start[u] = new
            self.cap[u] = cap
            self.end = new + cap
        self.nbr[s + d] = v
        self.degree[u] = d + 1

    def remove(self, u: int, v: int) -> None:
        s = self.start[u]
        d = self.degree[u] - 1
        hole = self.nbr[s:s + d + 1].tolist().index(v)
        self.nbr[s + hole] = self.nbr[s + d]
        self.degree[u] = d

    def row(self, u: int) -> np.ndarray:
        """u's neighbors, a read-only view."""
        s = self.start[u]
        return self.ro[s:s + self.degree[u]]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(node, neighbor) for every entry, by node and then in order."""
        degree = np.asarray(self.degree)
        keys = np.repeat(np.arange(len(degree)), degree)
        skip = np.repeat(np.asarray(self.start) - (degree.cumsum() - degree), degree)
        return keys, self.nbr[skip + np.arange(len(keys))]


class Digraph:
    """Simple directed graph on a fixed node set, without self-loops."""

    __slots__ = ("_n", "_m", "version", "_out", "_in")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"node count must be >= 0, got {n}")
        none = np.zeros(0, dtype=np.int64)
        self.__setstate__((n, (none, none), (none, none), 0))

    @classmethod
    def _bulk(cls, n: int, tails: np.ndarray, heads: np.ndarray) -> Digraph:
        """The graph that inserting distinct edges (tails[k], heads[k]) builds."""
        g = cls.__new__(cls)
        g.__setstate__((n, (tails, heads), (heads, tails), 0))
        return g

    def __getstate__(self) -> tuple:
        """n, out- and in-(node, neighbor) pairs in order, and version."""
        return self._n, self._out.pairs(), self._in.pairs(), self.version

    def __setstate__(self, state: tuple) -> None:
        n, out_pairs, in_pairs, version = state
        self._n = n
        self._m = len(out_pairs[0])
        self.version = version
        self._out = _Adjacency(n, *out_pairs)
        self._in = _Adjacency(n, *in_pairs)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return self._m

    def out_degree(self, u: int) -> int:
        return self._out.degree[u]

    def in_degree(self, u: int) -> int:
        return self._in.degree[u]

    def out_neighbors(self, u: int) -> np.ndarray:
        """Successors of u, a view that later mutations may change."""
        return self._out.row(u)

    def in_neighbors(self, u: int) -> np.ndarray:
        """Predecessors of u, a view that later mutations may change."""
        return self._in.row(u)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is an edge.  Raises ValueError on node ids out of range."""
        self._check_nodes(u, v)
        return v in self._out.row(u).tolist()

    def edges(self) -> Iterator[tuple[int, int]]:
        tails, heads = self._out.pairs()
        return zip(tails.tolist(), heads.tolist())

    def insert_edge(self, u: int, v: int) -> None:
        """Add edge (u, v).  Raises ValueError on self-loops or duplicates."""
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) exists")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        self._out.append(u, v)
        self._in.append(v, u)
        self._m += 1
        self.version += 1

    def delete_edge(self, u: int, v: int) -> None:
        """Remove edge (u, v).  Raises ValueError if absent."""
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not found")
        self._out.remove(u, v)
        self._in.remove(v, u)
        self._m -= 1
        self.version += 1

    def copy(self) -> Digraph:
        """Same edges, neighbor order and version, in compacted arrays."""
        g = Digraph.__new__(Digraph)
        g.__setstate__(self.__getstate__())
        return g

    def _check_nodes(self, u: int, v: int) -> None:
        for x in (u, v):
            if not 0 <= x < self._n:
                raise ValueError(f"node {x} out of range [0, {self._n})")

    def __repr__(self) -> str:
        return f"Digraph(n={self._n}, m={self._m})"


@dataclass(frozen=True)
class LoadResult:
    """Graph plus bookkeeping from parsing an edge list."""

    graph: Digraph
    node_ids: list[int]  # original id of node k, inverse of the dense remap
    duplicates_dropped: int
    self_loops_dropped: int


def load_edge_list(source, mode: str = "directed") -> LoadResult:
    """Parse a whitespace-separated edge list (a path or lines).

    Lines starting with ``#`` or ``%`` and blank lines are skipped, as are
    columns after the first two.  Node ids are int64, remapped to ``[0, n)``
    in order of first appearance.  ``mode="undirected"`` inserts both
    directions.  Self-loops and repeated edges are dropped and counted.
    """
    if mode not in ("directed", "undirected"):
        raise ValueError(f"mode must be 'directed' or 'undirected', got {mode!r}")
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh, mode)
    ends = np.array(_parse_lines(source), dtype=np.int64)
    # Dense ids in order of first appearance; self-loop lines claim ids too.
    ids, first, inv = _first_copies(ends)
    seen = np.argsort(first)
    pairs = np.argsort(seen)[inv].reshape(-1, 2)
    loop = pairs[:, 0] == pairs[:, 1]
    pairs = pairs[~loop]
    if mode == "undirected":
        pairs = np.hstack([pairs, pairs[:, ::-1]]).reshape(-1, 2)
    # Keep the first copy of every edge, in input order.
    key = pairs[:, 0] * len(ids) + pairs[:, 1]
    keep = np.sort(_first_copies(key)[1])
    g = Digraph._bulk(len(ids), pairs[keep, 0], pairs[keep, 1])
    dropped = len(pairs) - len(keep)
    return LoadResult(g, ids[seen].tolist(), dropped, int(loop.sum()))


def _first_copies(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Distinct values, each one's first index, and the inverse map.

    The same as ``np.unique`` with ``return_index``, which sorts stably and
    takes about twice as long as the unstable sort here.
    """
    distinct, inv = np.unique(values, return_inverse=True)
    first = np.full(len(distinct), len(values))
    np.minimum.at(first, inv, np.arange(len(values)))
    return distinct, first, inv


def _parse_lines(lines: Iterable[str]) -> list[int]:
    """Endpoints u0, v0, u1, v1, ...; ValueError names a faulty line."""
    ends: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] in "#%":
            continue
        try:
            a = int(fields[0])
            b = int(fields[1])
        except (IndexError, ValueError):
            why = "expected 'u v', got" if len(fields) < 2 else "non-integer endpoint in"
            raise ValueError(f"line {lineno}: {why} {raw.strip()!r}") from None
        if not (-2**63 <= a < 2**63 and -2**63 <= b < 2**63):
            raise ValueError(f"line {lineno}: endpoint outside int64 in {raw.strip()!r}")
        ends.append(a)
        ends.append(b)
    return ends


def random_digraph(n: int, m: int, rng: np.random.Generator) -> Digraph:
    """Uniform random simple digraph with n nodes and m directed edges."""
    limit = n * (n - 1)
    if m > limit:
        raise ValueError(f"m={m} exceeds {limit} possible edges on {n} nodes")
    if m > limit // 2:
        # Dense: shuffle all ordered pairs and map each index to a pair.
        u, r = np.divmod(rng.permutation(limit)[:m], n - 1)
        return Digraph._bulk(n, u, r + (r >= u))
    edges: dict[tuple[int, int], None] = {}  # an insertion-ordered set
    while len(edges) < m:
        e = (int(rng.integers(n)), int(rng.integers(n)))
        if e[0] != e[1]:
            edges[e] = None
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return Digraph._bulk(n, pairs[:, 0], pairs[:, 1])
