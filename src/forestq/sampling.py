"""Uniform random sampling of spanning converging forests.

The sampler is cycle popping (Propp & Wilson 1998) on the graph augmented
with an implicit absorbing state.  Every node draws an arrow: with
probability 1/(1+d), for out-degree d, it becomes a root, otherwise it
points at a uniform out-neighbor.  Arrows that close a directed cycle are
drawn again until no cycle is left.  The result is an exact uniform draw
over all spanning converging forests, and it does not depend on the order
in which cycles are popped, so the cycles of many forests are popped at
once with numpy.

Forests are drawn in chunks of about ``_CHUNK`` node slots.  Within a
chunk, pointer doubling sends each node to its root or onto the cycle it
runs into.  A node that reached a root is settled for good, since its path
holds no cycle node; the nodes on cycles draw again and the rest wait for
the next round.  The last doubling pass leaves every node at its root, so
each chunk's successor and root rows are written straight into the forest
store, whose fresh pages a dense view lays out row after row.

Randomness comes from a counter-based generator (Philox), and the chunk
size is a constant, so the output of :func:`sample_forest_list` depends
only on (graph, count, seed).
"""

from __future__ import annotations

import numpy as np

from .forest import Forest, ForestList
from .graph import Digraph

# Node slots (forests x nodes) popped together.  Small enough to keep the
# work arrays near 5 MB; a chunk always holds at least one forest.
_CHUNK = 1 << 16
# Each round pops every cycle present; termination is almost sure, so
# hitting this cap means something is broken.
_MAX_ROUNDS = 10_000


class ForestRng:
    """Seeded random stream: a Philox generator keyed by ``SeedSequence(seed)``."""

    __slots__ = ("generator",)

    def __init__(self, seed: int = 0) -> None:
        self.generator = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sample_forest(g: Digraph, rng: ForestRng) -> Forest:
    """Draw one uniform spanning converging forest."""
    succ = np.empty((1, g.n), dtype=np.int32)
    _sample(g, rng, succ, np.empty_like(succ))
    return Forest(succ[0])


def sample_forest_list(g: Digraph, count: int, rng: ForestRng) -> ForestList:
    """Draw ``count`` independent uniform forests as a multiplicity-1 list."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    forests, succ = ForestList._blank(count, g.n)
    _sample(g, rng, succ, forests.root)
    forests.version = g.version
    return forests


def _sample(g: Digraph, rng: ForestRng, succ: np.ndarray, root: np.ndarray) -> None:
    """Fill the rows of ``succ`` with forests and ``root`` with their roots."""
    n = g.n
    nbr, start, deg = g._out.nbr, np.asarray(g._out.start), np.asarray(g._out.degree)

    def draw(v: np.ndarray) -> np.ndarray:
        # A uniform pick among v's out-neighbors and "root here" (pick ==
        # deg[v]); the adjacency array's spare slot keeps the read at
        # start[v] + deg[v] in bounds.
        d = deg[v]
        pick = (rng.generator.random(v.size) * (d + 1)).astype(np.int64)
        return np.where(pick < d, nbr[start[v] + pick], -1)

    count = len(succ)
    per_chunk = max(1, _CHUNK // max(n, 1))
    for first in range(0, count, per_chunk):
        last = min(first + per_chunk, count)
        _pop_cycles(draw, succ[first:last], root[first:last])


def _pop_cycles(draw, succ_out: np.ndarray, root_out: np.ndarray) -> None:
    """Write forests into the rows of ``succ_out`` and their roots into ``root_out``.

    Works on flat slot indices ``row * n + v``; ``jump`` holds a flat index
    per slot and roots point at themselves.
    """
    rows, n = succ_out.shape
    size = rows * n
    node = np.tile(np.arange(n, dtype=np.int64), rows)
    offset = np.repeat(np.arange(0, size, max(n, 1), dtype=np.int64), n)
    succ = draw(node)
    active = np.arange(size, dtype=np.int64)
    jump = np.where(succ < 0, active, succ + offset)
    passes = n.bit_length() + 1
    for _ in range(_MAX_ROUNDS):
        # After 2^passes > 2n steps every unsettled node sits on the cycle
        # it runs into, and their jumps cover each such cycle exactly.
        for _ in range(passes):
            hop = jump[jump[active]]
            jump[active] = hop
            active = active[succ[hop] >= 0]
            if not active.size:
                succ_out[...] = succ.reshape(rows, n)
                root_out[...] = (jump - offset).reshape(rows, n)
                return
        cycle = np.unique(jump[active])
        succ[cycle] = draw(node[cycle])
        nxt = succ[active]
        jump[active] = np.where(nxt < 0, active, nxt + offset[active])
    raise RuntimeError(f"cycle popping did not finish within {_MAX_ROUNDS} rounds")
