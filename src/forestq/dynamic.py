"""Incremental maintenance of a uniform forest list under edge updates.

Instead of resampling after each graph change, the list is transformed so
that it remains an exact uniform multiset over the forests of the *new*
graph:

* edge insertion appends, for every forest where the tail is a root and the
  head's tree is rooted elsewhere, a copy extended by the new edge;
* edge deletion strips the edge from forests containing it, keeps forests
  satisfying the same root condition at weight 1, and doubles the weight of
  all others.

Weights are integer multiplicities, so the list only grows.  ``prune``
subsamples it back to a configured cap (a uniform draw without replacement
from the multiplicity-expanded multiset), which preserves uniformity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .forest import Forest, ForestList
from .graph import Digraph
from .sampling import ForestRng


@dataclass(frozen=True)
class UpdateEvent:
    kind: str  # "insert" or "delete"
    edge: tuple[int, int]
    sequence: int = 0


@dataclass(frozen=True)
class PruneConfig:
    """Prune trigger: cap the list at ``factor`` times its seed size."""

    base_count: int
    factor: float = 5.0

    def __post_init__(self) -> None:
        if self.base_count < 1:
            raise ValueError(f"base_count must be >= 1, got {self.base_count}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")

    @property
    def threshold(self) -> int:
        return max(self.base_count, int(self.factor * self.base_count))


def insert_update(g: Digraph, forests: ForestList, edge: tuple[int, int]) -> int:
    """Insert ``edge`` into the graph and extend the forest list to match.

    Returns the number of appended forests.  The graph is mutated first;
    a rejected insertion (duplicate, self-loop) leaves the list untouched.
    """
    u, v = edge
    g.insert_edge(u, v)
    spawned: list[Forest] = []
    for f in forests.forests:
        if f.successor[u] == -1 and f.resolve_root(v) != u:
            child = Forest(f.successor.copy(), multiplicity=f.multiplicity)
            child.successor[u] = v
            spawned.append(child)
    for child in spawned:
        forests.append(child)
    forests.epoch += 1
    return len(spawned)


def delete_update(g: Digraph, forests: ForestList, edge: tuple[int, int]) -> None:
    """Delete ``edge`` from the graph and reweight the forest list to match.

    Per unit of multiplicity: forests containing the edge lose it (weight
    kept), forests where the tail is a root and the head roots elsewhere
    keep weight 1, and all remaining forests double.  The edge is removed
    from the graph after the list transformation.
    """
    u, v = edge
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not found")
    for f in forests.forests:
        if f.successor[u] == v:
            f.successor[u] = -1
            f.dirty = True
        elif f.successor[u] == -1 and f.resolve_root(v) != u:
            pass
        else:
            f.multiplicity *= 2
    g.delete_edge(u, v)
    forests.recompute_weight()
    forests.epoch += 1


def prune(forests: ForestList, cfg: PruneConfig, rng: ForestRng) -> bool:
    """Subsample the list down to ``cfg.threshold`` if it exceeds it.

    Selection is uniform without replacement over the multiplicity-expanded
    multiset (multivariate hypergeometric over the distinct forests), so a
    uniform list stays uniform.  Returns True if anything was pruned.
    """
    limit = cfg.threshold
    if forests.total_weight <= limit:
        return False
    counts = np.array([f.multiplicity for f in forests.forests], dtype=np.int64)
    keep = rng.generator.multivariate_hypergeometric(counts, limit)
    retained: list[Forest] = []
    for f, k in zip(forests.forests, keep):
        if k:
            f.multiplicity = int(k)
            retained.append(f)
    forests.forests = retained
    forests.total_weight = limit
    forests.epoch += 1
    return True


def apply_stream(
    g: Digraph,
    forests: ForestList,
    events: Iterable[UpdateEvent],
    cfg: PruneConfig,
    rng: ForestRng,
) -> int:
    """Apply updates in order, pruning whenever the list outgrows the cap.

    Raises ValueError naming the first invalid event; returns the number of
    events applied.
    """
    applied = 0
    floor = min(forests.total_weight, cfg.base_count)
    for idx, ev in enumerate(events):
        try:
            if ev.kind == "insert":
                insert_update(g, forests, ev.edge)
            elif ev.kind == "delete":
                delete_update(g, forests, ev.edge)
            else:
                raise ValueError(f"unknown event kind {ev.kind!r}")
        except ValueError as exc:
            raise ValueError(f"event {idx}: {exc}") from exc
        # Updates never shrink the list and prune stops at the threshold, so
        # the weight can never fall below the seed count; no replenishment
        # sampling is ever needed.
        if forests.total_weight < floor:
            raise RuntimeError(
                f"event {idx}: list weight {forests.total_weight} fell below {floor}"
            )
        if forests.total_weight > cfg.threshold:
            prune(forests, cfg, rng)
        applied += 1
    return applied


def parse_update_stream(source) -> list[UpdateEvent]:
    """Parse an update stream: one ``I u v`` or ``D u v`` per line.

    ``source`` is a path or an iterable of lines; ``#`` comments and blank
    lines are skipped.  Events are numbered in order of appearance.
    """
    import os

    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_update_stream(fh)
    events: list[UpdateEvent] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'I u v' or 'D u v', got {line!r}")
        op = fields[0].upper()
        if op == "I":
            kind = "insert"
        elif op == "D":
            kind = "delete"
        else:
            raise ValueError(f"line {lineno}: unknown op {fields[0]!r}")
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        events.append(UpdateEvent(kind, (u, v), sequence=len(events)))
    return events
