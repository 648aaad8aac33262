"""Incremental maintenance of a uniform forest list under edge updates.

Instead of resampling after each graph change, the list is transformed so
that it remains an exact uniform multiset over the forests of the *new*
graph.  Each transform is a few column operations on the forest store:

* edge insertion selects the rows where the tail is a root and the head's
  tree is rooted elsewhere, appends copies of them (sharing their parents'
  pages), and writes the new edge into the copies;
* edge deletion clears the edge's entry in the rows containing it, keeps
  rows satisfying the same root condition at their weight, and doubles the
  weight of all others.

Weights are integer multiplicities, so the list only grows.  ``prune``
subsamples it back to a configured cap (a uniform draw without replacement
from the multiplicity-expanded multiset), which preserves uniformity, and
keeps the rows drawn at least once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .forest import ForestList
from .graph import Digraph
from .sampling import ForestRng


# Largest total weight an update may leave: below it, one more insert
# copying every row still fits the int64 multiplicities.
MAX_WEIGHT = 2**62


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

    Returns the number of appended forests.  A rejected insertion
    (duplicate, self-loop, a graph that changed behind the list, a corrupt
    row, or a total weight past ``MAX_WEIGHT``), or one that fails part way
    (say, with MemoryError), leaves the graph and the list's rows untouched.
    """
    u, v = edge
    forests.check_version(g)
    if g.has_edge(u, v):  # also rejects node ids out of range before any read
        raise ValueError(f"edge ({u}, {v}) exists")
    before = len(forests)
    src = np.flatnonzero(forests.column(slice(None), u) == -1)
    src = src[forests.roots(v, src) != u]
    if forests.total_weight + int(forests.weight[src].sum()) > MAX_WEIGHT:
        raise OverflowError(f"insert ({u}, {v}) would push the list weight past 2**62")
    try:
        if len(src):
            forests.write(forests.append(src), u, v)
        g.insert_edge(u, v)  # last: it also rejects self-loops, and nothing after it fails
    except BaseException:
        forests.keep(np.arange(len(forests)) < before)
        raise
    forests.version = g.version
    return len(src)


def delete_update(g: Digraph, forests: ForestList, edge: tuple[int, int]) -> None:
    """Delete ``edge`` from the graph and reweight the forest list to match.

    Per unit of multiplicity: forests containing the edge lose it (weight
    kept), forests where the tail is a root and the head roots elsewhere
    keep weight 1, and all remaining forests double.  Raises
    OverflowError, touching nothing, if the new total would pass
    ``MAX_WEIGHT``, and ValueError if the graph changed behind the list.
    """
    u, v = edge
    forests.check_version(g)
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not found")
    col = forests.column(slice(None), u)
    strip = col == v
    keep = col == -1
    keep[keep] = forests.roots(v, np.flatnonzero(keep)) != u
    double = ~(strip | keep)
    if forests.total_weight + int(forests.weight[double].sum()) > MAX_WEIGHT:
        raise OverflowError(f"delete ({u}, {v}) would push the list weight past 2**62")
    g.delete_edge(u, v)
    forests.write(np.flatnonzero(strip), u, -1)
    forests.weight[double] *= 2
    forests.version = g.version


def prune(forests: ForestList, cfg: PruneConfig, rng: ForestRng) -> bool:
    """Subsample the list down to ``cfg.threshold`` if it exceeds it.

    Selection is uniform without replacement over the multiplicity-expanded
    multiset (multivariate hypergeometric over the rows), so a uniform list
    stays uniform.  Rows drawn zero times leave the list.
    Returns True if anything was pruned.
    """
    limit = cfg.threshold
    if forests.total_weight <= limit:
        return False
    forests.weight = rng.generator.multivariate_hypergeometric(forests.weight, limit)
    forests.keep(forests.weight > 0)
    return True


def apply_stream(
    g: Digraph,
    forests: ForestList,
    events: Iterable[UpdateEvent],
    cfg: PruneConfig,
    rng: ForestRng,
    on_event: Callable[[UpdateEvent], None] | None = None,
) -> int:
    """Apply updates in order, pruning whenever the list outgrows the cap.

    ``on_event(ev)``, if given, is called after each event's update and
    prune.  Raises ValueError naming the first invalid event; returns the
    number of events applied.
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
        prune(forests, cfg, rng)
        if on_event is not None:
            on_event(ev)
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
