import io

import numpy as np
import pytest

from forestq import (
    Digraph,
    Forest,
    ForestCycleError,
    ForestList,
    ForestRng,
    PruneConfig,
    UpdateEvent,
    apply_stream,
    delete_update,
    enumerate_forests,
    insert_update,
    parse_update_stream,
    prune,
    random_digraph,
    sample_forest_list,
    sfqplus_query,
)
from helpers import random_small_digraph, three_cycle, uniform_list


def list_rows(forests: ForestList) -> list[tuple[tuple[int, ...], int]]:
    """Each row's successors and weight, in list order."""
    return [(f.as_tuple(), f.multiplicity) for f in forests]


def assert_exactly_uniform(forests: ForestList, g) -> None:
    target = enumerate_forests(g)
    agg = forests.weight_by_forest()
    assert len(agg) == target.size
    weights = {agg.get(f, 0) for f in target.forests}
    assert len(weights) == 1
    assert 0 not in weights


def test_insert_extends_three_cycle_list():
    g = three_cycle()
    fl = uniform_list(g)
    spawned = insert_update(g, fl, (0, 2))
    assert g.has_edge(0, 2)
    assert spawned == 2
    assert fl.total_weight == 9
    assert_exactly_uniform(fl, g)


def test_delete_reweights_three_cycle_list():
    g = three_cycle()
    fl = uniform_list(g)
    delete_update(g, fl, (2, 0))
    assert not g.has_edge(2, 0)
    assert fl.total_weight == 8
    agg = fl.weight_by_forest()
    assert len(agg) == 4
    assert set(agg.values()) == {2}
    assert_exactly_uniform(fl, g)


def test_insert_spawns_match_root_condition():
    gen = np.random.default_rng(41)
    for _ in range(20):
        g = random_small_digraph(gen, max_n=4)
        if g.m == g.n * (g.n - 1):
            continue
        fs = enumerate_forests(g)
        fl = uniform_list(g)
        # pick an absent pair
        pairs = [
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and not g.has_edge(u, v)
        ]
        u, v = pairs[int(gen.integers(len(pairs)))]

        def root(f, i):
            while f[i] != -1:
                i = f[i]
            return i

        eligible = {f for f in fs.forests if root(f, u) == u and root(f, v) != u}
        before = len(fl)
        spawned = insert_update(g, fl, (u, v))
        assert spawned == len(eligible)
        stripped = []
        for child in list(fl)[before:]:
            assert child.successor[u] == v
            base = list(child.successor)
            base[u] = -1
            stripped.append(tuple(base))
        # stripping the new edge recovers each eligible parent exactly once
        assert len(set(stripped)) == len(stripped)
        assert set(stripped) == eligible


def test_single_edge_updates_keep_uniformity_random_sweep():
    gen = np.random.default_rng(42)
    done = 0
    while done < 15:
        g = random_small_digraph(gen, max_n=4, min_edges=1)
        pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
        for u, v in pairs:
            g2 = g.copy()
            fl = uniform_list(g)
            if g2.has_edge(u, v):
                delete_update(g2, fl, (u, v))
            else:
                insert_update(g2, fl, (u, v))
            assert_exactly_uniform(fl, g2)
            for f in fl:
                assert f.invariant_errors(g2) == []
        done += 1


def test_insert_then_delete_roundtrip_stays_uniform():
    g = three_cycle()
    fl = uniform_list(g)
    insert_update(g, fl, (0, 2))
    delete_update(g, fl, (0, 2))
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 0)]
    assert_exactly_uniform(fl, g)


def test_insert_validation_leaves_state_untouched():
    g = three_cycle()
    fl = uniform_list(g)
    with pytest.raises(ValueError, match="exists"):
        insert_update(g, fl, (0, 1))
    with pytest.raises(ValueError, match="self-loop"):
        insert_update(g, fl, (1, 1))
    assert fl.total_weight == 7
    assert g.m == 3


def test_delete_validation_leaves_state_untouched():
    g = three_cycle()
    fl = uniform_list(g)
    with pytest.raises(ValueError, match="not found"):
        delete_update(g, fl, (1, 0))
    with pytest.raises(ValueError, match="out of range"):
        delete_update(g, fl, (-1, 0))  # Python indexing would read node 2
    assert fl.total_weight == 7
    assert set(fl.weight_by_forest().values()) == {1}
    assert g.m == 3


def test_updates_refuse_weight_past_2_62():
    # In 0 -> 1 -> 2 the head of (2, 0) roots at its tail, so deleting the
    # edge doubles the forest.
    g = three_cycle()
    fl = ForestList([Forest(np.array([1, 2, -1]), 2**62)])
    with pytest.raises(OverflowError):
        delete_update(g, fl, (2, 0))
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 0)]
    assert fl.weight_by_forest() == {(1, 2, -1): 2**62}

    # With every node a root, inserting (2, 0) spawns a copy.
    g = Digraph(3)
    fl = ForestList([Forest(np.array([-1, -1, -1]), 2**62)])
    with pytest.raises(OverflowError):
        insert_update(g, fl, (2, 0))
    assert g.m == 0 and len(fl) == 1
    assert fl.weight_by_forest() == {(-1, -1, -1): 2**62}
    # The refused insert never touched the graph, so its version stays.
    assert g.version == 0 and fl.version is None


def test_insert_on_a_corrupt_row_changes_nothing():
    # A cycle written into one row makes the insert's root read raise; the
    # graph and the list are left as they were.
    g = three_cycle()
    fl = sample_forest_list(g, 40, ForestRng(9))
    row = np.flatnonzero(fl.column(np.arange(len(fl)), 2) == -1)[:1]
    fl.write(row, 0, 1)
    fl.write(row, 1, 0)
    edges, version = sorted(g.edges()), g.version
    rows = list_rows(fl)
    with pytest.raises(ForestCycleError):
        insert_update(g, fl, (2, 1))
    assert sorted(g.edges()) == edges and g.version == version == fl.version
    assert list_rows(fl) == rows


def test_failed_insert_leaves_the_list_untouched(monkeypatch):
    # The insert runs out of memory in the write that follows its copies:
    # the copies go again, every page reference with them, and the graph
    # never takes the edge.
    g = random_digraph(50, 150, np.random.default_rng(20))
    fl = sample_forest_list(g, 20, ForestRng(20))

    def spawns(u: int, v: int) -> int:
        return int(((fl.column(np.arange(len(fl)), u) == -1) & (fl.roots(v) != u)).sum())

    u, v = next((u, v) for u in range(g.n) for v in range(g.n)
                if u != v and not g.has_edge(u, v) and spawns(u, v) >= 5)
    spawned = spawns(u, v)
    edges, version, rows = sorted(g.edges()), g.version, list_rows(fl)

    def out_of_memory(self, k):
        raise MemoryError

    monkeypatch.setattr(ForestList, "_alloc", out_of_memory)
    with pytest.raises(MemoryError):
        insert_update(g, fl, (u, v))
    assert list_rows(fl) == rows
    assert np.array_equal(fl.ref, np.bincount(fl.table.ravel(), minlength=len(fl.ref)))
    assert sorted(g.edges()) == edges and g.version == version == fl.version
    monkeypatch.undo()
    assert insert_update(g, fl, (u, v)) == spawned


def test_graph_changed_behind_list_raises():
    g = three_cycle()
    fl = sample_forest_list(g, 40, ForestRng(5))
    assert fl.version == g.version
    insert_update(g, fl, (0, 2))
    delete_update(g, fl, (1, 2))
    assert fl.version == g.version
    sfqplus_query(g, fl, 0, 1)

    g.insert_edge(1, 2)  # behind the list's back
    edges, rows = sorted(g.edges()), list_rows(fl)
    for call in (lambda: insert_update(g, fl, (2, 1)), lambda: delete_update(g, fl, (0, 1)),
                 lambda: sfqplus_query(g, fl, 0, 0)):
        with pytest.raises(ValueError, match="version"):
            call()
        assert sorted(g.edges()) == edges and list_rows(fl) == rows


def test_list_built_from_forests_is_unstamped():
    g = three_cycle()
    fl = uniform_list(g)
    assert fl.version is None
    g.insert_edge(0, 2)  # not checked: the list never saw a graph version
    sfqplus_query(g, fl, 0, 1)
    delete_update(g, fl, (0, 2))
    assert fl.version == g.version


def test_weight_never_decreases_without_prune():
    gen = np.random.default_rng(43)
    g = random_small_digraph(gen, max_n=5, min_edges=2)
    fl = sample_forest_list(g, 30, ForestRng(43))
    last = fl.total_weight
    for _ in range(40):
        pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
        u, v = pairs[int(gen.integers(len(pairs)))]
        if g.has_edge(u, v):
            delete_update(g, fl, (u, v))
        else:
            insert_update(g, fl, (u, v))
        assert fl.total_weight >= last
        last = fl.total_weight


# ---- prune ----

def test_prune_noop_at_or_below_threshold():
    g = three_cycle()
    fl = uniform_list(g)
    cfg = PruneConfig(base_count=7, factor=1.0)
    assert fl.total_weight == cfg.threshold
    assert prune(fl, cfg, ForestRng(1)) is False
    assert fl.total_weight == 7


def test_prune_cuts_to_threshold():
    g = three_cycle()
    fl = ForestList(Forest(f.successor, 10) for f in uniform_list(g))
    before = {f.as_tuple(): f.multiplicity for f in fl}
    cfg = PruneConfig(base_count=7, factor=2.0)
    assert prune(fl, cfg, ForestRng(2)) is True
    assert fl.total_weight == 14
    assert sum(f.multiplicity for f in fl) == 14
    for f in fl:
        assert 1 <= f.multiplicity <= before[f.as_tuple()]


def test_prune_deterministic_with_seed():
    def run(seed):
        g = three_cycle()
        fl = ForestList(Forest(f.successor, 9) for f in uniform_list(g))
        prune(fl, PruneConfig(7, 3.0), ForestRng(seed))
        return sorted(fl.weight_by_forest().items())

    assert run(5) == run(5)
    assert run(5) != run(6) or run(5) != run(7)  # at least one differs


def test_prune_config_validation():
    with pytest.raises(ValueError, match="base_count"):
        PruneConfig(0)
    with pytest.raises(ValueError, match="factor"):
        PruneConfig(10, 0.5)
    assert PruneConfig(10, 2.5).threshold == 25


# ---- streams ----

def test_apply_stream_matches_manual_sequence():
    g1 = three_cycle()
    fl1 = uniform_list(g1)
    events = [
        UpdateEvent("insert", (0, 2), 0),
        UpdateEvent("delete", (2, 0), 1),
        UpdateEvent("insert", (2, 0), 2),
    ]
    cfg = PruneConfig(base_count=7, factor=5.0)
    applied = apply_stream(g1, fl1, events, cfg, ForestRng(9))

    g2 = three_cycle()
    fl2 = uniform_list(g2)
    insert_update(g2, fl2, (0, 2))
    delete_update(g2, fl2, (2, 0))
    insert_update(g2, fl2, (2, 0))

    assert applied == 3
    assert sorted(g1.edges()) == sorted(g2.edges())
    assert fl1.weight_by_forest() == fl2.weight_by_forest()


def test_apply_stream_prunes_when_cap_exceeded():
    g = three_cycle()
    fl = uniform_list(g)
    cfg = PruneConfig(base_count=7, factor=1.0)
    events = [UpdateEvent("delete", (2, 0), 0)]  # doubles most weights
    seen = []
    apply_stream(g, fl, events, cfg, ForestRng(10),
                 on_event=lambda ev: seen.append((ev, fl.total_weight)))
    assert fl.total_weight == 7  # pruned back to the cap
    assert seen == [(events[0], 7)]  # on_event runs after the prune


def test_apply_stream_reports_failing_event_index():
    g = three_cycle()
    fl = uniform_list(g)
    events = [
        UpdateEvent("insert", (0, 2), 0),
        UpdateEvent("insert", (0, 1), 1),  # duplicate
    ]
    with pytest.raises(ValueError, match="event 1"):
        apply_stream(g, fl, events, PruneConfig(7), ForestRng(0))
    assert g.has_edge(0, 2)  # first event stuck


def test_apply_stream_unknown_kind():
    g = three_cycle()
    fl = uniform_list(g)
    with pytest.raises(ValueError, match="event 0.*unknown"):
        apply_stream(g, fl, [UpdateEvent("swap", (0, 1), 0)], PruneConfig(7), ForestRng(0))


def test_apply_stream_raises_when_weight_falls_below_floor(monkeypatch):
    from forestq import dynamic

    def lossy_delete(g, forests, edge):
        g.delete_edge(*edge)
        forests.keep(np.arange(len(forests)) < 1)

    monkeypatch.setattr(dynamic, "delete_update", lossy_delete)
    g = three_cycle()
    fl = uniform_list(g)
    events = [UpdateEvent("delete", (2, 0), 0)]
    with pytest.raises(RuntimeError, match="event 0.*below 7"):
        apply_stream(g, fl, events, PruneConfig(7), ForestRng(0))


def test_parse_update_stream():
    text = "# churn\nI 0 2\n\nD 2 0\ni 1 0\n"
    events = parse_update_stream(io.StringIO(text))
    assert events == [
        UpdateEvent("insert", (0, 2), 0),
        UpdateEvent("delete", (2, 0), 1),
        UpdateEvent("insert", (1, 0), 2),
    ]


def test_parse_update_stream_from_path(tmp_path):
    p = tmp_path / "stream.txt"
    p.write_text("I 0 1\n")
    assert parse_update_stream(p) == [UpdateEvent("insert", (0, 1), 0)]


def test_parse_update_stream_errors():
    with pytest.raises(ValueError, match="line 1.*unknown op"):
        parse_update_stream(io.StringIO("X 0 1\n"))
    with pytest.raises(ValueError, match="line 2"):
        parse_update_stream(io.StringIO("I 0 1\nI 0\n"))
    with pytest.raises(ValueError, match="line 1.*non-integer"):
        parse_update_stream(io.StringIO("I a b\n"))


def test_updated_forests_share_no_storage():
    # Spawned rows share their parents' pages until written; a write through
    # the store copies the shared page, so the parents keep their rows.
    g = three_cycle()
    fl = uniform_list(g)
    before = len(fl)
    insert_update(g, fl, (0, 2))
    parent_tuples = [f.as_tuple() for f in fl][:before]
    children = np.arange(before, len(fl))
    fl.write(children, 1, -1)
    fl.write(children[:1], 2, 1)
    assert [f.as_tuple() for f in fl][:before] == parent_tuples
    assert fl.column(children, 1).tolist() == [-1] * len(children)


def test_long_stream_with_prunes_keeps_marginal_uniform():
    # One drawn slot per independent replica: the maintained list stays
    # marginally uniform even after many updates interleaved with prunes.
    from scipy import stats

    from forestq import Digraph

    gen = np.random.default_rng(61)
    base = Digraph(6)
    while base.m < 10:
        u, v = int(gen.integers(6)), int(gen.integers(6))
        if u != v and not base.has_edge(u, v) and not base.has_edge(v, u):
            base.insert_edge(u, v)
            base.insert_edge(v, u)

    planned = base.copy()
    events = []
    for k in range(25):
        while True:
            u, v = int(gen.integers(6)), int(gen.integers(6))
            if u != v and not planned.has_edge(u, v):
                break
        events.append(UpdateEvent("insert", (u, v), 2 * k))
        planned.insert_edge(u, v)
        edges = list(planned.edges())
        eu, ev = edges[int(gen.integers(len(edges)))]
        events.append(UpdateEvent("delete", (eu, ev), 2 * k + 1))
        planned.delete_edge(eu, ev)

    target = enumerate_forests(planned)
    index = {f: k for k, f in enumerate(target.forests)}
    cfg = PruneConfig(base_count=60, factor=5.0)
    counts = np.zeros(target.size, dtype=np.int64)
    for r in range(800):
        g = base.copy()
        rng = ForestRng(5000 + r)
        fl = sample_forest_list(g, 60, rng)
        apply_stream(g, fl, events, cfg, rng)
        pick = int(rng.generator.integers(fl.total_weight))
        acc = 0
        for f in fl:
            acc += f.multiplicity
            if pick < acc:
                counts[index[f.as_tuple()]] += 1
                break
    assert counts.sum() == 800
    assert stats.chisquare(counts).pvalue >= 0.001
