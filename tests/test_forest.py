import numpy as np
import pytest

from forestq import (
    Forest,
    ForestCycleError,
    ForestList,
    ForestRng,
    PruneConfig,
    delete_update,
    insert_update,
    prune,
    sample_forest_list,
)
from helpers import chain_root, random_small_digraph, three_cycle, two_node


def make(succ, **kw) -> Forest:
    return Forest(np.array(succ, dtype=np.int32), **kw)


def test_resolve_root_walks_chain():
    fl = ForestList([make([1, 2, -1])])  # 0 -> 1 -> 2
    assert [int(fl.roots(i)[0]) for i in range(3)] == [2, 2, 2]


def test_resolve_root_isolated():
    fl = ForestList([make([-1, -1])])
    assert [int(fl.roots(i)[0]) for i in range(2)] == [0, 1]


def test_dirty_flag_semantics():
    # A sampled row keeps the sampler's roots until an update edits it; the
    # edit must not leave the old root behind.
    g = two_node()
    fl = sample_forest_list(g, 50, ForestRng(3))
    joined = fl.succ[fl.order, 0] == 1
    assert joined.any() and fl.clean[fl.order].all()
    assert set(fl.roots(0)[joined].tolist()) == {1}
    delete_update(g, fl, (0, 1))
    assert not fl.clean[fl.order[joined]].any()
    assert fl.clean[fl.order[~joined]].all()
    assert fl.roots(0).tolist() == [0] * len(fl)


def test_cycle_detection():
    with pytest.raises(ForestCycleError):
        ForestList([make([1, 0, -1])]).roots(0)
    with pytest.raises(ForestCycleError):
        ForestList([make([0, -1])]).roots(0)  # self successor
    assert ForestList([make([1, 0, -1])]).roots(2).tolist() == [2]


def test_as_tuple_and_roots():
    f = make([1, 2, -1, -1])
    assert f.as_tuple() == (1, 2, -1, -1)
    assert f.root_nodes() == [2, 3]
    assert f.contains_edge(0, 1)
    assert not f.contains_edge(1, 0)
    assert f.is_root(3)


def test_debug_lines():
    f = make([1, -1])
    assert list(f.debug_lines()) == ["0 -> 1", "1 -> ."]


def test_invariant_errors():
    g = three_cycle()
    ok = make([1, 2, -1])
    assert ok.invariant_errors(g) == []

    wrong_edge = make([2, -1, -1])  # (0, 2) is not an edge of the 3-cycle
    assert any("not in graph" in e for e in wrong_edge.invariant_errors(g))

    cyclic = make([1, 2, 0])
    assert any("cycle" in e for e in cyclic.invariant_errors(g))

    bad_mult = make([1, 2, -1], multiplicity=0)
    assert any("multiplicity" in e for e in bad_mult.invariant_errors(g))

    short = make([-1])
    assert any("size mismatch" in e for e in short.invariant_errors(g))


def test_forest_list_weights():
    fl = ForestList([make([-1, -1]), make([1, -1], multiplicity=3),
                     make([-1, -1], multiplicity=2)])
    assert fl.total_weight == 6
    assert len(fl) == 3
    assert fl.weight_by_forest() == {(-1, -1): 3, (1, -1): 3}
    assert [(f.as_tuple(), f.multiplicity) for f in fl] == [
        ((-1, -1), 1), ((1, -1), 3), ((-1, -1), 2)
    ]


def test_forest_list_iteration_and_repr():
    fl = ForestList([make([-1])])
    assert [f.n for f in fl] == [1]
    assert "weight=1" in repr(fl)
    assert "x1" in repr(next(iter(fl)))


def test_iteration_views_are_read_only():
    fl = sample_forest_list(three_cycle(), 4, ForestRng(5))
    f = next(iter(fl))
    with pytest.raises(ValueError):
        f.successor[0] = -1


def test_growth_keeps_rows_with_and_without_outside_views():
    g = three_cycle()
    for hold in (False, True):
        fl = ForestList([make([1, 2, -1]), make([-1, -1, -1], multiplicity=2)])
        held = list(fl) if hold else []
        grown_in_place = fl._map
        slots = fl.claim(5)
        assert (fl._map is grown_in_place) == (not hold)
        assert len(fl.weight) >= 7 and not fl.clean[slots].any()
        assert [f.as_tuple() for f in fl] == [(1, 2, -1), (-1, -1, -1)]
        assert [f.as_tuple() for f in held] == [(1, 2, -1), (-1, -1, -1)][: len(held)]
        assert fl.total_weight == 3
        assert all(f.invariant_errors(g) == [] for f in fl)


def test_store_matches_chain_walks_under_random_updates():
    # Random insert, delete and prune sequences on small digraphs.  After
    # every step every live row is a forest of the current graph, and the
    # roots the store reports equal a plain chain walk of the row, whether
    # the row still holds the sampler's roots, was spawned by an insert, or
    # was edited by a delete, or was spawned into a sampled row's freed slot.
    gen = np.random.default_rng(71)
    seen = {"clean": 0, "spawned": 0, "edited": 0, "reused": 0}
    for trial in range(30):
        g = random_small_digraph(gen, max_n=7, min_edges=1)
        rng = ForestRng(700 + trial)
        fl = sample_forest_list(g, 12, rng)
        sampled = set(fl.order.tolist())
        cfg = PruneConfig(base_count=12, factor=2.0)
        held: list = []
        for _ in range(25):
            step = gen.random()
            pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
            if step < 0.3 or not pairs:
                prune(fl, cfg, rng)
            else:
                u, v = pairs[int(gen.integers(len(pairs)))]
                if g.has_edge(u, v):
                    edited = fl.order[fl.succ[fl.order, u] == v]
                    delete_update(g, fl, (u, v))
                    seen["edited"] += len(edited)
                else:
                    before = set(fl.order.tolist())
                    spawned = insert_update(g, fl, (u, v))
                    new = set(fl.order.tolist()) - before
                    assert len(new) == spawned
                    seen["spawned"] += spawned
                    seen["reused"] += len(new & sampled)
            # Views held across the next update exercise the copying growth path.
            held = list(fl) if gen.random() < 0.3 else []
            live = fl.order
            seen["clean"] += int(np.isin(live[fl.clean[live]], list(sampled)).sum())
            assert len(set(live.tolist())) == len(live)
            assert (fl.weight[live] >= 1).all()
            for f in fl:
                assert f.invariant_errors(g) == []
            for i in range(g.n):
                expected = [chain_root(fl.succ[s], i) for s in live.tolist()]
                assert fl.roots(i).tolist() == expected
        del held
    assert min(seen.values()) > 20, seen
