import pickle
from copy import deepcopy

import numpy as np
import pytest

from forestq import (
    Digraph,
    Forest,
    ForestCycleError,
    ForestList,
    ForestRng,
    PruneConfig,
    delete_update,
    insert_update,
    prune,
    random_digraph,
    sample_forest_list,
)
from helpers import chain_root, random_small_digraph, three_cycle, two_node


def make(succ, **kw) -> Forest:
    return Forest(np.array(succ, dtype=np.int32), **kw)


def prune_draw(fl: ForestList, cfg: PruneConfig, rng: ForestRng) -> np.ndarray | None:
    """The weights ``prune(fl, cfg, rng)`` is about to draw; None if it will not prune."""
    if fl.total_weight <= cfg.threshold:
        return None
    return deepcopy(rng).generator.multivariate_hypergeometric(fl.weight, cfg.threshold)


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
    joined = fl.column(np.arange(len(fl)), 0) == 1
    assert joined.any() and fl.sampled.tolist() == list(range(50))
    assert set(fl.roots(0)[joined].tolist()) == {1}
    delete_update(g, fl, (0, 1))
    assert (fl.sampled[joined] == -1).all()
    assert fl.sampled[~joined].tolist() == np.flatnonzero(~joined).tolist()
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
    assert "roots=2" in repr(f)


def test_forest_list_rejects_malformed_forests():
    with pytest.raises(ValueError, match="forest 1 has 2 nodes"):
        ForestList([make([-1, -1, -1]), make([-1, -1])])
    with pytest.raises(ValueError, match=r"forest 0 has a successor outside \[-1, 2\)"):
        ForestList([make([5, -1])])
    with pytest.raises(ValueError, match="forest 1 has a successor outside"):
        ForestList([make([-1, -1]), make([-2, -1])])


def test_invariant_errors():
    g = three_cycle()
    ok = make([1, 2, -1])
    assert ok.invariant_errors(g) == []

    wrong_edge = make([2, -1, -1])  # (0, 2) is not an edge of the 3-cycle
    assert any("not in graph" in e for e in wrong_edge.invariant_errors(g))

    out_of_range = make([5, -1, -1])
    assert any("outside" in e for e in out_of_range.invariant_errors(g))

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


def test_page_pool_grows_and_reuses_freed_pages():
    # A new store reserves one spare page per filled page.  Each write to a
    # shared page takes a free page, spare ones included; the pool doubles
    # only when none is free, and pages that prune releases are taken first.
    g = Digraph(3)
    fl = ForestList([make([-1, -1, -1], multiplicity=2)])
    held = [f.successor for f in fl]
    assert fl.pages.shape == (2, 4) and fl.ref.tolist() == [1, 0]
    insert_update(g, fl, (0, 1))
    assert fl.pages.shape == (2, 4) and fl.ref.tolist() == [1, 1]
    insert_update(g, fl, (2, 1))
    assert [f.as_tuple() for f in fl] == [
        (-1, -1, -1), (1, -1, -1), (-1, -1, 1), (1, -1, 1)
    ]
    assert len(fl.ref) == 4 and fl.ref.tolist() == [1, 1, 1, 1]
    assert len(fl.table) == 4 and (fl.sampled == -1).all()
    assert held[0].tolist() == [-1, -1, -1]
    prune(fl, PruneConfig(base_count=2, factor=1.0), ForestRng(4))
    live = set(fl.table[:, 0].tolist())
    assert len(fl) <= 2 and fl.ref.sum() == len(live) == len(fl)
    assert insert_update(g, fl, (1, 2)) == 1
    assert len(fl.ref) == 4  # the spawned row took a page prune freed
    assert fl.ref.tolist() == np.bincount(fl.table[:, 0], minlength=4).tolist()
    assert all(f.invariant_errors(g) == [] for f in fl)


def test_first_insert_takes_spare_pages_in_place():
    # A sampled list's spare pages come with it, so the first insert writes
    # its copies into them instead of moving the pool to a larger buffer.
    g = random_digraph(3000, 9000, np.random.default_rng(5))
    fl = sample_forest_list(g, 16, ForestRng(5))
    buf, shape = fl.pages.ctypes.data, fl.pages.shape
    assert shape == (2 * 16 * 3, 1024) and np.count_nonzero(fl.ref) == 16 * 3
    u = int(np.flatnonzero(next(iter(fl)).successor == -1)[0])
    v = next(v for v in range(g.n)
             if v != u and not g.has_edge(u, v) and fl.roots(v, np.arange(1))[0] != u)
    assert insert_update(g, fl, (u, v)) >= 1
    assert fl.pages.ctypes.data == buf and fl.pages.shape == shape


def test_churn_frees_root_and_compacts_the_pool():
    # A stream on 16-page rows.  Once no row uses a ``root`` row, a prune
    # frees ``root``; once at most 1/32 of the pool is live, the live pages
    # move to a pool of twice their number, renumbered through ``table``.
    # The pool never holds 32 or more pages per live page, and a prune
    # keeps the drawn rows, in order, as they were.
    gen = np.random.default_rng(2)
    g = random_digraph(16384, 4 * 16384, gen)
    rng = ForestRng(2)
    fl = sample_forest_list(g, 256, rng)
    cfg = PruneConfig(base_count=256, factor=2.0)
    compacted = after = 0
    for k in range(600):
        if k % 2 == 0:
            while True:
                u, v = (int(x) for x in gen.integers(g.n, size=2))
                if u != v and not g.has_edge(u, v):
                    break
            insert_update(g, fl, (u, v))
        else:
            u = int(gen.integers(g.n))
            while not g.out_degree(u):
                u = int(gen.integers(g.n))
            v = int(g.out_neighbors(u)[int(gen.integers(g.out_degree(u)))])
            delete_update(g, fl, (u, v))
        rows = [f.successor.copy() for f in fl]
        draw = prune_draw(fl, cfg, rng)
        pool = len(fl.ref)
        if prune(fl, cfg, rng):
            rows = [row for row, w in zip(rows, draw) if w]
            assert fl.weight.tolist() == draw[draw > 0].tolist()
            if (fl.sampled < 0).all():
                assert len(fl.root) == 0
        live = np.count_nonzero(fl.ref)
        assert len(fl.ref) < 32 * live
        if len(fl.ref) < pool:
            compacted += 1
            assert len(fl.ref) == 2 * live and len(fl.root) == 0
        assert np.array_equal(fl.ref, np.bincount(fl.table.ravel(), minlength=len(fl.ref)))
        assert all(np.array_equal(f.successor, row) for f, row in zip(fl, rows, strict=True))
        after += compacted > 0
        if after == 20:
            break
    assert compacted and after == 20
    assert len(fl.root) == 0 and (fl.sampled == -1).all()
    successors = [f.successor for f in fl]
    for i in gen.integers(g.n, size=16).tolist():
        assert fl.roots(i).tolist() == [chain_root(row, i) for row in successors]


def test_pickled_list_holds_live_pages_and_roots_only():
    g = random_digraph(20000, 80000, np.random.default_rng(9))
    fl = sample_forest_list(g, 64, ForestRng(9))
    page_bytes = fl.pages[0].nbytes
    blob = pickle.dumps(fl)
    assert len(blob) <= np.count_nonzero(fl.ref) * page_bytes + fl.root.nbytes + 65536
    copy = pickle.loads(blob)
    assert np.array_equal(copy.root, fl.root) and copy.sampled.tolist() == list(range(64))
    assert all(np.array_equal(a.successor, b.successor) for a, b in zip(copy, fl))
    assert all(np.array_equal(copy.roots(i), fl.roots(i)) for i in (0, 777, 19999))
    # With no clean row left, ``root`` stays behind.
    fl.write(np.arange(len(fl)), 0, -1)
    blob = pickle.dumps(fl)
    assert len(blob) <= np.count_nonzero(fl.ref) * page_bytes + 65536
    copy = pickle.loads(blob)
    assert len(copy.root) == 0
    assert all(np.array_equal(a.successor, b.successor) for a, b in zip(copy, fl))
    assert all(np.array_equal(copy.roots(i), fl.roots(i)) for i in (0, 777, 19999))


def test_pickle_and_deepcopy_keep_the_list():
    g = three_cycle()
    fl = sample_forest_list(g, 30, ForestRng(8))
    insert_update(g, fl, (0, 2))
    delete_update(g, fl, (1, 2))
    rows = [(f.as_tuple(), f.multiplicity) for f in fl]
    for copy in (pickle.loads(pickle.dumps(fl)), deepcopy(fl)):
        assert [(f.as_tuple(), f.multiplicity) for f in copy] == rows
        assert np.array_equal(copy.sampled, fl.sampled)
        assert copy.version == fl.version == g.version
        assert all(np.array_equal(copy.roots(i), fl.roots(i)) for i in range(g.n))
        copy.write(np.arange(len(copy)), 0, -1)  # the copy owns its pages
        assert [(f.as_tuple(), f.multiplicity) for f in fl] == rows


def test_multi_page_rows_match_a_dense_model():
    # n = 2100 spreads a row over three 1024-node pages, so spawned rows
    # keep sharing the pages an insert does not write, and a delete can hit
    # a shared page: rows sharing a page agree on it, so every row naming
    # the page takes the same write, in place.  ``model`` holds the rows in
    # list order: an insert appends, a prune keeps the drawn rows.
    gen = np.random.default_rng(72)
    g = random_digraph(2100, 6300, gen)
    rng = ForestRng(72)
    fl = sample_forest_list(g, 6, rng)
    assert fl.pages.shape[1] == 1024 and fl.table.shape[1] == 3
    model = [f.successor.copy() for f in fl]
    cfg = PruneConfig(base_count=6, factor=4.0)
    in_place = 0
    for step in range(80):
        if step % 2:
            row = model[int(gen.integers(len(model)))]
            u = int(gen.choice(np.flatnonzero(row >= 0)))
            v = int(row[u])
            hit = np.array([k for k, m in enumerate(model) if m[u] == v])
            page, shared = fl.table[hit, u >> 10], fl.ref[fl.table[hit, u >> 10]] > 1
            delete_update(g, fl, (u, v))
            assert np.array_equal(fl.table[hit, u >> 10], page)
            in_place += int(shared.sum())
            for k in hit.tolist():
                model[k] = model[k].copy()
                model[k][u] = -1
        else:
            while True:
                u, v = (int(x) for x in gen.integers(g.n, size=2))
                if u != v and not g.has_edge(u, v):
                    break
            src = [m for m in model if m[u] == -1 and chain_root(m, v) != u]
            assert insert_update(g, fl, (u, v)) == len(src)
            for m in src:
                model.append(m.copy())
                model[-1][u] = v
        draw = prune_draw(fl, cfg, rng)
        if prune(fl, cfg, rng):
            model = [m for m, w in zip(model, draw) if w]
        assert all(np.array_equal(f.successor, m) for f, m in zip(fl, model, strict=True))
        named = np.bincount(fl.table.ravel(), minlength=len(fl.ref))
        assert np.array_equal(fl.ref, named)
    assert len(np.unique(fl.table)) < 3 * len(fl)
    assert in_place > 0


def test_store_matches_chain_walks_under_random_updates():
    # Random insert, delete and prune sequences on small digraphs.  After
    # every step every row is a forest of the current graph, and the roots
    # the store reports equal a plain chain walk of the row, whether the
    # row still holds the sampler's roots (at its own position, or moved up
    # by a prune), was spawned by an insert, or was edited by a delete; and
    # ``ref`` counts the rows naming each page.
    gen = np.random.default_rng(71)
    seen = {"clean": 0, "moved": 0, "spawned": 0, "edited": 0}
    compacted = 0
    for trial in range(30):
        g = random_small_digraph(gen, max_n=7, min_edges=1)
        rng = ForestRng(700 + trial)
        fl = sample_forest_list(g, 12, rng)
        cfg = PruneConfig(base_count=12, factor=2.0)
        for _ in range(25):
            step = gen.random()
            pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
            pool = len(fl.ref)
            if step < 0.3 or not pairs:
                prune(fl, cfg, rng)
            else:
                u, v = pairs[int(gen.integers(len(pairs)))]
                if g.has_edge(u, v):
                    edited = np.count_nonzero(fl.column(np.arange(len(fl)), u) == v)
                    delete_update(g, fl, (u, v))
                    seen["edited"] += edited
                else:
                    before = len(fl)
                    spawned = insert_update(g, fl, (u, v))
                    assert len(fl) == before + spawned
                    assert (fl.sampled[before:] == -1).all()
                    seen["spawned"] += spawned
            compacted += len(fl.ref) < pool
            clean = np.flatnonzero(fl.sampled >= 0)
            seen["clean"] += len(clean)
            seen["moved"] += int((fl.sampled[clean] != clean).sum())
            assert len(np.unique(fl.sampled[clean])) == len(clean)
            assert (fl.weight >= 1).all()
            # Each page is counted once per row naming it.
            assert np.array_equal(fl.ref, np.bincount(fl.table.ravel(), minlength=len(fl.ref)))
            rows = [f.successor for f in fl]
            assert all(f.invariant_errors(g) == [] for f in fl)
            for i in range(g.n):
                assert fl.roots(i).tolist() == [chain_root(row, i) for row in rows]
    assert min(seen.values()) > 20, seen
    assert compacted >= 1  # a prune moved the live pages to a smaller pool
