import hashlib

import numpy as np
import pytest
from scipy import stats

from forestq import (
    Digraph,
    ForestList,
    ForestRng,
    enumerate_forests,
    random_digraph,
    sample_forest,
    sample_forest_list,
)
from forestq import sampling
from helpers import (
    build_graph,
    chain_root,
    random_small_digraph,
    three_cycle,
    two_node,
)


def test_sampled_forests_are_valid():
    gen = np.random.default_rng(21)
    rng = ForestRng(21)
    for _ in range(25):
        g = random_small_digraph(gen, max_n=8)
        forests = [sample_forest(g, rng) for _ in range(20)]
        assert ForestList(forests).invariant_errors(g) == []
        assert all(f.multiplicity == 1 for f in forests)


def test_same_seed_same_forests():
    g = three_cycle()
    a = [f.as_tuple() for f in sample_forest_list(g, 200, ForestRng(99))]
    b = [f.as_tuple() for f in sample_forest_list(g, 200, ForestRng(99))]
    assert a == b


def test_different_seeds_differ():
    g = three_cycle()
    a = [f.as_tuple() for f in sample_forest_list(g, 200, ForestRng(1))]
    b = [f.as_tuple() for f in sample_forest_list(g, 200, ForestRng(2))]
    assert a != b


def test_single_forest_stream_reproducible():
    g = two_node()
    rng1, rng2 = ForestRng(3), ForestRng(3)
    seq1 = [sample_forest(g, rng1).as_tuple() for _ in range(50)]
    seq2 = [sample_forest(g, rng2).as_tuple() for _ in range(50)]
    assert seq1 == seq2
    assert len(set(seq1)) == 2  # both forests of the two-node graph appear


def test_uniform_over_three_cycle_forests():
    g = three_cycle()
    fs = enumerate_forests(g)
    counts = dict.fromkeys(fs.forests, 0)
    for f in sample_forest_list(g, 35000, ForestRng(17)):
        counts[f.as_tuple()] += 1
    assert stats.chisquare(list(counts.values())).pvalue >= 0.001


def test_root_marginal_two_node():
    g = two_node()
    hits = int((sample_forest_list(g, 20000, ForestRng(4)).roots(0) == 0).sum())
    assert hits / 20000 == pytest.approx(0.5, abs=0.02)


def test_edgeless_graph_always_all_roots():
    g = Digraph(5)
    for f in sample_forest_list(g, 10, ForestRng(0)):
        assert f.as_tuple() == (-1,) * 5


def test_tiny_graphs():
    assert sample_forest(Digraph(0), ForestRng(0)).as_tuple() == ()
    assert sample_forest(Digraph(1), ForestRng(0)).as_tuple() == (-1,)


def test_count_zero_and_validation():
    g = two_node()
    assert len(sample_forest_list(g, 0, ForestRng(0))) == 0
    with pytest.raises(ValueError, match="count"):
        sample_forest_list(g, -1, ForestRng(0))


def test_sampling_does_not_mutate_graph():
    g = three_cycle()
    before = sorted(g.edges())
    sample_forest_list(g, 100, ForestRng(8))
    assert sorted(g.edges()) == before
    assert g.m == 3


def test_large_graph_forest_root_cache_matches_rebuild():
    gen = np.random.default_rng(30)
    n = 500
    g = Digraph(n)
    while g.m < 2 * n:
        u, v = int(gen.integers(n)), int(gen.integers(n))
        if u != v and not g.has_edge(u, v):
            g.insert_edge(u, v)
    fl = sample_forest_list(g, 3, ForestRng(30))
    assert fl.sampled.tolist() == [0, 1, 2]  # the sampler hands over the roots it found
    for k, f in enumerate(fl):
        walked = [chain_root(f.successor, i) for i in range(n)]
        assert fl.root[k].tolist() == walked


def test_same_seed_same_forests_across_chunks():
    g = random_digraph(2000, 6000, np.random.default_rng(12))
    count = 3 * (sampling._CHUNK // g.n) + 5  # four chunks, the last one partial
    a = sample_forest_list(g, count, ForestRng(13))
    b = sample_forest_list(g, count, ForestRng(13))
    assert len(a) == count
    assert [f.as_tuple() for f in a] == [f.as_tuple() for f in b]
    assert np.array_equal(a.root, b.root)
    assert len({f.as_tuple() for f in a}) == count  # chunks do not repeat draws


def test_out_degree_zero_nodes_are_always_roots():
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 1), (4, 3), (0, 5)])
    sinks = [u for u in range(g.n) if g.out_degree(u) == 0]
    assert sinks == [5]
    fl = sample_forest_list(g, 2000, ForestRng(14))
    assert (fl.column(np.arange(len(fl)), 5) == -1).all()
    assert (fl.roots(5) == 5).all()


def test_uniform_over_reciprocal_graph_forests():
    # Every pair of K4 is reciprocal: only 125 of the 4^4 first draws are
    # forests, so about half the rows pop cycles, some over several rounds
    # (test_round_cap_raises shows one round is not enough).
    g = build_graph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    fs = enumerate_forests(g)
    assert fs.size == 125
    counts = dict.fromkeys(fs.forests, 0)
    for f in sample_forest_list(g, 60000, ForestRng(15)):
        counts[f.as_tuple()] += 1
    assert stats.chisquare(list(counts.values())).pvalue >= 0.001


def test_round_cap_raises(monkeypatch):
    g = build_graph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    monkeypatch.setattr(sampling, "_MAX_ROUNDS", 1)
    with pytest.raises(RuntimeError, match="cycle popping"):
        sample_forest_list(g, 1000, ForestRng(16))


def test_root_caches_match_rebuild_on_random_digraphs():
    gen = np.random.default_rng(17)
    rng = ForestRng(17)
    for _ in range(40):
        g = random_small_digraph(gen, max_n=10)
        fl = sample_forest_list(g, 30, rng)
        assert fl.sampled.tolist() == list(range(30))
        for k, f in enumerate(fl):
            assert fl.root[k].tolist() == [chain_root(f.successor, i) for i in range(g.n)]


def test_fixed_seed_draws_are_pinned():
    # Digests of every successor and root byte at fixed graphs and seeds,
    # so a change to the sampler's loop cannot change a draw unnoticed.
    # The one-way list spans two chunks; the reciprocal graph pops cycles
    # over several rounds.
    def digest(fl):
        h = hashlib.sha256(np.stack([f.successor for f in fl]).astype(np.int32).tobytes())
        h.update(fl.root.astype(np.int32).tobytes())
        return h.hexdigest()

    oneway = random_digraph(2000, 8000, np.random.default_rng(22))
    assert 40 > sampling._CHUNK // oneway.n
    gen = np.random.default_rng(24)
    n = 800
    pairs = {(min(u, v), max(u, v)) for u, v in gen.integers(n, size=(3 * n, 2)).tolist() if u != v}
    reciprocal = build_graph(n, sorted(e for u, v in pairs for e in ((u, v), (v, u))))
    assert digest(sample_forest_list(oneway, 40, ForestRng(23))) == (
        "e41448942a47445e16a818ba6ccd64170be91b6ddf4b23de4060bdd181a66da0")
    assert digest(sample_forest_list(reciprocal, 40, ForestRng(25))) == (
        "2963fd77112014ee566bbb30e188464462394c8b0b1c4d9136229388166b5452")


def test_round_pops_only_cycle_nodes():
    # The path 0 -> 1 -> ... -> 63 ends in the 2-cycle 62 <-> 63 and reaches
    # no root, so no node settles in the first round; only the cycle may
    # be drawn again.
    n = 64
    first = np.append(np.arange(1, n), n - 2)
    asked = []

    def draw(v):
        asked.append(v.tolist())
        return first[v] if len(asked) == 1 else np.full(v.size, -1)

    succ, root = np.empty((1, n), np.int32), np.empty((1, n), np.int32)
    sampling._pop_cycles(draw, succ, root)
    assert asked[1:] == [[n - 2, n - 1]]
    assert succ[0].tolist() == list(range(1, n - 1)) + [-1, -1]
    assert root[0].tolist() == [n - 2] * (n - 1) + [n - 1]
