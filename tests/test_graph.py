import copy
import io
import pickle

import numpy as np
import pytest

from forestq import Digraph, load_edge_list, random_digraph
from helpers import adjacency, build_graph, reference_load_edge_list, reference_random_digraph


def test_empty_graph():
    g = Digraph(0)
    assert g.n == 0
    assert g.m == 0
    assert list(g.edges()) == []


def test_insert_and_degrees():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.m == 3
    assert g.out_degree(0) == 1
    assert g.in_degree(1) == 1
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 0)]


def test_insert_rejects_self_loop_and_duplicate():
    g = Digraph(2)
    g.insert_edge(0, 1)
    with pytest.raises(ValueError, match="self-loop"):
        g.insert_edge(1, 1)
    with pytest.raises(ValueError, match="exists"):
        g.insert_edge(0, 1)
    with pytest.raises(ValueError, match="out of range"):
        g.insert_edge(0, 2)
    assert g.m == 1


def test_delete_edge():
    g = build_graph(3, [(0, 1), (0, 2)])
    g.delete_edge(0, 1)
    assert not g.has_edge(0, 1)
    assert g.has_edge(0, 2)
    assert g.m == 1
    assert g.in_degree(1) == 0
    with pytest.raises(ValueError, match="not found"):
        g.delete_edge(0, 1)


def test_has_edge_rejects_node_ids_out_of_range():
    g = build_graph(3, [(2, 0)])
    # -1 would wrap round to node 2's segment, and 3 would run off the end.
    for u, v in ((-1, 0), (3, 0), (0, -1), (0, 3)):
        with pytest.raises(ValueError, match="out of range"):
            g.has_edge(u, v)
    assert g.has_edge(2, 0) and not g.has_edge(0, 2)


def _swap_remove(lst: list[int], value: int) -> None:
    i = lst.index(value)
    lst[i] = lst[-1]
    lst.pop()


def test_membership_matches_set_model():
    # Random insert/delete churn against a plain set of pairs, and adjacency
    # order against lists that append on insert and swap-remove on delete.
    gen = np.random.default_rng(1234)
    n = 12
    g = Digraph(n)
    model: set[tuple[int, int]] = set()
    outs: list[list[int]] = [[] for _ in range(n)]
    ins: list[list[int]] = [[] for _ in range(n)]
    for _ in range(3000):
        u = int(gen.integers(n))
        v = int(gen.integers(n))
        if u == v:
            continue
        if (u, v) in model:
            g.delete_edge(u, v)
            model.remove((u, v))
            _swap_remove(outs[u], v)
            _swap_remove(ins[v], u)
        else:
            g.insert_edge(u, v)
            model.add((u, v))
            outs[u].append(v)
            ins[v].append(u)
        assert g.m == len(model)
        assert g.out_neighbors(u).tolist() == outs[u]
        assert g.in_neighbors(v).tolist() == ins[v]
    assert set(g.edges()) == model
    assert adjacency(g) == (outs, ins)
    assert list(g.edges()) == [(u, v) for u in range(n) for v in outs[u]]
    for u in range(n):
        for v in range(n):
            assert g.has_edge(u, v) == ((u, v) in model)
        assert g.out_degree(u) == sum(1 for e in model if e[0] == u)
        assert g.in_degree(u) == sum(1 for e in model if e[1] == u)


def test_hub_segment_relocates_and_shrinks():
    # A hub in a bulk-built graph (no slack) and one in an empty graph both
    # outgrow their segments several times, interleaved with other nodes'
    # inserts, then shrink back; copies taken after relocation stay apart.
    n = 40
    chain = "".join(f"{k} {k + 1}\n" for k in range(n - 1))
    for g in (load_edge_list(io.StringIO(chain)).graph, Digraph(n)):
        assert g.n == n
        base = g.m
        for v in range(2, 31):
            if not g.has_edge(0, v):
                g.insert_edge(0, v)
            if not g.has_edge(v, 0):
                g.insert_edge(v, 0)
        assert all(g.has_edge(0, v) and g.has_edge(v, 0) for v in range(2, 31))
        assert not g.has_edge(0, 31)
        h = g.copy()
        assert adjacency(h) == adjacency(g) and list(h.edges()) == list(g.edges())
        for v in range(2, 28):
            g.delete_edge(0, v)
        assert g.out_degree(0) == 3 + (base > 0)
        assert g.has_edge(0, 28) and g.has_edge(0, 29) and g.has_edge(0, 30)
        assert not g.has_edge(0, 2)
        assert h.has_edge(0, 2) and h.out_degree(0) == g.out_degree(0) + 26
        h.insert_edge(0, 31)
        assert not g.has_edge(0, 31)
        assert sorted(g.in_neighbors(0).tolist()) == list(range(2, 31))


def test_copy_is_independent():
    g = build_graph(3, [(0, 1)])
    h = g.copy()
    h.insert_edge(1, 2)
    assert g.m == 1
    assert h.m == 2
    h.delete_edge(0, 1)
    assert g.has_edge(0, 1)


def test_pickle_and_deepcopy_keep_order_and_version():
    g = build_graph(6, [(0, v) for v in range(1, 6)] + [(3, 0), (4, 0)])
    g.delete_edge(0, 2)
    g.insert_edge(2, 0)
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert (h.n, h.m, h.version) == (g.n, g.m, g.version)
        assert adjacency(h) == adjacency(g) and list(h.edges()) == list(g.edges())
        h.insert_edge(0, 2)
        h.delete_edge(3, 0)
        assert not g.has_edge(0, 2) and g.has_edge(3, 0)
        assert h.out_neighbors(0).tolist() == [1, 5, 3, 4, 2]


def test_version_counts_successful_mutations():
    g = Digraph(3)
    assert g.version == 0
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    g.delete_edge(0, 1)
    assert g.version == 3
    for bad in (lambda: g.insert_edge(1, 2), lambda: g.insert_edge(1, 1),
                lambda: g.delete_edge(0, 1), lambda: g.insert_edge(0, 3)):
        with pytest.raises(ValueError):
            bad()
    assert g.version == 3
    h = g.copy()
    assert h.version == 3
    h.insert_edge(2, 0)
    assert (g.version, h.version) == (3, 4)


def test_neighbor_views_are_read_only_and_int_results():
    g = build_graph(3, [(0, 1), (0, 2), (2, 0)])
    for view in (g.out_neighbors(0), g.in_neighbors(0)):
        with pytest.raises(ValueError):
            view[0] = 1
    assert g.out_neighbors(0).tolist() == [1, 2]
    # Counts are Python ints, so products with huge weights cannot wrap.
    for x in (g.n, g.m, g.out_degree(0), g.in_degree(0), *next(iter(g.edges()))):
        assert type(x) is int


# ---- edge-list parsing ----

def test_load_basic_directed():
    text = "# comment\n0 1\n1 2\n2 0\n"
    res = load_edge_list(io.StringIO(text))
    g = res.graph
    assert (g.n, g.m) == (3, 3)
    assert res.node_ids == [0, 1, 2]
    assert res.duplicates_dropped == 0
    assert res.self_loops_dropped == 0


def test_load_remaps_sparse_ids_in_first_seen_order():
    res = load_edge_list(io.StringIO("10 30\n30 20\n"))
    assert res.node_ids == [10, 30, 20]
    assert res.graph.has_edge(0, 1)
    assert res.graph.has_edge(1, 2)


def test_load_skips_comments_blanks_and_extra_columns():
    text = "% konect-style header\n\n# note\n0 1 3.5 1700000000\n1 0\n"
    res = load_edge_list(io.StringIO(text))
    assert res.graph.m == 2


def test_load_counts_duplicates_and_self_loops():
    text = "0 1\n0 1\n2 2\n1 0\n0 1\n"
    res = load_edge_list(io.StringIO(text))
    assert res.graph.m == 2
    assert res.duplicates_dropped == 2
    assert res.self_loops_dropped == 1
    # self-loop endpoints still claim a node id
    assert res.graph.n == 3


def test_load_undirected_inserts_both_directions():
    res = load_edge_list(io.StringIO("0 1\n"), mode="undirected")
    assert res.graph.m == 2
    assert res.graph.has_edge(0, 1)
    assert res.graph.has_edge(1, 0)
    # the reverse line is now a pure duplicate
    res2 = load_edge_list(io.StringIO("0 1\n1 0\n"), mode="undirected")
    assert res2.graph.m == 2
    assert res2.duplicates_dropped == 2


def test_load_empty_input():
    res = load_edge_list(io.StringIO(""))
    assert res.graph.n == 0
    assert res.graph.m == 0


def test_load_malformed_lines():
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list(io.StringIO("0 1\n0\n"))
    with pytest.raises(ValueError, match="line 1.*non-integer"):
        load_edge_list(io.StringIO("a b\n"))
    with pytest.raises(ValueError, match="mode"):
        load_edge_list(io.StringIO(""), mode="both")
    cases = [
        ("0 1\n# c\n\n5\n", "line 4: expected 'u v'"),
        ("0 1\n2 x 3\n", "line 2: non-integer"),
        ("0 1\n1 2#3\n", "line 2: non-integer"),
        ("0 1\n1.5 2\n", "line 2: non-integer"),
        (f"0 1\n\n% c\n1 {2**63}\n", "line 4: endpoint outside int64"),
        (f"{-2**63 - 1} 0\n", "line 1: endpoint outside int64"),
    ]
    for text, msg in cases:
        for source in (io.StringIO(text), text.splitlines(keepends=True)):
            with pytest.raises(ValueError, match=msg):
                load_edge_list(source)
    extremes = load_edge_list([f"{-2**63} {2**63 - 1}\n"])
    assert extremes.node_ids == [-2**63, 2**63 - 1]


def _random_edge_text(gen: np.random.Generator) -> str:
    """Edge-list text with comments, blanks, extra columns, loops and repeats."""
    ids = gen.choice([-7, 0, 1, 3, 10, 42, 10**6, -10**12, 2**40, 99], size=int(gen.integers(1, 11)),
                     replace=False).tolist()
    lines = []
    for _ in range(int(gen.integers(0, 30))):
        kind = gen.random()
        if kind < 0.08:
            lines.append(str(gen.choice(["# note", "% header 1 2", "   # indented", "#"])))
        elif kind < 0.14:
            lines.append(str(gen.choice(["", "   ", "\t"])))
        else:
            a, b = (ids[int(k)] for k in gen.integers(len(ids), size=2))
            extra = " ".join(str(x) for x in gen.integers(-5, 5, size=int(gen.integers(0, 3))))
            sep = str(gen.choice([" ", "\t", "  "]))
            lines.append(f"{a}{sep}{b} {extra}".rstrip() if gen.random() < 0.9 else f" {a} {b} x")
    return "\n".join(lines) + ("\n" if gen.random() < 0.5 else "")


def test_load_matches_reference_loop(tmp_path):
    gen = np.random.default_rng(2024)
    path = tmp_path / "g.txt"
    for trial in range(300):
        text = _random_edge_text(gen)
        mode = ("directed", "undirected")[trial % 2]
        path.write_text(text)
        ref = reference_load_edge_list(io.StringIO(text), mode)
        for source in (path, str(path), io.StringIO(text), text.splitlines(keepends=True)):
            res = load_edge_list(source, mode)
            assert res.node_ids == ref.node_ids, text
            assert (res.graph.n, res.graph.m) == (ref.graph.n, ref.graph.m)
            assert res.duplicates_dropped == ref.duplicates_dropped
            assert res.self_loops_dropped == ref.self_loops_dropped
            assert adjacency(res.graph) == adjacency(ref.graph)
            assert list(res.graph.edges()) == list(ref.graph.edges())


def test_load_from_path(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    assert load_edge_list(p).graph.m == 2


# ---- random graph helper ----

def test_random_digraph_shape():
    gen = np.random.default_rng(5)
    g = random_digraph(6, 10, gen)
    assert (g.n, g.m) == (6, 10)
    assert all(u != v for u, v in g.edges())
    assert len(set(g.edges())) == 10


def test_random_digraph_dense_and_limits():
    gen = np.random.default_rng(6)
    g = random_digraph(4, 12, gen)  # complete
    assert g.m == 12
    with pytest.raises(ValueError):
        random_digraph(3, 7, gen)
    assert random_digraph(3, 0, gen).m == 0


def test_random_digraph_matches_per_edge_reference():
    # Same rng calls, same graph: edges, adjacency order and the rng state after.
    for seed, (n, m) in enumerate([(0, 0), (1, 0), (2, 1), (2, 2), (5, 11), (6, 10), (7, 40),
                                   (30, 200), (2000, 6000)]):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        g, ref = random_digraph(n, m, a), reference_random_digraph(n, m, b)
        assert list(g.edges()) == list(ref.edges())
        assert adjacency(g) == adjacency(ref)
        assert a.integers(2**62) == b.integers(2**62)
