import numpy as np
import pytest
from numpy.testing import assert_allclose

from forestq import (
    Digraph,
    cross_check,
    enumerate_forests,
    exact_entries,
    exact_forest_matrix,
)
from forestq.oracle import laplacian
from helpers import build_graph, random_small_digraph, three_cycle, two_node


def test_three_cycle_has_seven_forests():
    fs = enumerate_forests(three_cycle())
    assert fs.size == 7
    # successor tuples are unique and exclude the full cycle
    assert len(set(fs.forests)) == 7
    assert (1, 2, 0) not in fs.forests


def test_three_cycle_pair_counts():
    fs = enumerate_forests(three_cycle())
    assert fs.pair_counts[0].tolist() == [4, 2, 1]
    assert fs.pair_counts.sum() == 7 * 3
    # rotational symmetry of the cycle
    assert fs.pair_counts[1].tolist() == [1, 4, 2]
    assert fs.pair_counts[2].tolist() == [2, 1, 4]


def test_forest_count_after_adding_chord():
    g = three_cycle()
    g.insert_edge(0, 2)
    assert enumerate_forests(g).size == 9


def test_forest_count_after_removing_edge():
    g = three_cycle()
    g.delete_edge(2, 0)
    assert enumerate_forests(g).size == 4


def test_two_node_forest_matrix():
    omega = exact_forest_matrix(two_node())
    assert_allclose(omega, [[0.5, 0.5], [0.0, 1.0]], atol=1e-14)


def test_three_cycle_forest_matrix():
    omega = exact_forest_matrix(three_cycle())
    assert_allclose(omega[0], [4 / 7, 2 / 7, 1 / 7], atol=1e-14)


def test_single_node_and_empty():
    assert exact_forest_matrix(build_graph(1, [])).tolist() == [[1.0]]
    assert exact_forest_matrix(Digraph(0)).shape == (0, 0)
    fs = enumerate_forests(Digraph(0))
    assert fs.size == 1
    assert fs.forests == [()]
    report = cross_check(Digraph(0))
    assert report.ok and report.forest_count == 1


def test_isolated_nodes_identity():
    omega = exact_forest_matrix(Digraph(4))
    assert_allclose(omega, np.eye(4), atol=1e-14)
    assert enumerate_forests(Digraph(4)).size == 1


def test_laplacian_rows_sum_to_zero():
    gen = np.random.default_rng(2)
    for _ in range(10):
        g = random_small_digraph(gen)
        lap = laplacian(g)
        assert_allclose(lap.sum(axis=1), 0.0, atol=1e-14)


def test_rows_are_stochastic():
    gen = np.random.default_rng(3)
    for _ in range(20):
        omega = exact_forest_matrix(random_small_digraph(gen))
        assert_allclose(omega.sum(axis=1), 1.0, atol=1e-10)


def test_cross_check_random_sweep():
    gen = np.random.default_rng(4)
    for _ in range(60):
        report = cross_check(random_small_digraph(gen))
        assert report.ok, report.summary()
        assert report.max_abs_diff <= 1e-10


def test_cross_check_report_summary():
    report = cross_check(three_cycle())
    assert report.ok
    assert report.forest_count == 7
    assert "ok" in report.summary()


def test_enumeration_guard():
    g = Digraph(12)
    for u in range(12):
        for v in range(12):
            if u != v:
                g.insert_edge(u, v)
    with pytest.raises(ValueError, match="enumeration limit"):
        enumerate_forests(g)


def test_dense_guard():
    with pytest.raises(ValueError, match="dense oracle limit"):
        exact_forest_matrix(Digraph(2001))


def test_exact_entries_matches_dense():
    gen = np.random.default_rng(7)
    g = random_small_digraph(gen, max_n=5)
    omega = exact_forest_matrix(g)
    pairs = [(i, j) for i in range(g.n) for j in range(g.n)]
    values = exact_entries(g, pairs)
    assert_allclose(values, [omega[i, j] for i, j in pairs], atol=1e-10)


def test_exact_entries_beyond_dense_limit():
    # chain graph large enough that the dense oracle refuses
    n = 2500
    g = Digraph(n)
    for u in range(n - 1):
        g.insert_edge(u, u + 1)
    vals = exact_entries(g, [(0, 0), (n - 1, n - 1), (0, 1)])
    # interior chain nodes have out-degree 1: omega_ii = 1/2 at the start,
    # the sink keeps omega = 1, and (0, 1) rolls off geometrically
    assert vals[0] == pytest.approx(0.5, abs=1e-9)
    assert vals[1] == pytest.approx(1.0, abs=1e-9)
    assert vals[2] == pytest.approx(0.25, abs=1e-9)
