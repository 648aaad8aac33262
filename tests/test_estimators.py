import math

import numpy as np
import pytest

from forestq import (
    EstimatorParams,
    Forest,
    ForestList,
    ForestRng,
    exact_forest_matrix,
    forest_distance,
    required_samples,
    sample_forest_list,
    sfq_query,
    sfqplus_query,
)
from helpers import (
    build_graph,
    per_forest_values,
    random_small_digraph,
    three_cycle,
    two_node,
    uniform_list,
    weighted_mean_var,
)


def test_sfq_on_two_forest_list():
    fl = uniform_list(two_node())
    assert sfq_query(fl, 0, 1).value == 0.5
    assert sfq_query(fl, 0, 0).value == 0.5
    assert sfq_query(fl, 1, 1).value == 1.0
    assert sfq_query(fl, 1, 0).value == 0.0


def test_estimators_exact_on_uniform_lists():
    # On the full enumeration list both estimators reproduce the forest
    # matrix exactly, off-diagonal and diagonal alike.
    gen = np.random.default_rng(31)
    for _ in range(25):
        g = random_small_digraph(gen)
        omega = exact_forest_matrix(g)
        fl = uniform_list(g)
        for i in range(g.n):
            for j in range(g.n):
                assert sfq_query(fl, i, j).value == pytest.approx(omega[i, j], abs=1e-12)
                assert sfqplus_query(g, fl, i, j).value == pytest.approx(
                    omega[i, j], abs=1e-12
                )
                if i != j:
                    mean, _ = weighted_mean_var(
                        *per_forest_values(g, fl, i, j, "neighbor-average")
                    )
                    assert mean == pytest.approx(omega[i, j], abs=1e-12)


def test_estimate_metadata():
    g = two_node()
    fl = uniform_list(g)
    est = sfq_query(fl, 0, 1)
    assert est.sample_weight == 2
    assert est.estimator == "sfq"
    assert sfqplus_query(g, fl, 0, 1).estimator == "sfqplus"


def test_multiplicities_equal_expanded_list():
    g = three_cycle()
    base = list(uniform_list(g))
    fl = ForestList(Forest(f.successor, 5 if k == 0 else 1) for k, f in enumerate(base))
    expanded = ForestList(base + [Forest(base[0].successor)] * 4)
    assert fl.total_weight == expanded.total_weight == 11
    for i in range(3):
        for j in range(3):
            assert sfq_query(fl, i, j).value == pytest.approx(
                sfq_query(expanded, i, j).value, abs=1e-12
            )
            assert sfqplus_query(g, fl, i, j).value == pytest.approx(
                sfqplus_query(g, expanded, i, j).value, abs=1e-12
            )


def test_degrees_read_from_current_graph():
    g = two_node()
    fl = uniform_list(g)
    g.insert_edge(1, 0)  # list not updated on purpose
    assert sfqplus_query(g, fl, 0, 1).value == pytest.approx(1 / 3)


def test_value_range_invariant():
    gen = np.random.default_rng(32)
    for _ in range(20):
        g = random_small_digraph(gen, min_edges=1)
        fl = sample_forest_list(g, 50, ForestRng(int(gen.integers(2**32))))
        for i in range(g.n):
            for j in range(g.n):
                for est in (sfq_query(fl, i, j), sfqplus_query(g, fl, i, j)):
                    assert 0.0 <= est.value <= 1.0


def test_query_validation():
    g = two_node()
    fl = uniform_list(g)
    with pytest.raises(ValueError, match="empty"):
        sfq_query(ForestList(), 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        sfq_query(fl, 0, 2)
    with pytest.raises(ValueError, match="out of range"):
        sfqplus_query(g, fl, -1, 0)


# ---- sample-size schedule ----

def test_required_samples_reference_value():
    assert required_samples(EstimatorParams(0.03, 0.01), diagonal=True) == 1590


def test_required_samples_monotone():
    p = EstimatorParams(0.1, 0.05)
    tighter_eps = EstimatorParams(0.05, 0.05)
    tighter_delta = EstimatorParams(0.1, 0.01)
    for diag in (False, True):
        base = required_samples(p, 2, diagonal=diag)
        assert required_samples(tighter_eps, 2, diagonal=diag) > base
        assert required_samples(tighter_delta, 2, diagonal=diag) > base
    # off-diagonal guarantee is absolute, so bigger target degree needs fewer
    assert required_samples(p, 10) < required_samples(p, 0)
    # diagonal guarantee is relative and degree-free
    assert required_samples(p, 10, diagonal=True) == required_samples(p, 0, diagonal=True)


def test_required_samples_floor_and_formula():
    assert required_samples(EstimatorParams(0.9, 0.999), diagonal=True) == 1
    p = EstimatorParams(0.1, 0.05)
    expected = math.ceil((1 / (2 + 3) ** 2) * (1 / (2 * 0.01) + 2 / 0.3) * math.log(2 / 0.05))
    assert required_samples(p, 3) == expected


def test_estimator_params_validation():
    with pytest.raises(ValueError, match="epsilon"):
        EstimatorParams(0.0, 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        EstimatorParams(1.0, 0.5)
    with pytest.raises(ValueError, match="delta"):
        EstimatorParams(0.5, 0.0)


# ---- per-forest moments ----

def test_variance_closed_forms_three_cycle():
    g = three_cycle()
    omega = exact_forest_matrix(g)
    fl = sample_forest_list(g, 60000, ForestRng(33))

    def emp(i, j, kind):
        return weighted_mean_var(*per_forest_values(g, fl, i, j, kind))

    for i, j in [(0, 1), (0, 2), (1, 0)]:
        w = omega[i, j]
        d = g.out_degree(j)
        mean, var = emp(i, j, "sfq")
        assert mean == pytest.approx(w, abs=0.01)
        assert var == pytest.approx(w - w * w, rel=0.07)
        mean, var = emp(i, j, "neighbor-average")
        assert mean == pytest.approx(w, abs=0.01)
        assert var == pytest.approx(w / (1 + d) - w * w, rel=0.07)
        mean, var = emp(i, j, "sfqplus")
        assert mean == pytest.approx(w, abs=0.01)
        assert var == pytest.approx(w / (2 + d) - w * w, rel=0.07)

    for i in range(3):
        w = omega[i, i]
        d = g.out_degree(i)
        mean, var = emp(i, i, "sfqplus")
        assert mean == pytest.approx(w, abs=0.01)
        exact = 3 * w / (1 + d) - 2 / (1 + d) ** 2 - w * w
        assert var == pytest.approx(exact, rel=0.07)


def test_variance_ordering():
    g = three_cycle()
    fl = sample_forest_list(g, 60000, ForestRng(34))
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        _, v_sfq = weighted_mean_var(*per_forest_values(g, fl, i, j, "sfq"))
        _, v_mid = weighted_mean_var(*per_forest_values(g, fl, i, j, "neighbor-average"))
        _, v_plus = weighted_mean_var(*per_forest_values(g, fl, i, j, "sfqplus"))
        assert v_plus <= v_mid <= v_sfq
    for i in range(3):
        _, v_sfq = weighted_mean_var(*per_forest_values(g, fl, i, i, "sfq"))
        _, v_plus = weighted_mean_var(*per_forest_values(g, fl, i, i, "sfqplus"))
        assert v_plus <= v_sfq


def test_per_forest_values_validation():
    g = two_node()
    fl = uniform_list(g)
    with pytest.raises(ValueError, match="unknown estimator"):
        per_forest_values(g, fl, 0, 1, "bogus")


# ---- forest distance ----

def test_distance_same_node_is_zero():
    g = three_cycle()
    fl = uniform_list(g)
    assert forest_distance(g, fl, 1, 1) == 0.0


def test_distance_two_node_graph():
    g = two_node()
    fl = uniform_list(g)
    # 0.5 + 1.0 - 0.5 - 0.0
    assert forest_distance(g, fl, 0, 1) == pytest.approx(1.0, abs=1e-12)
    assert forest_distance(g, fl, 0, 1, method="sfq") == pytest.approx(1.0, abs=1e-12)


def test_distance_isolated_nodes():
    g = build_graph(2, [])
    fl = uniform_list(g)
    assert forest_distance(g, fl, 0, 1) == pytest.approx(2.0, abs=1e-12)


def test_distance_symmetry_on_uniform_list():
    gen = np.random.default_rng(35)
    g = random_small_digraph(gen, max_n=4, min_edges=1)
    fl = uniform_list(g)
    for i in range(g.n):
        for j in range(g.n):
            assert forest_distance(g, fl, i, j) == pytest.approx(
                forest_distance(g, fl, j, i), abs=1e-12
            )


def test_distance_bad_method():
    g = two_node()
    fl = uniform_list(g)
    with pytest.raises(ValueError, match="method"):
        forest_distance(g, fl, 0, 1, method="exact")
