from __future__ import annotations

import math

import numpy as np
import pytest

from diffusim import (
    Graph,
    average_degree_histograms,
    characteristic_path_length,
    clustering_coefficient,
    degree_histogram,
    fit_power_law,
    gen_complete,
    gen_scale_free,
    matrix_average_convergence,
)


def ring_graph(n):
    return Graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


# --- matrix_average_convergence ------------------------------------------------

def test_convergence_complete_is_exactly_one():
    out = matrix_average_convergence("complete", [5, 20, 80], seed=0)
    assert out == [(5, 1.0), (20, 1.0), (80, 1.0)]


def test_convergence_random_half():
    out = dict(matrix_average_convergence("random", [100, 1000], seed=3))
    assert abs(out[100] - 0.5) < 0.05
    assert abs(out[1000] - 0.5) < 0.02


def test_convergence_stochastic_half():
    out = dict(matrix_average_convergence("stochastic", [1000], seed=3))
    assert abs(out[1000] - 0.5) < 0.02


def test_convergence_rejects_empty_sizes():
    with pytest.raises(ValueError):
        matrix_average_convergence("random", [], seed=0)


def test_convergence_error_shrinks_with_n():
    sizes = [50, 150, 450]
    errs = {n: [] for n in sizes}
    for seed in range(30):
        for n, mean in matrix_average_convergence("random", sizes, seed=seed):
            errs[n].append(abs(mean - 0.5))
    avg = [np.mean(errs[n]) for n in sizes]
    assert avg[0] > avg[1] > avg[2]


def test_convergence_is_deterministic():
    a = matrix_average_convergence("stochastic", [60, 90], seed=8)
    b = matrix_average_convergence("stochastic", [60, 90], seed=8)
    assert a == b


# --- fit_power_law ---------------------------------------------------------------

def test_fit_two_point_histogram():
    fit = fit_power_law({1: 100, 2: 25})
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.points_used == 2


def test_fit_exact_power_law_recovered():
    c, s = 3600.0, -2.0
    hist = {k: c * k ** s for k in range(1, 7)}
    fit = fit_power_law(hist)
    assert abs(fit.slope - s) < 1e-9
    assert abs(math.exp(fit.intercept) - c) < 1e-6


def test_fit_rejects_single_degree():
    with pytest.raises(ValueError, match="2 positive-count"):
        fit_power_law(degree_histogram(gen_complete(6)))


def test_fit_skips_zero_counts_and_degree_zero():
    fit = fit_power_law({0: 50, 1: 100, 2: 25, 3: 0})
    assert fit.points_used == 2
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)


def test_fit_reads_non_integral_degrees_at_their_own_value():
    fit = fit_power_law({1.5: 2, 2: 1, 3: 1})
    assert fit.points_used == 3
    slope, intercept = np.polyfit(np.log([1.5, 2.0, 3.0]),
                                  np.log([2.0, 1.0, 1.0]), 1)
    assert (fit.slope, fit.intercept) == (slope, intercept)


def test_fit_scale_free_ensemble_slope_band():
    hists = [degree_histogram(gen_scale_free(1000, seed=s))
             for s in range(60)]
    fit = fit_power_law(average_degree_histograms(hists))
    assert -3.5 < fit.slope < -1.5


# --- clustering_coefficient -------------------------------------------------------

def test_clustering_complete():
    assert clustering_coefficient(gen_complete(3)) == 1.0
    assert clustering_coefficient(gen_complete(10)) == 1.0


def test_clustering_tree_is_zero():
    assert clustering_coefficient(gen_scale_free(100, seed=1)) == 0.0


def test_clustering_triangle_plus_pendant():
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
    # vertices 0,1 close their single neighbor pair; 2 closes 1 of 3; 3 has
    # degree 1 and contributes 0
    assert clustering_coefficient(g) == pytest.approx((1 + 1 + 1 / 3 + 0) / 4)


def test_clustering_single_vertex():
    assert clustering_coefficient(Graph(1)) == 0.0


def test_clustering_needs_a_vertex():
    with pytest.raises(ValueError, match="at least one vertex"):
        clustering_coefficient(Graph(0))


def test_clustering_invariant_under_relabeling():
    rng = np.random.default_rng(0)
    for seed in range(5):
        g = Graph(12, [(i, j, 1.0) for i in range(12) for j in range(i + 1, 12)
                       if np.random.default_rng(seed * 100 + i * 12 + j).random() < 0.35])
        perm = rng.permutation(12)
        relabeled = Graph(12, [(int(perm[u]), int(perm[v]), w)
                               for u, v, w in g.edges()])
        assert clustering_coefficient(relabeled) == \
            pytest.approx(clustering_coefficient(g), abs=1e-12)


# --- characteristic_path_length ---------------------------------------------------

def test_path_length_complete():
    res = characteristic_path_length(gen_complete(8))
    assert res.value == 1.0
    assert res.connected


def test_path_length_three_path():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert characteristic_path_length(g).value == pytest.approx(4 / 3)


def test_path_length_ring_100():
    assert characteristic_path_length(ring_graph(100)).value == \
        pytest.approx(2500 / 99)


def test_path_length_disconnected_reports_largest_component():
    g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0)])
    res = characteristic_path_length(g)
    assert not res.connected
    assert res.component_size == 3
    assert res.value == pytest.approx(4 / 3)


def test_path_length_bounds():
    for seed in range(10):
        g = gen_scale_free(40, seed=seed)
        res = characteristic_path_length(g)
        assert 1.0 <= res.value <= 39


def test_scale_free_shorter_than_ring():
    ring_value = characteristic_path_length(ring_graph(100)).value
    values = [characteristic_path_length(gen_scale_free(100, seed=s)).value
              for s in range(30)]
    assert np.mean(values) < ring_value


def test_path_length_needs_two_vertices():
    with pytest.raises(ValueError):
        characteristic_path_length(Graph(1))


# --- average_degree_histograms -----------------------------------------------------

def test_average_degree_histograms():
    avg = average_degree_histograms([{1: 2, 2: 1}, {1: 4}])
    assert avg == {1: 3.0, 2: 0.5}
    with pytest.raises(ValueError):
        average_degree_histograms([])


def reference_average(hists):
    """The parent's accumulation: each key's counts added in turn to 0.0."""
    acc = {}
    for h in hists:
        for k, c in h.items():
            acc[k] = acc.get(k, 0.0) + c
    return {k: acc[k] / len(hists) for k in sorted(acc)}


@pytest.mark.parametrize("hists", [
    [{1: 2, 2: 1}, {1: 4}],
    [{1: 0.1, 2: 0.7}, {1: 0.2, 3: 1e16}, {1: 3, 3: 1.0, 4: 0.3}],
    [{2: 5}, {1: 3, 7: 0.1}, {9: 1e-300}],          # disjoint keys
    [{3: 0.1, 1: 0.2}, {}, {1: 0.7, 3: 0.3, 2: 1}],
    [{k: 1 / (k + 1) for k in range(50)} for _ in range(7)],
])
def test_average_degree_histograms_matches_accumulation_loop(hists):
    got = average_degree_histograms(hists)
    want = reference_average(hists)
    assert list(got) == list(want)
    assert [(type(v), v.hex()) for v in got.values()] == \
        [(type(v), v.hex()) for v in want.values()]
