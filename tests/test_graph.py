from __future__ import annotations

import numpy as np
import pytest

from diffusim import (
    Graph,
    bfs_distances,
    connected_components,
    degree_histogram,
    gen_complete,
    gen_random,
    is_connected,
    mean_offdiagonal_weight,
)


def random_weighted_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, float(rng.random())))
    return Graph(n, edges)


def test_degree_complete_graph():
    g = gen_complete(5)
    assert all(g.degree(v) == 4 for v in range(5))


def test_degree_empty_graph():
    g = Graph(4)
    assert all(g.degree(v) == 0 for v in range(4))


def test_degree_invalid_vertex():
    g = gen_complete(3)
    with pytest.raises(ValueError):
        g.degree(3)
    with pytest.raises(ValueError):
        g.degree(-1)


def test_neighbors_sorted_and_weights_aligned():
    g = Graph(5, [(3, 0, 0.2), (0, 4, 0.9), (1, 0, 0.5)])
    assert g.neighbors(0).tolist() == [1, 3, 4]
    assert g.neighbor_weights(0).tolist() == [0.5, 0.2, 0.9]


def test_weight_lookup():
    g = Graph(4, [(0, 1, 0.25), (2, 3, 1.0)])
    assert g.weight(0, 1) == 0.25
    assert g.weight(1, 0) == 0.25
    assert g.weight(0, 2) == 0.0
    assert g.has_edge(2, 3)
    assert not g.has_edge(0, 3)


def test_pair_weights_vectorized():
    g = Graph(4, [(0, 1, 0.25), (2, 3, 1.0)])
    us = np.array([0, 1, 0, 3])
    vs = np.array([1, 0, 3, 2])
    assert g.pair_weights(us, vs).tolist() == [0.25, 0.25, 0.0, 1.0]


@pytest.mark.parametrize("edges,msg", [
    ([(0, 0, 1.0)], "self-loop"),
    ([(0, 1, 1.5)], "weights"),
    ([(0, 1, -0.1)], "weights"),
    ([(0, 3, 1.0)], "outside"),
    ([(0, 1, 1.0), (1, 0, 0.5)], "duplicate"),
    ([(0, 1, 1.0), (0, 1, 0.5)], "duplicate"),
    ([(0, 1, 1.0), (1, 2, 1.0), (1, 2, 0.5)], "duplicate"),
])
def test_construction_rejects_invalid_edges(edges, msg):
    with pytest.raises(ValueError, match=msg):
        Graph(3, edges)


def test_construction_sorts_only_out_of_order_input():
    canonical = Graph(4, [(0, 1, 0.1), (0, 3, 0.2), (1, 2, 0.3)])
    shuffled = Graph(4, [(2, 1, 0.3), (0, 1, 0.1), (3, 0, 0.2)])
    assert canonical == shuffled
    u, v, w = shuffled.edge_arrays()
    assert (u.tolist(), v.tolist(), w.tolist()) == \
        ([0, 0, 1], [1, 3, 2], [0.1, 0.2, 0.3])


def test_construction_orders_pairs_beyond_int64_keys():
    # with n = 2**40, lo * n + hi wraps for lo = 2**24: the first pair's
    # key would be 2**24 + 1, below the second's
    n = 2 ** 40
    g = Graph(n, [(2 ** 24, 2 ** 24 + 1, 1.0), (1, 2, 1.0)])
    assert g.edge_arrays()[0].tolist() == [1, 2 ** 24]
    with pytest.raises(ValueError, match="duplicate"):
        Graph(n, [(2 ** 24, 2 ** 24 + 1, 1.0), (2 ** 24 + 1, 2 ** 24, 1.0),
                  (1, 2 ** 24, 1.0)])
    # distinct pairs whose wrapped keys coincide are not duplicates
    assert Graph(n, [(0, 2 ** 24 + 1, 1.0),
                     (2 ** 24, 2 ** 24 + 1, 1.0)]).edge_count == 2


def test_construction_rejects_nan_weight():
    with pytest.raises(ValueError, match="weights"):
        Graph(3, [(0, 1, float("nan"))])


def test_symmetry_and_bounds_hold_for_generated_graphs():
    for seed in range(5):
        g = random_weighted_graph(12, 0.4, seed)
        u, v, w = g.edge_arrays()
        assert (u < v).all()
        assert (w >= 0).all() and (w <= 1).all()
        for a, b, weight in g.edges():
            assert g.weight(a, b) == g.weight(b, a) == weight


def test_degree_histogram_complete():
    assert degree_histogram(gen_complete(4)) == {3: 4}


def test_degree_histogram_path():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert degree_histogram(g) == {1: 2, 2: 1}


def test_degree_histogram_counts_isolated_vertices():
    g = Graph(4, [(0, 1, 1.0)])
    assert degree_histogram(g) == {0: 2, 1: 2}


def test_degree_histogram_invariants_random_graphs():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        g = random_weighted_graph(n, float(rng.random()), seed + 100)
        h = degree_histogram(g)
        assert sum(h.values()) == n
        assert sum(k * c for k, c in h.items()) == 2 * g.edge_count


def test_mean_offdiagonal_weight_complete_is_one():
    assert mean_offdiagonal_weight(gen_complete(7)) == 1.0


def test_mean_offdiagonal_weight_empty_is_zero():
    assert mean_offdiagonal_weight(Graph(5)) == 0.0


def test_mean_offdiagonal_weight_requires_two_vertices():
    with pytest.raises(ValueError):
        mean_offdiagonal_weight(Graph(1))


def test_mean_offdiagonal_weight_random_half():
    g = gen_random(1000, 0.5, seed=17)
    assert abs(mean_offdiagonal_weight(g) - 0.5) < 0.02


def test_mean_offdiagonal_weight_single_edge():
    g = Graph(3, [(0, 1, 0.6)])
    assert mean_offdiagonal_weight(g) == pytest.approx(2 * 0.6 / 6)


def test_bfs_distances_path_graph():
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3]
    assert bfs_distances(g, 2).tolist() == [2, 1, 0, 1]


def test_bfs_distances_unreachable():
    g = Graph(4, [(0, 1, 1.0)])
    assert bfs_distances(g, 0).tolist() == [0, 1, -1, -1]


def test_bfs_matches_floyd_warshall_oracle():
    for seed in range(8):
        g = random_weighted_graph(15, 0.25, seed)
        dense = np.full((15, 15), np.inf)
        np.fill_diagonal(dense, 0.0)
        for u, v, _w in g.edges():
            dense[u, v] = dense[v, u] = 1.0
        for k in range(15):
            dense = np.minimum(dense, dense[:, k, None] + dense[None, k, :])
        for s in range(15):
            got = bfs_distances(g, s).astype(float)
            got[got < 0] = np.inf
            assert (got == dense[s]).all()


def test_connected_components_and_is_connected():
    g = Graph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    comps = connected_components(g)
    assert [sorted(c.tolist()) for c in comps] == [[0, 1, 2], [3, 4], [5]]
    assert not is_connected(g)
    assert is_connected(gen_complete(6))
    assert is_connected(Graph(1))


def test_graph_equality_and_repr():
    a = Graph(3, [(0, 1, 0.5)])
    b = Graph(3, [(1, 0, 0.5)])
    c = Graph(3, [(0, 1, 0.6)])
    assert a == b
    assert a != c
    assert "Graph(n=3, edges=1)" == repr(a)
