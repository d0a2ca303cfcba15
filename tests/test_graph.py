from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffusim import (
    FAMILIES,
    DiffusionState,
    EnsembleConfig,
    GeneratorSpec,
    Graph,
    SimulationConfig,
    bfs_distances,
    connected_components,
    degree_histogram,
    gen_complete,
    gen_random,
    graph_from_json,
    graph_to_json,
    import_matrix,
    is_connected,
    mean_offdiagonal_weight,
    run,
    run_ensemble,
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
    # a zero-weight edge is still an edge
    g = Graph(3, [(0, 2, 0.0), (1, 2, 0.5)])
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert g.weight(0, 2) == 0.0 and g.weight(2, 1) == 0.5
    # no self-pair is an edge
    assert not g.has_edge(2, 2) and g.weight(2, 2) == 0.0
    edgeless = Graph(3)
    assert not edgeless.has_edge(0, 1) and edgeless.weight(0, 1) == 0.0
    for u, v in [(-1, 0), (0, -1), (3, 0), (0, 3)]:
        with pytest.raises(ValueError):
            g.has_edge(u, v)
        with pytest.raises(ValueError):
            g.weight(u, v)


def test_pair_weights_vectorized():
    g = Graph(4, [(0, 1, 0.25), (2, 3, 1.0)])
    us = np.array([0, 1, 0, 3])
    vs = np.array([1, 0, 3, 2])
    assert g.pair_weights(us, vs).tolist() == [0.25, 0.25, 0.0, 1.0]
    # no edges at all
    assert Graph(3).pair_weights(np.array([0, 2]),
                                 np.array([1, 0])).tolist() == [0.0, 0.0]
    # keys below the first pair key, 0 * 5 + 2, and above the last, 3 * 5 + 1
    g = Graph(5, [(0, 2, 0.5), (1, 3, 0.75)])
    assert g.pair_weights(np.array([0, 0, 4, 4, 3]),
                          np.array([0, 1, 3, 4, 1])).tolist() == \
        [0.0, 0.0, 0.0, 0.0, 0.75]
    # a (block, actors) query comes back in its own shape
    us = np.array([0, 1, 2])
    vs = np.array([[2, 3, 0], [1, 0, 4]])
    w = g.pair_weights(us, vs)
    assert w.shape == (2, 3)
    assert w.tolist() == [[0.5, 0.75, 0.5], [0.0, 0.0, 0.0]]
    # int32 endpoints whose keys us * n + vs overflow int32
    n = 70_000
    g = Graph(n, (np.array([69_998]), np.array([69_999]), np.array([0.5])))
    us = np.array([69_999, 69_998, 69_999], dtype=np.int32)
    vs = np.array([69_998, 69_999, 69_997], dtype=np.int32)
    assert (us * np.int32(n)).tolist() != (us.astype(np.int64) * n).tolist()
    assert g.pair_weights(us, vs).tolist() == [0.5, 0.5, 0.0]
    # ids follow the vertex-id rule: 0 * 3 + 5 would be the key of {1, 2}
    g = Graph(3, [(1, 2, 0.7)])
    with pytest.raises(ValueError, match=r"vertex id 5 outside \[0, 3\)"):
        g.pair_weights(np.array([0]), np.array([5]))
    assert g.pair_weights([1, 2, 0], [2, 1.0, 1]).tolist() == [0.7, 0.7, 0.0]
    # scalar ids, Python or numpy, give a 0-d result equal to weight()
    for u, v in [(1, 2), (np.int64(2), np.int64(1)), (0, np.int64(1))]:
        w = g.pair_weights(u, v)
        assert w.shape == () and w == g.weight(u, v)
    assert g.pair_weights(1, 2) == 0.7 and g.pair_weights(0, 2) == 0.0
    assert Graph(3).pair_weights(1, 2).shape == ()
    # a scalar against a list broadcasts
    assert g.pair_weights(1, [0, 2, 1]).tolist() == [0.0, 0.7, 0.0]
    assert g.pair_weights(np.array([[2], [0]]), np.int64(1)).tolist() == \
        [[0.7], [0.0]]


def _array_triple(order):
    """A graph from arrays in ``order`` of its canonical edges, and the
    weight array it was given."""
    u, v = np.array([0, 0, 1])[order], np.array([1, 2, 2])[order]
    w = np.array([0.5, 0.25, 1.0])[order]
    return Graph(3, (u, v, w)), w


def _family_graph(family):
    return GeneratorSpec(family, 6, 0.5 if family == "random" else None,
                         None if family == "complete" else 3).build(), None


CONSTRUCTIONS = {
    "triples": lambda: (Graph(3, [(2, 0, 0.25), (0, 1, 0.5)]), None),
    "array-triple": lambda: _array_triple([0, 1, 2]),
    "array-triple-unsorted": lambda: _array_triple([2, 0, 1]),
    **{f"build-{f}": lambda f=f: _family_graph(f) for f in FAMILIES},
    "ensemble-random": lambda: (
        GeneratorSpec("random", 6, 0.5, 3)._builder(True)(8), None),
    "ensemble-stochastic": lambda: (
        GeneratorSpec("stochastic", 6, None, 3)._builder(True)(8), None),
    "import-matrix": lambda: (
        import_matrix("0 0.5 0.25\n0.5 0 1\n0.25 1 0\n"), None),
    "graph-from-json": lambda: (graph_from_json(graph_to_json(G3)), None),
}


@pytest.mark.parametrize("make", CONSTRUCTIONS.values(),
                         ids=CONSTRUCTIONS.keys())
def test_every_graph_array_is_read_only(make):
    g, w = make()
    edges = [a.copy() for a in g.edge_arrays()]
    if w is not None:
        # the caller's array never reaches the graph or its CSR
        w[...] = np.nan
    arrays = [*g.edge_arrays(), g.neighbors(0), g.neighbor_weights(0),
              g.degrees(), *g._adj()]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert all(np.array_equal(a, b) for a, b in zip(g.edge_arrays(), edges))
    assert np.isfinite(g._adj()[2]).all() and g.neighbors(0).size


@pytest.mark.parametrize("edges,msg", [
    ([(0, 0, 1.0)], "self-loop"),
    ([(0, 1, 1.5)], "weights"),
    ([(0, 1, -0.1)], "weights"),
    ([(0, 3, 1.0)], "outside"),
    ([(0, 1, 1.0), (1, 0, 0.5)], "duplicate"),
    ([(0, 1, 1.0), (0, 1, 0.5)], "duplicate"),
    ([(0, 1, 1.0), (1, 2, 1.0), (1, 2, 0.5)], "duplicate"),
    ([(0.5, 2, 1.0)], "integers"),
    ([("1", 2, 1.0)], "integers"),
    ([(0, 1, "0.5")], "weights"),
    ((np.array([[0, 1]]), np.array([[1, 2]]), np.array([[0.5, 0.5]])),
     "1-D"),
    ([(0, 1)], "triples"),
    ([(0, 1, 0.5, 7)], "triples"),
    ([5], "triples"),
    ([None], "triples"),
    ([(True, 2, 1.0)], "integers"),
])
def test_construction_rejects_invalid_edges(edges, msg):
    with pytest.raises(ValueError, match=msg):
        Graph(3, edges)


G3 = Graph(3, [(0, 1, 0.5), (1, 2, 1.0)])
# horizon 1: broadcast saturates a complete graph in one loop
SUMMARY1 = run_ensemble(EnsembleConfig(
    SimulationConfig("broadcast", 1, 5, 0), GeneratorSpec("complete", 3), 2))


@pytest.mark.parametrize("bad,call", [
    (2.5, lambda v: Graph(v)),
    ("3", lambda v: Graph(v)),
    (1.7, lambda v: Graph(3, (np.array([0.0]), np.array([v]),
                              np.array([0.5])))),
    (0.6, lambda v: SimulationConfig("broadcast", 1, 5, seed=0,
                                     initial_vertices=(v,))),
    (0.9, lambda v: G3.weight(v, 1)),
    (1.9, lambda v: G3.pair_weights(np.array([v]), [1]).tolist()),
    (1.99, lambda v: G3.degree(v)),
    (0.7, lambda v: bfs_distances(G3, v).tolist()),
    (0.5, lambda v: DiffusionState(frozenset({v}), 0).mask(3).tolist()),
    # counts follow the same rule, checked when their config is built
    (2.5, lambda v: GeneratorSpec("scale-free", v, None, 1).build()),
    ("3", lambda v: GeneratorSpec("scale-free", v, None, 1).build()),
    (2.5, lambda v: run(G3, SimulationConfig("broadcast", v, 5, 0)).counts),
    ("3", lambda v: run(G3, SimulationConfig("broadcast", v, 5, 0)).counts),
    (2.5, lambda v: run(G3, SimulationConfig("broadcast", 1, v, 0)).counts),
    ("3", lambda v: run(G3, SimulationConfig("broadcast", 1, v, 0)).counts),
    (2.5, lambda v: run_ensemble(EnsembleConfig(
        SimulationConfig("broadcast", 1, 5, 0),
        GeneratorSpec("random", 4, 0.5, 1), v)).mean.tolist()),
    ("3", lambda v: run_ensemble(EnsembleConfig(
        SimulationConfig("broadcast", 1, 5, 0),
        GeneratorSpec("random", 4, 0.5, 1), v)).mean.tolist()),
    (2.5, lambda v: SUMMARY1.extended(v).mean.tolist()),
    ("3", lambda v: SUMMARY1.extended(v).mean.tolist()),
], ids=["n", "n-str", "float-edge-array", "initial-vertex", "weight",
        "pair-weights", "degree", "bfs-source", "state-mask", "spec-n",
        "spec-n-str", "initial-informed", "initial-informed-str", "max-loops",
        "max-loops-str", "replications", "replications-str", "extended",
        "extended-str"])
def test_vertex_ids_must_be_integral(bad, call):
    # a fraction or a string is never truncated or parsed into an id
    with pytest.raises(ValueError, match="must be integers"):
        call(bad)
    for good in (2.0, np.int32(1), np.float64(1.0), np.int32(2),
                 np.float64(2.0)):
        assert call(good) == call(int(good))


@pytest.mark.parametrize("make", [
    lambda v: Graph(v).n,
    lambda v: GeneratorSpec("complete", v).n,
    lambda v: SimulationConfig("broadcast", v, 5, 0).initial_informed,
    lambda v: SimulationConfig("broadcast", 1, v, 0).max_loops,
    lambda v: EnsembleConfig(SimulationConfig("broadcast", 1, 5, 0),
                             GeneratorSpec("complete", 3), v).replications,
    lambda v: SUMMARY1.extended(v).horizon,
], ids=["graph-n", "spec-n", "initial-informed", "max-loops", "replications",
        "extended"])
def test_counts_are_stored_as_int(make):
    for value in (2.0, np.int32(2), np.float64(2.0), np.int64(2)):
        count = make(value)
        assert type(count) is int and count == 2


@pytest.mark.parametrize("make,field", [
    (lambda v: Graph(v), "vertex count"),
    (lambda v: GeneratorSpec("complete", v), "vertex count"),
    (lambda v: SimulationConfig("broadcast", v, 5, 0), "initial_informed"),
    (lambda v: SimulationConfig("broadcast", 1, v, 0), "max_loops"),
    (lambda v: EnsembleConfig(SimulationConfig("broadcast", 1, 5, 0),
                              GeneratorSpec("complete", 3), v),
     "replications"),
    (lambda v: SUMMARY1.extended(v), "horizon"),
], ids=["graph-n", "spec-n", "initial-informed", "max-loops", "replications",
        "extended"])
@pytest.mark.parametrize("bad,msg", [
    (2.5, "must be integers"), ("3", "must be integers"),
    (None, "must be integers"), ([3], "must be integers"),
    (True, "must be integers"), (-1, "must be >= "),
], ids=["fraction", "string", "none", "list", "bool", "negative"])
def test_count_errors_name_the_field(make, field, bad, msg):
    with pytest.raises(ValueError, match=field) as exc:
        make(bad)
    assert msg in str(exc.value)


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


def ref_csr(g):
    """The CSR arrays from a two-key lexsort of both edge directions."""
    u, v, w = g.edge_arrays()
    du, dv, dw = np.r_[u, v], np.r_[v, u], np.r_[w, w]
    order = np.lexsort((dv, du))
    du, dv, dw = du[order], dv[order], dw[order]
    indptr = np.r_[0, np.cumsum(np.bincount(du, minlength=g.n))]
    return indptr, dv, dw, du * g.n + dv


@st.composite
def csr_graphs(draw):
    """Graphs with n in [0, 30], isolated vertices and edges given in any
    order and orientation."""
    n = draw(st.integers(0, 30))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=4 * n)) if pairs else []
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in chosen]
    return Graph(n, [(i, j, draw(st.floats(0.0, 1.0))) for i, j in edges])


@settings(max_examples=200, deadline=None)
@given(g=csr_graphs())
@example(g=Graph(0))
@example(g=Graph(1))
@example(g=Graph(5, [(3, 1, 0.5), (1, 0, 1.0)]))
def test_adjacency_matches_lexsort_reference(g):
    indptr, nbr, nbrw = g._adj()
    for got, want in zip((indptr, nbr, nbrw, g._pair_keys), ref_csr(g)):
        assert got.tolist() == want.tolist()


def _complete_weighted(n, *weights):
    """The complete graph on n, its first edges weighted ``weights``."""
    u, v, w = gen_complete(n).edge_arrays()
    w = w.copy()
    w[:len(weights)] = weights
    return Graph(n, (u, v, w))


# name: (graph, whether its CSR is filled from the pair mask: all weights
# 1.0 and n * n <= 32 * edge_count)
CSR_FILLS = {
    "random-p0.5": (lambda: gen_random(100, 0.5, 3), True),
    "random-p0.05": (lambda: gen_random(100, 0.05, 3), False),
    "scale-free": (lambda: GeneratorSpec("scale-free", 100, None, 3).build(),
                   False),
    "complete-n1": (lambda: gen_complete(1), False),
    "complete-n2": (lambda: gen_complete(2), True),
    "empty": (lambda: Graph(0), True),
    "dense-weighted": (lambda: _complete_weighted(20, 0.0, 0.5), False),
    # vertices 0, 1, 22 and 23 have no edge
    "isolated": (lambda: Graph(24, [(u, v, 1.0) for u in range(2, 22)
                                    for v in range(u + 1, 22)]), True),
}


@pytest.mark.parametrize("make, mask", CSR_FILLS.values(),
                         ids=CSR_FILLS.keys())
def test_csr_fill_choice_matches_lexsort_reference(make, mask, monkeypatch):
    g = make()
    sorts = []
    argsort = np.argsort
    with monkeypatch.context() as m:
        m.setattr(np, "argsort",
                  lambda *a, **k: sorts.append(1) or argsort(*a, **k))
        g._adj()
    assert not sorts if mask else sorts
    indptr, nbr, nbrw, keys = ref_csr(g)
    for got, want in zip(
            (g._indptr, g._nbr, g._nbrw, g._pair_keys, g._degrees),
            (indptr, nbr, nbrw, keys, np.diff(indptr))):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("make", [
    *(make for make, _ in CSR_FILLS.values()),
    lambda: GeneratorSpec("stochastic", 30, None, 4)._builder(True)(7),
], ids=[*CSR_FILLS, "stochastic-pattern"])
def test_degrees_count_edge_ends_without_csr(make):
    g = make()
    # a pattern-built graph shares its pattern's CSR from the start
    fresh = g._indptr is None
    deg = g.degrees()
    assert (g._indptr is None) == fresh
    g._adj()
    assert g.degrees() is deg
    assert deg.dtype == np.int64
    np.testing.assert_array_equal(deg, np.diff(g._indptr))
    with pytest.raises(ValueError):
        deg[:1] = 5


def test_construction_rejects_nan_weight():
    with pytest.raises(ValueError, match="weights"):
        Graph(3, [(0, 1, float("nan"))])


@pytest.mark.parametrize("make", [
    lambda: Graph(3, []),
    lambda: Graph(0, []),
    lambda: Graph(3, (np.array([], np.int64), np.array([], np.int64),
                      np.array([], np.float64))),
    lambda: graph_from_json('{"n": 3, "edges": []}'),
])
def test_construction_takes_no_edges(make):
    g = make()
    assert g.edge_count == 0
    assert g.degrees().tolist() == [0] * g.n


@pytest.mark.parametrize("dtype", [bool, str, object])
def test_construction_rejects_empty_non_numeric_weights(dtype):
    # the weight rule holds for no edges as for one
    empty = np.array([], int)
    with pytest.raises(ValueError, match="weights"):
        Graph(3, (empty, empty, np.array([], dtype)))


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


def test_degree_histogram_empty_graph():
    # np.bincount of no degrees is empty, so n = 0 needs no branch of its own
    assert degree_histogram(Graph(0)) == {}


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


def test_graph_compares_unequal_to_non_graphs():
    # __eq__ returns NotImplemented, so Python falls back to identity
    g = Graph(3, [(0, 1, 0.5)])
    assert (g == 3) is False
    assert (g != "x") is True


def test_graph_is_unhashable():
    # defining __eq__ alone makes a class unhashable
    g = Graph(3, [(0, 1, 0.5)])
    with pytest.raises(TypeError, match="unhashable type: 'Graph'"):
        hash(g)
    with pytest.raises(TypeError):
        {g}
