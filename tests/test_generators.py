from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffusim import (
    Graph,
    GeneratorSpec,
    SimulationConfig,
    degree_histogram,
    export_link_matrix,
    gen_complete,
    gen_random,
    gen_scale_free,
    gen_stochastic,
    import_matrix,
    is_connected,
    make_rng,
    matrix_average_convergence,
    mean_offdiagonal_weight,
)


# --- GeneratorSpec validation ------------------------------------------------

def test_spec_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        GeneratorSpec("ring", 5, None, 1)


def test_spec_rejects_family_irrelevant_parameters():
    with pytest.raises(ValueError, match="edge_prob"):
        GeneratorSpec("stochastic", 5, 0.5, 1)
    with pytest.raises(ValueError, match="no seed"):
        GeneratorSpec("complete", 5, None, 1)
    with pytest.raises(ValueError, match="requires a seed"):
        GeneratorSpec("scale-free", 5)
    with pytest.raises(ValueError, match="edge_prob is not used"):
        matrix_average_convergence("stochastic", [5], edge_prob=0.3)


# each config checks its seed when it is built; the error names the field
SEEDED = {
    "graph seed": lambda s: GeneratorSpec("stochastic", 5, None, s),
    "seed": lambda s: SimulationConfig("broadcast", 1, 5, s),
}


def _refuse_base_seed(s):
    # complete checks the base seed too, though it then drops the graph seed
    with pytest.raises(ValueError, match="^base seed must be an integer >= 0"):
        matrix_average_convergence("complete", [5], seed=s)
    matrix_average_convergence("random", [5], seed=s)


# replication_seeds derives every ensemble's and analysis' graph seeds
REFUSED = {**SEEDED, "base seed": _refuse_base_seed}


@pytest.mark.parametrize("field", REFUSED)
@pytest.mark.parametrize("bad", [1.5, 2.0, "1", -1, True])
def test_seed_must_be_a_non_negative_integer(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0"):
        REFUSED[field](bad)


@pytest.mark.parametrize("field", SEEDED)
def test_seed_accepts_any_non_negative_integer(field):
    for seed in (0, 2**64 - 1, 2**70, np.int32(7), np.uint64(2**64 - 1)):
        cfg = SEEDED[field](seed)
        assert type(cfg.seed) is int and cfg.seed == seed


@pytest.mark.parametrize("prob", ["0.5", True, np.bool_(True), [0.5],
                                  float("nan")])
def test_spec_rejects_edge_prob_that_is_not_a_number(prob):
    with pytest.raises(ValueError, match="edge_prob"):
        GeneratorSpec("random", 5, prob, 1)


def test_spec_accepts_edge_prob_of_any_real_dtype():
    for prob in (0, 1, np.float32(0.25), np.float64(0.3)):
        assert GeneratorSpec("random", 20, prob, 3).build() == \
            gen_random(20, float(prob), seed=3)


def test_spec_defaults_edge_prob():
    spec = GeneratorSpec("random", 5, seed=1)
    assert spec.edge_prob == 0.5


def test_spec_rejects_bad_sizes_and_probs():
    with pytest.raises(ValueError):
        GeneratorSpec("complete", 0)
    with pytest.raises(ValueError):
        GeneratorSpec("random", 5, 1.2, 1)


def test_spec_build_dispatch():
    assert GeneratorSpec("complete", 4).build().edge_count == 6
    assert GeneratorSpec("random", 4, 1.0, 1).build().edge_count == 6
    assert GeneratorSpec("stochastic", 4, None, 1).build().edge_count == 6
    assert GeneratorSpec("scale-free", 4, None, 1).build().edge_count == 3
    # each gen_* builds exactly what its spec builds
    assert gen_complete(7) == GeneratorSpec("complete", 7).build()
    for seed in (3, 2**40 + 1):
        assert gen_random(30, 0.3, seed) == \
            GeneratorSpec("random", 30, 0.3, seed).build()
        assert gen_stochastic(30, seed) == \
            GeneratorSpec("stochastic", 30, None, seed).build()
        assert gen_scale_free(30, seed) == \
            GeneratorSpec("scale-free", 30, None, seed).build()


@pytest.mark.parametrize("gen", [gen_random, gen_stochastic, gen_scale_free])
def test_gen_rejects_zero_vertices(gen):
    with pytest.raises(ValueError, match="vertex count must be >= 1"):
        gen(0)


def test_gen_random_requires_seed_and_defaults_edge_prob():
    # a missing seed never falls back to an entropy-seeded graph
    with pytest.raises(ValueError, match="requires a seed"):
        gen_random(5, 0.5, seed=None)
    assert gen_random(5, None, seed=1) == gen_random(5, 0.5, seed=1)


# --- complete ----------------------------------------------------------------

def test_complete_edge_counts():
    assert gen_complete(100).edge_count == 4950
    assert gen_complete(1).edge_count == 0
    assert gen_complete(2).edge_count == 1


def test_complete_rejects_zero():
    with pytest.raises(ValueError):
        gen_complete(0)


# --- random ------------------------------------------------------------------

def test_random_prob_one_is_complete():
    assert gen_random(8, 1.0, seed=0) == gen_complete(8)


def test_random_prob_zero_is_empty():
    assert gen_random(8, 0.0, seed=0).edge_count == 0


def test_random_rejects_out_of_range_prob():
    with pytest.raises(ValueError):
        gen_random(8, -0.1, seed=0)
    with pytest.raises(ValueError):
        gen_random(8, 1.1, seed=0)


def test_random_mean_offdiagonal_near_half():
    g = gen_random(1000, 0.5, seed=5)
    assert abs(mean_offdiagonal_weight(g) - 0.5) < 0.02


def test_random_edge_count_binomial_check():
    # mean edge count over seeds within 3 standard errors of p*n(n-1)/2
    n, p, seeds = 60, 0.3, 200
    pairs = n * (n - 1) // 2
    counts = [gen_random(n, p, seed=s).edge_count for s in range(seeds)]
    expected = p * pairs
    se = math.sqrt(pairs * p * (1 - p) / seeds)
    assert abs(np.mean(counts) - expected) < 3 * se


# --- stochastic --------------------------------------------------------------

def test_stochastic_is_complete_with_unit_interval_weights():
    g = gen_stochastic(40, seed=2)
    assert g.edge_count == 40 * 39 // 2
    _, _, w = g.edge_arrays()
    assert (w >= 0).all() and (w <= 1).all()


def test_stochastic_two_vertices():
    assert gen_stochastic(2, seed=9).edge_count == 1


def test_stochastic_mean_offdiagonal_near_half():
    g = gen_stochastic(1000, seed=5)
    assert abs(mean_offdiagonal_weight(g) - 0.5) < 0.02


# --- scale-free --------------------------------------------------------------

def test_scale_free_single_vertex():
    assert gen_scale_free(1, seed=0).edge_count == 0


def test_scale_free_is_tree():
    for seed in range(30):
        g = gen_scale_free(100, seed=seed)
        assert g.edge_count == 99
        assert is_connected(g)
        assert int(g.degrees().sum()) == 2 * 99


def test_scale_free_degree_one_fraction():
    fracs = [degree_histogram(gen_scale_free(100, seed=s)).get(1, 0) / 100
             for s in range(150)]
    assert np.mean(fracs) > 0.6


def test_scale_free_histogram_head_non_increasing():
    hists = [degree_histogram(gen_scale_free(100, seed=s))
             for s in range(150)]
    mean_counts = [np.mean([h.get(k, 0) for h in hists]) for k in (1, 2, 3, 4)]
    assert mean_counts[0] > mean_counts[1] > mean_counts[2] > mean_counts[3]


def test_scale_free_hub_emerges():
    # the biggest hub is a distributional signature, not an exact value:
    # at n=100 the mean peak degree sits far above the tree average of ~2,
    # and hubs with 21+ edges show up regularly across seeds
    peaks = [max(degree_histogram(gen_scale_free(100, seed=s)))
             for s in range(200)]
    assert 10 < np.mean(peaks) < 30
    assert max(peaks) >= 21


def test_scale_free_third_vertex_attachment_is_fair():
    # with degrees (1, 1) after the bootstrap edge, vertex 2 must pick
    # either endpoint with probability 1/2
    to_zero = sum(
        int(gen_scale_free(3, seed=s).neighbors(2)[0]) == 0
        for s in range(10000))
    assert abs(to_zero / 10000 - 0.5) < 0.05


def test_scale_free_attachment_tracks_degree():
    # at n=4 the degree-2 vertex of the 3-vertex prefix should win vertex
    # 3's draw with probability 2/4; the prefix is recoverable by growing
    # a 3-vertex graph from the same seed (identical stream prefix)
    win = 0
    for s in range(4000):
        hub = int(gen_scale_free(3, seed=s).neighbors(2)[0])
        g = gen_scale_free(4, seed=s)
        if int(g.neighbors(3)[0]) == hub:
            win += 1
    assert abs(win / 4000 - 0.5) < 0.05


# --- determinism -------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda s: gen_random(50, 0.5, seed=s),
    lambda s: gen_stochastic(50, seed=s),
    lambda s: gen_scale_free(50, seed=s),
])
def test_same_seed_same_graph(build):
    assert build(123) == build(123)
    assert build(123) != build(124)


# --- dense families against the documented pair order -----------------------

def ref_dense(family, n, edge_prob, seed):
    """The documented draw: one uniform per pair of ``np.triu_indices``."""
    u, v = np.triu_indices(n, k=1)
    u, v, w = u.astype(np.int64), v.astype(np.int64), np.ones(u.size)
    if family == "random":
        keep = make_rng(seed).random(u.size) < edge_prob
        u, v, w = u[keep], v[keep], w[keep]
    elif family == "stochastic":
        w = make_rng(seed).random(u.size)
    return Graph(n, (u, v, w))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 100])
@pytest.mark.parametrize("family, edge_prob", [
    ("complete", None), ("stochastic", None), ("random", 0), ("random", 0.01),
    ("random", 0.5), ("random", 1)])
def test_dense_build_draws_pairs_in_lexicographic_order(family, n, edge_prob):
    seed = None if family == "complete" else 5
    got = GeneratorSpec(family, n, edge_prob, seed).build()
    want = ref_dense(family, n, edge_prob, seed)
    for got_arr, want_arr in zip(got.edge_arrays(), want.edge_arrays()):
        assert got_arr.dtype == want_arr.dtype
        np.testing.assert_array_equal(got_arr, want_arr)


@pytest.mark.parametrize("regenerated", [False, True])
def test_random_build_peak_memory(regenerated):
    # the pair mask takes 1 byte per vertex cell and the draw 8 per pair,
    # about 21 MB here; int64 pair-index arrays would add 32 MB
    spec = GeneratorSpec("random", 2000, 0.01, 3)
    tracemalloc.start()
    try:
        if regenerated:
            spec._builder(True)(4)._adj()  # an ensemble graph, with its CSR
        else:
            spec.build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 << 20, peak


def test_import_link_matrix_peak_memory():
    # 250k edges in a 2 MB text, read into an 8 MB float64 matrix that
    # validation then copies: about 24 MB, and 32 MB if per-row arrays
    # from the parse were still held
    text = export_link_matrix(gen_random(1000, 0.5, seed=0))
    tracemalloc.start()
    try:
        import_matrix(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 << 20, peak


# --- scale-free growth against the per-vertex loop it replaced ---------------

def ref_scale_free_targets(n, seed):
    """Attachment targets of vertices 1..n-1, one ``integers`` call each."""
    rng = np.random.default_rng(seed)
    targets = np.zeros(n - 1, dtype=np.int64)  # vertex 1 attaches to 0
    # pool holds each vertex once per unit of degree
    pool = [0, 1]
    for t in range(2, n):
        tgt = pool[int(rng.integers(0, len(pool)))]
        targets[t - 1] = tgt
        pool.append(tgt)
        pool.append(t)
    return targets


def assert_scale_free_matches_reference(n, seed):
    want = Graph(n, (np.arange(1, n, dtype=np.int64),
                     ref_scale_free_targets(n, seed),
                     np.ones(n - 1, dtype=np.float64)))
    for got_arr, want_arr in zip(gen_scale_free(n, seed=seed).edge_arrays(),
                                 want.edge_arrays()):
        np.testing.assert_array_equal(got_arr, want_arr)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3000), seed=st.integers(0, 2**64 - 1))
def test_scale_free_matches_per_vertex_loop(n, seed):
    assert_scale_free_matches_reference(n, seed)


@pytest.mark.parametrize("seed", [0, 2**63])
def test_scale_free_matches_per_vertex_loop_large(seed):
    assert_scale_free_matches_reference(10**5, seed)


def test_scale_free_rejects_n_beyond_32_bit_draws_before_allocating():
    # the cap rejects a tree whose edge arrays alone would need tens of
    # GB, before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2147483649"):
            gen_scale_free(2**31 + 2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_spec_refuses_scale_free_beyond_cap_at_construction():
    # construction, not build, is the only vertex-count check
    with pytest.raises(ValueError, match="2147483649"):
        GeneratorSpec("scale-free", 2**31 + 2, None, 0)
    assert GeneratorSpec("scale-free", 2**31 + 1, None, 0).n == 2**31 + 1
    # the cap is scale-free's alone
    assert GeneratorSpec("complete", 2**31 + 2).n == 2**31 + 2


# --- one integers call over an array of bounds against one call each -------
# gen_scale_free draws every pick with one integers(0, bounds) call; these
# pin the numpy behaviour that call rests on, on every numpy the CI runs

def assert_array_integers_match_scalar_calls(bounds, seed):
    rng = np.random.default_rng(seed)
    want = [int(rng.integers(0, int(k))) for k in bounds]
    got_rng = np.random.default_rng(seed)
    got = got_rng.integers(0, np.array(bounds, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert got_rng.bit_generator.state == rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       bounds=st.lists(st.integers(2**31, 2**32 - 2), min_size=1,
                       max_size=300))
@example(seed=0, bounds=[2**32 - 1, 2**32, 2**32 + 1, 2**40])
@example(seed=2**63, bounds=[3, 2**32, 5, 2**32 + 1, 2**32 - 1, 7, 2**40])
@example(seed=1, bounds=[])
def test_array_integers_match_scalar_calls_near_2_32(seed, bounds):
    # (2**32 - k) % k is 2**32 - k here: up to half of all draws, a
    # quarter on average, are rejected and drawn again; 2**32 takes a
    # 32-bit value as it is and larger bounds draw 64-bit values
    assert_array_integers_match_scalar_calls(bounds, seed)


@pytest.mark.parametrize("seed", [0, 1, 2**63])
def test_array_integers_match_scalar_calls_small_bounds(seed):
    assert_array_integers_match_scalar_calls(np.arange(2, 5001), seed)


# --- random(a) then random(b) against one random(a + b) call ---------------
# diffusion.run draws random-contact uniforms ahead, in refills whose sizes
# need not match the loops that consume them; these pin the numpy behaviour
# the draw-ahead rests on, on every numpy the CI runs

@pytest.mark.parametrize("seed", [0, 2**63])
@pytest.mark.parametrize("a,b", [
    (0, 0), (0, 5), (5, 0), (1, 1), (3, 8188), (2048, 6144), (8191, 1),
    (8192, 0), (0, 8193), (4097, 4097), (8192, 8192), (1, 20000)])
def test_split_random_draws_match_one_call(seed, a, b):
    rng = np.random.default_rng(seed)
    want = rng.random(a + b)
    got_rng = np.random.default_rng(seed)
    got = np.concatenate((got_rng.random(a), got_rng.random(b)))
    assert got.tolist() == want.tolist()
    assert got_rng.bit_generator.state == rng.bit_generator.state
    # the form run uses: each draw fills a slice of one buffer in place
    out_rng = np.random.default_rng(seed)
    out = np.empty(a + b)
    out_rng.random(out=out[:a])
    out_rng.random(out=out[a:])
    assert out.tolist() == want.tolist()
    assert out_rng.bit_generator.state == rng.bit_generator.state
