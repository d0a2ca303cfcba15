from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffusim import (
    EnsembleConfig,
    GeneratorSpec,
    Graph,
    SimulationConfig,
    compare_ensembles,
    replication_seeds,
    run,
    run_ensemble,
)
from diffusim import ensemble
from diffusim.ensemble import (
    EnsembleSummary,
    SaturationStats,
    _aggregate,
    _bootstrap_mean_diff_ci,
    _first_loops,
    _nearest_rank,
)


def make_cfg(family="random", n=30, initial=3, reps=20, seed=9,
             max_loops=200, model="random-contact", regenerate=True,
             edge_prob=0.5, gen_seed=4):
    base = SimulationConfig(model, initial, max_loops, seed=seed)
    prob = edge_prob if family == "random" else None
    gseed = None if family == "complete" else gen_seed
    gen = GeneratorSpec(family, n, prob, gseed)
    return EnsembleConfig(base, gen, reps, regenerate)


def test_replication_seed_derivation_is_stable():
    a = replication_seeds(42, 0)
    b = replication_seeds(42, 0)
    c = replication_seeds(42, 1)
    assert a == b
    assert a != c
    # frozen values guard the documented derivation against regressions
    assert replication_seeds(0, 0) == (8668861027912758289,
                                       14584187760040447831)


def test_single_replication_equals_single_run():
    cfg = make_cfg(reps=1, regenerate=False)
    summary = run_ensemble(cfg)
    _, run_seed = replication_seeds(cfg.base.seed, 0)
    g = cfg.generator.build()
    rec = run(g, SimulationConfig("random-contact", 3, 200, seed=run_seed))
    assert summary.mean.tolist() == [float(c) for c in rec.counts]
    assert (summary.sd == 0).all()
    assert summary.p10.tolist() == rec.counts
    assert summary.p90.tolist() == rec.counts


def test_complete_broadcast_zero_variance():
    cfg = make_cfg(family="complete", n=100, initial=7, reps=25,
                   model="broadcast")
    summary = run_ensemble(cfg)
    assert summary.mean.tolist() == [7.0, 100.0]
    assert summary.sd.tolist() == [0.0, 0.0]
    assert summary.saturation.mean == 1.0
    assert summary.saturation.censored == 0


def test_ensemble_determinism():
    cfg = make_cfg(reps=30)
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    assert a.mean.tolist() == b.mean.tolist()
    assert a.sd.tolist() == b.sd.tolist()
    assert a.saturation.times.tolist() == b.saturation.times.tolist()


def test_aggregation_is_replication_order_insensitive():
    trajs = [[2, 4, 9, 10], [2, 10], [2, 3, 4, 10], [2, 2, 2, 2, 2]]
    a = _aggregate(10, trajs)
    b = _aggregate(10, list(reversed(trajs)))
    assert a.mean.tolist() == b.mean.tolist()
    assert a.sd.tolist() == b.sd.tolist()
    assert a.p10.tolist() == b.p10.tolist()
    assert a.p50.tolist() == b.p50.tolist()
    assert a.p90.tolist() == b.p90.tolist()
    assert a.saturation.mean == b.saturation.mean
    assert a.saturation.censored == b.saturation.censored


def test_trajectories_extended_at_terminal_value():
    summary = _aggregate(10, [[5, 10], [5, 5, 5, 10]])
    # shorter trajectory holds its terminal 10 across the common horizon
    assert summary.mean.tolist() == [5.0, 7.5, 7.5, 10.0]
    assert summary.horizon == 3


def test_censoring_bookkeeping():
    summary = _aggregate(10, [[5, 10], [5, 6, 7], [5, 10]])
    sat = summary.saturation
    assert sat.censored == 1
    assert sat.mean == 1.0
    assert (sat.times >= 0).sum() + sat.censored == 3


def test_all_censored_saturation_stats_are_none():
    summary = _aggregate(10, [[5, 6], [5, 7]])
    assert summary.saturation.mean is None
    assert summary.saturation.censored == 2


def test_percentiles_are_nearest_rank():
    trajs = [[k] for k in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)]
    s = _aggregate(100, trajs)
    assert int(s.p10[0]) == 1   # ceil(0.1 * 10) = 1st of sorted values
    assert int(s.p50[0]) == 5
    assert int(s.p90[0]) == 9


def test_extended_repeats_last_row():
    cfg = make_cfg(family="complete", n=10, initial=2, reps=5,
                   model="broadcast")
    s = run_ensemble(cfg)
    e = s.extended(4)
    assert e.horizon == 4
    assert e.mean.tolist() == [2.0, 10.0, 10.0, 10.0, 10.0]
    with pytest.raises(ValueError):
        e.extended(1)
    assert s.extended(s.horizon) is s


def reference_aggregate(n, trajectories):
    """The per-row padding loop: each trajectory written into its row,
    then held at its last count to the longest horizon."""
    reps = len(trajectories)
    horizon = max(len(t) for t in trajectories) - 1
    arr = np.empty((reps, horizon + 1), dtype=np.int64)
    for i, t in enumerate(trajectories):
        arr[i, :len(t)] = t
        arr[i, len(t):] = t[-1]
    sums = arr.sum(axis=0)
    sumsq = (arr * arr).sum(axis=0)
    mean = sums / reps
    var = np.maximum(sumsq / reps - mean * mean, 0.0)
    sd = np.sqrt(var)
    srt = np.sort(arr, axis=0)
    thr = math.ceil(ensemble.THRESHOLD_FRACTION * n)
    return EnsembleSummary(
        n, reps, mean, sd, _nearest_rank(srt, 10), _nearest_rank(srt, 50),
        _nearest_rank(srt, 90),
        SaturationStats.from_times(_first_loops(arr == n)),
        SaturationStats.from_times(_first_loops(arr >= thr)))


def reference_extended(s, horizon):
    """Each per-loop array concatenated with copies of its last value."""
    def ext(a):
        return np.concatenate(
            [a, np.full(horizon - s.horizon, a[-1], dtype=a.dtype)])
    return replace(s, mean=ext(s.mean), sd=ext(s.sd), p10=ext(s.p10),
                   p50=ext(s.p50), p90=ext(s.p90))


def assert_same_summary(got, want):
    for name in ("mean", "sd", "p10", "p50", "p90"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("saturation", "threshold"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.to_json_dict() == b.to_json_dict(), name
        assert a.times.dtype == b.times.dtype, name
        assert a.times.tolist() == b.times.tolist(), name
    assert (got.n, got.replications) == (want.n, want.replications)
    assert got.to_csv() == want.to_csv()
    assert got.to_json_dict() == want.to_json_dict()


def ragged_trajectories(max_reps=40, max_len=30):
    return st.integers(1, 50).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(0, n), min_size=1, max_size=max_len),
                 min_size=1, max_size=max_reps)))


@settings(max_examples=300, deadline=None)
@given(case=ragged_trajectories())
@example(case=(10, [[2, 5, 10]]))                          # one replication
@example(case=(10, [[2, 5, 10], [3, 9, 9], [1, 1, 1]]))    # equal lengths
@example(case=(10, [[10], [3], [9]]))                      # length 1 only
@example(case=(10, [[4], [2, 4, 9, 10], [7]]))              # length 1, ragged
def test_aggregate_matches_padding_loop(case):
    n, trajectories = case
    assert_same_summary(_aggregate(n, trajectories),
                        reference_aggregate(n, trajectories))


@settings(max_examples=100, deadline=None)
@given(case=ragged_trajectories(max_reps=10, max_len=10),
       pad=st.integers(1, 20))
@example(case=(10, [[2]]), pad=1)
def test_extended_matches_concatenation(case, pad):
    s = _aggregate(*case)
    got = s.extended(s.horizon + pad)
    assert [a.dtype for a in (got.mean, got.sd)] == [np.float64] * 2
    assert [a.dtype for a in (got.p10, got.p50, got.p90)] == [np.int64] * 3
    assert got.saturation is s.saturation and got.threshold is s.threshold
    assert_same_summary(got, reference_extended(s, s.horizon + pad))


def test_fixed_graph_mode_reuses_generator_seed():
    reps = 8
    fixed = run_ensemble(make_cfg(reps=reps, regenerate=False))
    fresh = run_ensemble(make_cfg(reps=reps, regenerate=True))
    # same run seeds, different graphs: trajectories must differ somewhere
    assert fixed.mean.tolist() != fresh.mean.tolist() or \
        fixed.sd.tolist() != fresh.sd.tolist()


def test_compare_self_is_zero():
    s = run_ensemble(make_cfg(reps=15))
    rep = compare_ensembles(s, s)
    assert rep.max_abs_mean_diff == 0.0
    assert (rep.mean_diff == 0).all()
    assert rep.saturation_ratio == 1.0
    assert rep.threshold_mean_diff == 0.0


def test_compare_complete_broadcast_across_seeds_is_zero():
    a = run_ensemble(make_cfg(family="complete", n=50, initial=5, reps=10,
                              model="broadcast", seed=1))
    b = run_ensemble(make_cfg(family="complete", n=50, initial=5, reps=10,
                              model="broadcast", seed=2))
    rep = compare_ensembles(a, b)
    assert rep.max_abs_mean_diff == 0.0
    assert rep.saturation_ratio == 1.0


def test_compare_rejects_mismatched_shapes():
    a = run_ensemble(make_cfg(family="complete", n=50, initial=5, reps=5,
                              model="broadcast"))
    b = run_ensemble(make_cfg(family="complete", n=60, initial=5, reps=5,
                              model="broadcast"))
    with pytest.raises(ValueError, match="vertex counts"):
        compare_ensembles(a, b)
    c = run_ensemble(make_cfg(reps=5))
    d = run_ensemble(make_cfg(family="complete", n=30, initial=3, reps=5,
                              model="broadcast"))
    with pytest.raises(ValueError, match="horizons"):
        compare_ensembles(c, d)


def test_scale_free_slower_than_random_to_threshold():
    base_kwargs = dict(n=60, initial=6, reps=60, seed=33, max_loops=2000)
    r = run_ensemble(make_cfg(family="random", **base_kwargs))
    s = run_ensemble(make_cfg(family="scale-free", **base_kwargs))
    horizon = max(r.horizon, s.horizon)
    rep = compare_ensembles(s.extended(horizon), r.extended(horizon))
    assert rep.threshold_mean_diff > 0
    lo, hi = rep.threshold_diff_ci95
    assert lo > 0


def test_replications_validation():
    with pytest.raises(ValueError):
        make_cfg(reps=0)


def test_run_ensemble_without_generator_is_a_value_error():
    cfg = EnsembleConfig(SimulationConfig("broadcast", 1, 5, 0), None, 2)
    with pytest.raises(ValueError, match="generator"):
        run_ensemble(cfg)


def test_summary_json_dict():
    s = run_ensemble(make_cfg(family="complete", n=10, initial=1, reps=4,
                              model="broadcast"))
    d = s.to_json_dict()
    assert d["n"] == 10
    assert d["replications"] == 4
    assert d["saturation"]["mean"] == 1.0
    assert d["saturation"]["censored"] == 0
    assert d["threshold_fraction"] == 0.9


# --- regenerated dense graphs: stochastic ones reweight one complete graph,
# random ones are built as build() builds them ------------------------------

DENSE_N = (1, 2, 3, 17, 100)
DENSE_SPECS = [GeneratorSpec("stochastic", n, None, 5) for n in DENSE_N]
# at edge_prob 0.01 most rows are empty; n = 300 at 0.003 fills its CSR by
# the sort, not from the pair mask
DENSE_SPECS += [GeneratorSpec("random", n, p, 5)
                for n in DENSE_N for p in (0, 0.01, 0.5, 1)]
DENSE_SPECS += [GeneratorSpec("random", 300, 0.003, 5)]


@pytest.mark.parametrize(
    "spec", DENSE_SPECS,
    ids=lambda s: f"{s.family}-n{s.n}-p{s.edge_prob}")
def test_pattern_built_graphs_equal_public_builds(spec):
    build = spec._builder(True)
    for i in range(3):
        seed = replication_seeds(11, i)[0]
        g, ref = build(seed), replace(spec, seed=seed).build()
        assert g == ref
        g._adj(), ref._adj()
        # against the public build's CSR, by value and dtype: a stochastic
        # pattern on n >= 2 is filled from the pair mask, its build by sort
        for name in Graph.__slots__[1:]:
            got, want = getattr(g, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name


def test_pattern_built_graphs_are_read_only():
    spec = GeneratorSpec("stochastic", 6, None, 3)
    build = spec._builder(True)
    g, h = build(1), build(2)
    for arr in (g.edge_arrays()[0], g.neighbors(0), g.neighbor_weights(0)):
        with pytest.raises(ValueError):
            arr[0] = 5
    ref = replace(spec, seed=2).build()
    assert h == ref
    for v in range(6):
        assert h.neighbors(v).tolist() == ref.neighbors(v).tolist()
        assert h.neighbor_weights(v).tolist() == \
            ref.neighbor_weights(v).tolist()


@pytest.mark.parametrize("family, edge_prob", [
    ("random", 0), ("random", 0.5), ("stochastic", None)])
def test_dense_ensemble_matches_loop_of_public_builds(family, edge_prob):
    # at edge_prob 0 every vertex is isolated, so run pads every trajectory
    cfg = make_cfg(family=family, n=20, reps=12, max_loops=40,
                   edge_prob=edge_prob)
    counts = []
    for i in range(cfg.replications):
        graph_seed, run_seed = replication_seeds(cfg.base.seed, i)
        g = replace(cfg.generator, seed=graph_seed).build()
        counts.append(run(g, replace(cfg.base, seed=run_seed)).counts)
    if edge_prob == 0:
        assert all(c == [3] * 41 for c in counts)
    want, got = _aggregate(20, counts), run_ensemble(cfg)
    for name in ("mean", "sd", "p10", "p50", "p90"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    for name in ("saturation", "threshold"):
        assert getattr(got, name).times.tolist() == \
            getattr(want, name).times.tolist()


# --- the bootstrap interval ---------------------------------------------------

def ref_bootstrap_mean_diff_ci(a, b):
    """Every resample index of a, then of b, drawn by one call each."""
    rng = np.random.default_rng(ensemble.BOOTSTRAP_SEED)
    ia = rng.integers(0, a.size, size=(ensemble.BOOTSTRAP_SAMPLES, a.size))
    ib = rng.integers(0, b.size, size=(ensemble.BOOTSTRAP_SAMPLES, b.size))
    diffs = a[ia].mean(axis=1) - b[ib].mean(axis=1)
    return (float(np.percentile(diffs, 2.5)),
            float(np.percentile(diffs, 97.5)))


def samples(size, integral, seed):
    rng = np.random.default_rng(seed)
    if integral:  # loops to threshold, as compare_ensembles passes them
        return rng.integers(3, 40, size).astype(np.float64)
    return rng.normal(10.0, 3.0, size)


@pytest.mark.parametrize("integral", [True, False])
@pytest.mark.parametrize("size", [1, 2, 10, 997, 1000])
def test_bootstrap_matches_one_shot_reference(size, integral):
    a = samples(size, integral, size)
    b = samples(1000 if size < 1000 else 997, integral, size + 1)
    assert _bootstrap_mean_diff_ci(a, b) == ref_bootstrap_mean_diff_ci(a, b)


@pytest.mark.parametrize("cells", [1, 5000, 1 << 20])
def test_bootstrap_matches_reference_at_any_block_size(monkeypatch, cells):
    # blocks of one row, of a few rows with a short last block, and of
    # more rows than one sample's resamples need
    monkeypatch.setattr(ensemble, "BOOTSTRAP_CHUNK_CELLS", cells)
    a, b = samples(997, True, 5), samples(10, False, 6)
    assert _bootstrap_mean_diff_ci(a, b) == ref_bootstrap_mean_diff_ci(a, b)


def test_bootstrap_matches_reference_above_block_cells(monkeypatch):
    # samples larger than a block draw one row per block; fewer resamples
    # keep the reference's index matrices small
    monkeypatch.setattr(ensemble, "BOOTSTRAP_SAMPLES", 20)
    size = ensemble.BOOTSTRAP_CHUNK_CELLS + 1
    for integral in (True, False):
        a = samples(size, integral, 7)
        b = samples(size + 2, integral, 8)
        assert _bootstrap_mean_diff_ci(a, b) == \
            ref_bootstrap_mean_diff_ci(a, b)


def test_bootstrap_peak_memory():
    a, b = samples(1000, True, 1), samples(1000, True, 2)
    tracemalloc.start()
    try:
        _bootstrap_mean_diff_ci(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
