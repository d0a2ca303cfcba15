from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusim import (
    ContactModel,
    DiffusionState,
    EnsembleConfig,
    GeneratorSpec,
    Graph,
    SimulationConfig,
    gen_complete,
    gen_random,
    gen_scale_free,
    gen_stochastic,
    import_matrix,
    init_state,
    run,
    run_ensemble,
    step,
)
from diffusim.diffusion import _SPREAD


# --- independent reference implementation ------------------------------------
# Plain-python re-implementation of the documented dynamics and stream
# consumption, built on dicts and scalar draws only. Used to pin the
# package engine seed-for-seed on small graphs.

def ref_adjacency(g):
    adj = {v: {} for v in range(g.n)}
    for u, v, w in g.edges():
        adj[u][v] = w
        adj[v][u] = w
    return adj


def ref_run(g, model, initial_informed, max_loops, seed,
            initial_vertices=None):
    adj = ref_adjacency(g)
    n = g.n
    rng = np.random.default_rng(seed)
    if initial_vertices is not None:
        informed = set(initial_vertices)
    else:
        informed = set(int(x) for x in
                       rng.choice(n, size=initial_informed, replace=False))
    counts = [len(informed)]
    loop = 0
    while len(informed) < n and loop < max_loops:
        if model == "broadcast":
            newly = set()
            for i in sorted(informed):
                for j in sorted(adj[i]):
                    if j in informed:
                        continue
                    if rng.random() < adj[i][j]:
                        newly.add(j)
            informed |= newly
        else:  # random-contact
            actors = [i for i in sorted(informed) if adj[i]]
            picks = [rng.random() for _ in actors]
            targets = []
            for i, u in zip(actors, picks):
                j = int(u * (n - 1))
                if j >= i:
                    j += 1
                targets.append(j)
            coins = [rng.random() for _ in actors]
            newly = set()
            for i, j, c in zip(actors, targets, coins):
                if j not in informed and c < adj[i].get(j, 0.0):
                    newly.add(j)
            informed |= newly
        loop += 1
        counts.append(len(informed))
    return counts


def small_graphs():
    yield Graph(2, [(0, 1, 1.0)])
    yield Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    yield Graph(5, [(0, 1, 0.3), (1, 2, 0.9), (2, 3, 0.5), (3, 4, 0.7),
                    (0, 4, 0.2)])
    yield Graph(6, [(0, 1, 1.0), (2, 3, 0.4)])  # disconnected, isolated 4/5
    yield gen_complete(7)
    for seed in range(4):
        yield gen_random(9, 0.4, seed=seed)
        yield gen_stochastic(8, seed=seed)
        yield gen_scale_free(12, seed=seed)


@pytest.mark.parametrize("model", ["broadcast", "random-contact"])
def test_engine_matches_reference_implementation(model):
    for g in small_graphs():
        for seed in range(40):
            k = 1 + seed % min(3, g.n)
            cfg = SimulationConfig(model, k, 15, seed=seed)
            got = run(g, cfg).counts
            want = ref_run(g, model, k, 15, seed=seed)
            assert got == want, (model, g, seed)


# --- init_state ---------------------------------------------------------------

def test_init_state_all_informed():
    g = gen_complete(6)
    s = init_state(g, SimulationConfig("broadcast", 6, 5, seed=1))
    assert s.informed == frozenset(range(6))
    assert s.loop == 0


def test_init_state_single_vertex():
    g = gen_complete(6)
    s = init_state(g, SimulationConfig("broadcast", 1, 5, seed=1))
    assert len(s.informed) == 1


def test_init_state_deterministic():
    g = gen_random(30, 0.5, seed=2)
    cfg = SimulationConfig("random-contact", 5, 5, seed=77)
    assert init_state(g, cfg).informed == init_state(g, cfg).informed


def test_init_state_range_check():
    g = gen_complete(4)
    with pytest.raises(ValueError):
        init_state(g, SimulationConfig("broadcast", 5, 5, seed=1))


def test_init_state_explicit_vertices():
    g = gen_complete(6)
    cfg = SimulationConfig("broadcast", 3, 5, seed=1,
                           initial_vertices=(5, 0, 2))
    assert init_state(g, cfg).informed == frozenset({0, 2, 5})
    bad = SimulationConfig("broadcast", 1, 5, seed=1, initial_vertices=(9,))
    with pytest.raises(ValueError):
        init_state(g, bad)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig("broadcast", 0, 5, seed=1)
    with pytest.raises(ValueError):
        SimulationConfig("broadcast", 1, 0, seed=1)
    with pytest.raises(ValueError):
        SimulationConfig("broadcast", 2, 5, seed=1, initial_vertices=(1,))
    with pytest.raises(ValueError):
        SimulationConfig("broadcast", 2, 5, seed=1, initial_vertices=(1, 1))
    with pytest.raises(ValueError):
        SimulationConfig("teleport", 1, 5, seed=1)


@pytest.mark.parametrize("model", [3, None])
def test_config_refuses_a_non_model(model):
    # refused when built, not with a KeyError when run
    with pytest.raises(ValueError, match="is not a valid ContactModel"):
        SimulationConfig(model, 1, 5, 0)


def test_config_takes_a_model_member():
    cfg = SimulationConfig(ContactModel.BROADCAST, 1, 5, 0)
    assert cfg.model is ContactModel.BROADCAST


# --- step ---------------------------------------------------------------------

def test_broadcast_saturates_complete_graph_in_one_step():
    g = gen_complete(25)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s = init_state(g, SimulationConfig("broadcast", 1 + seed % 25,
                                           5, seed=seed), rng)
        s = step(g, s, ContactModel.BROADCAST, rng)
        assert s.informed == frozenset(range(25))
        assert s.loop == 1


def test_step_no_edges_changes_nothing():
    g = Graph(5)
    for model in ContactModel:
        rng = np.random.default_rng(0)
        s = init_state(g, SimulationConfig(model, 2, 5, seed=3), rng)
        before = s.informed
        s = step(g, s, model, rng)
        assert s.informed == before
        assert s.loop == 1


def test_random_contact_forced_single_neighbor_certain_success():
    g = Graph(2, [(0, 1, 1.0)])
    rng = np.random.default_rng(0)
    cfg = SimulationConfig("random-contact", 1, 5, seed=0,
                           initial_vertices=(0,))
    s = init_state(g, cfg, rng)
    s = step(g, s, ContactModel.RANDOM_CONTACT, rng)
    assert s.informed == frozenset({0, 1})


def test_step_is_synchronous():
    # path 0-1-2 with certain edges: 2 must not learn in the same loop
    # in which 1 does under broadcast
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    rng = np.random.default_rng(0)
    cfg = SimulationConfig("broadcast", 1, 5, seed=0, initial_vertices=(0,))
    s = init_state(g, cfg, rng)
    s = step(g, s, ContactModel.BROADCAST, rng)
    assert s.informed == frozenset({0, 1})
    s = step(g, s, ContactModel.BROADCAST, rng)
    assert s.informed == frozenset({0, 1, 2})


def test_absorption_step_is_identity_on_informed():
    g = gen_random(10, 0.5, seed=1)
    rng = np.random.default_rng(0)
    s = init_state(g, SimulationConfig("broadcast", 10, 5, seed=0), rng)
    for model in ContactModel:
        nxt = step(g, s, model, rng)
        assert nxt.informed == s.informed
        assert nxt.loop == s.loop + 1


def test_zero_weight_edge_behaves_like_no_edge():
    base = Graph(3, [(0, 1, 1.0)])
    padded = Graph(3, [(0, 1, 1.0), (0, 2, 0.0), (1, 2, 0.0)])
    cfg = SimulationConfig("random-contact", 1, 30, seed=0,
                           initial_vertices=(0,))
    for seed in range(30):
        cfg_s = SimulationConfig("random-contact", 1, 30, seed=seed,
                                 initial_vertices=(0,))
        assert run(base, cfg_s).counts == run(padded, cfg_s).counts


# --- run ----------------------------------------------------------------------

def test_run_complete_broadcast_trajectory():
    g = gen_complete(100)
    rec = run(g, SimulationConfig("broadcast", 1, 10, seed=12))
    assert rec.counts == [1, 100]
    assert rec.saturation_loop() == 1


def test_run_empty_graph_constant_trajectory():
    g = Graph(30)
    rec = run(g, SimulationConfig("broadcast", 5, 10, seed=12))
    assert rec.counts == [5] * 11
    assert rec.saturation_loop() is None


def test_run_initial_equals_n_stops_at_loop_zero():
    g = gen_complete(8)
    rec = run(g, SimulationConfig("broadcast", 8, 10, seed=0))
    assert rec.counts == [8]
    assert rec.saturation_loop() == 0


def test_run_random_contact_saturates_random_graph():
    hits = 0
    for seed in range(50):
        g = gen_random(100, 0.5, seed=seed)
        rec = run(g, SimulationConfig("random-contact", 10, 1000, seed=seed))
        if rec.saturation_loop() is not None:
            hits += 1
    assert hits == 50


def test_run_monotone_and_deterministic():
    for seed in range(20):
        g = gen_stochastic(25, seed=seed)
        cfg = SimulationConfig("random-contact", 2, 40, seed=seed)
        a = run(g, cfg)
        b = run(g, cfg)
        assert a.counts == b.counts
        assert all(x <= y for x, y in zip(a.counts, a.counts[1:]))


def test_informed_never_escapes_component():
    g = Graph(6, [(0, 1, 1.0), (1, 2, 0.7), (3, 4, 1.0)])
    cfg = SimulationConfig("random-contact", 1, 50, seed=5,
                           initial_vertices=(0,))
    rec = run(g, cfg)
    assert rec.counts[-1] <= 3  # component {0,1,2}

    rng = np.random.default_rng(5)
    s = init_state(g, cfg, rng)
    for _ in range(50):
        s = step(g, s, ContactModel.RANDOM_CONTACT, rng)
    assert s.informed <= {0, 1, 2}


def test_stochastic_all_ones_matches_link_matrix_graph():
    # weight-1.00 probability matrix and 0/1 link matrix describe the
    # same graph, so trajectories agree seed-for-seed
    n = 12
    prob_text = "\n".join(
        " ".join("0.00" if i == j else "1.00" for j in range(n))
        for i in range(n)) + "\n"
    link_text = "\n".join(
        " ".join("0" if i == j else "1" for j in range(n))
        for i in range(n)) + "\n"
    ga, gb = import_matrix(prob_text), import_matrix(link_text)
    for model in ("broadcast", "random-contact"):
        for seed in range(25):
            cfg = SimulationConfig(model, 2, 20, seed=seed)
            assert run(ga, cfg).counts == run(gb, cfg).counts


def test_broadcast_equals_bfs_ball_on_unit_weight_graph():
    for seed in range(10):
        g = gen_random(30, 0.2, seed=seed)
        adj = ref_adjacency(g)
        cfg = SimulationConfig("broadcast", 2, 30, seed=seed)
        rng = np.random.default_rng(seed)
        s = init_state(g, cfg, rng)
        ball = set(s.informed)
        for _ in range(12):
            s = step(g, s, ContactModel.BROADCAST, rng)
            ball |= {j for i in ball for j in adj[i]}
            assert s.informed == ball


def test_trajectory_csv_format():
    g = gen_complete(3)
    rec = run(g, SimulationConfig("broadcast", 1, 5, seed=0))
    assert rec.to_csv() == "loop,informed_count\n0,1\n1,3\n"
    assert rec.first_loop_reaching(3) == 1
    assert rec.first_loop_reaching(4) is None


# --- stream contract: golden digests and properties ---------------------------
# The digests in run_digests.json were recorded from the loop-by-loop
# engine that called step once per loop. Any mismatch means a trajectory
# changed for a given seed, which breaks the reproducibility contract.

DIGESTS_PATH = Path(__file__).with_name("run_digests.json")
GOLDEN_FAMILIES = {
    "complete": lambda n, seed: gen_complete(n),
    "random": lambda n, seed: gen_random(n, 0.1, seed=seed),
    "stochastic": lambda n, seed: gen_stochastic(n, seed=seed),
    "scale-free": lambda n, seed: gen_scale_free(n, seed=seed),
}
GOLDEN_CASES = [
    (family, model, n, k, seed)
    for family in GOLDEN_FAMILIES
    for model in ("broadcast", "random-contact")
    for n in (1, 2, 50, 300, 600)
    for k in sorted({1, min(5, n)})
    for seed in (0, 1)
]
GOLDEN_MAX_LOOPS = 5000


def counts_digest(counts) -> str:
    return hashlib.sha256(
        np.asarray(counts, dtype=np.int64).tobytes()).hexdigest()


def golden_counts(family, model, n, k, seed):
    g = GOLDEN_FAMILIES[family](n, seed)
    return run(g, SimulationConfig(model, k, GOLDEN_MAX_LOOPS,
                                   seed=seed + 100)).counts


def golden_id(case) -> str:
    family, model, n, k, seed = case
    return f"{family}-{model}-n{n}-k{k}-s{seed}"


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=golden_id)
def test_run_matches_recorded_digest(case):
    want = json.loads(DIGESTS_PATH.read_text())[golden_id(case)]
    assert counts_digest(golden_counts(*case)) == want


@st.composite
def weighted_graphs(draw):
    """Small graphs with isolated vertices and zero-weight edges."""
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    weight = st.one_of(st.just(0.0), st.just(1.0),
                       st.floats(0.0, 1.0, allow_nan=False))
    return Graph(n, [(i, j, draw(weight)) for i, j in chosen])


@settings(max_examples=300, deadline=None)
@given(g=weighted_graphs(), data=st.data(),
       model=st.sampled_from(["broadcast", "random-contact"]),
       max_loops=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_run_matches_reference_property(g, data, model, max_loops, seed):
    k = data.draw(st.integers(1, g.n))
    pinned = data.draw(st.booleans())
    verts = (tuple(data.draw(st.permutations(range(g.n)))[:k])
             if pinned else None)
    cfg = SimulationConfig(model, k, max_loops, seed=seed,
                           initial_vertices=verts)
    assert run(g, cfg).counts == ref_run(g, model, k, max_loops, seed,
                                         initial_vertices=verts)


def step_counts(g, cfg):
    """Informed counts from repeated :func:`step` calls on one stream."""
    rng = np.random.default_rng(cfg.seed)
    s = init_state(g, cfg, rng)
    counts = [len(s.informed)]
    while counts[-1] < g.n and s.loop < cfg.max_loops:
        s = step(g, s, cfg.model, rng)
        counts.append(len(s.informed))
    return counts


# small caps put a block edge and a buffer refill every few loops; the
# default cap (None) keeps the plain model id
@pytest.mark.parametrize("model,block_uniforms", [
    pytest.param(model, cap, id=str(model) + (f"-cap{cap}" if cap else ""))
    for model in ContactModel for cap in (None, 1, 2, 7)])
def test_repeated_step_reproduces_run(model, block_uniforms, monkeypatch):
    if block_uniforms is not None:
        monkeypatch.setattr("diffusim.diffusion.BLOCK_UNIFORMS",
                            block_uniforms)
    # the last graph is large and sparse: many quiet loops per block
    graphs = [gen_scale_free(40, seed=3), gen_stochastic(30, seed=4),
              Graph(6, [(0, 1, 0.5), (1, 2, 0.0)]),
              gen_random(600, 0.004, seed=2)]
    for g in graphs:
        for seed in range(5):
            cfg = SimulationConfig(model, 1 + seed % 3, 400, seed=seed)
            assert step_counts(g, cfg) == run(g, cfg).counts, (g, seed)


def counted_builds(monkeypatch):
    """A list that gains the vertex count of each CSR built from now on."""
    builds = []
    build = Graph._build_adjacency
    monkeypatch.setattr(Graph, "_build_adjacency",
                        lambda self: builds.append(self.n) or build(self))
    return builds


def test_random_contact_weight_lookup_by_size_and_budget(monkeypatch):
    # beyond one loop, up to n * n = 2 * BLOCK_UNIFORMS (n = 128), a run
    # reads its weights from a table and searches no pair key; above that,
    # and for step's one-loop budget, it searches, and builds one CSR
    builds = counted_builds(monkeypatch)
    searched = []
    key_weights = Graph._key_weights

    def counted(self, keys, closed):
        searched.append(keys.size)
        return key_weights(self, keys, closed)

    monkeypatch.setattr(Graph, "_key_weights", counted)
    for n, table in [(128, True), (129, False)]:
        # an isolated vertex 5 and zero-weight edges
        g = zeroed(gen_random(n, 0.3, seed=n), n, 5, 40)
        for seed in range(3):
            searched.clear()
            cfg = SimulationConfig("random-contact", 2, 50, seed=seed)
            assert run(g, cfg).counts == \
                ref_run(g, "random-contact", 2, 50, seed), (n, seed)
            assert bool(searched) != table, (n, seed)
        assert builds == ([] if table else [n]), n
        builds.clear()
    g = gen_stochastic(100, seed=1)
    searched.clear()
    step(g, DiffusionState(frozenset({0, 1}), 0), "random-contact",
         np.random.default_rng(0))
    assert searched and builds == [100]


SMALL_CONTACT_GRAPHS = {
    "complete": lambda: gen_complete(128),
    "random": lambda: gen_random(100, 0.5, seed=1),
    "stochastic": lambda: gen_stochastic(100, seed=2),
    "scale-free": lambda: gen_scale_free(100, seed=3),
    # an isolated vertex 5 and zero-weight edges
    "zeroed": lambda: zeroed(gen_random(60, 0.3, seed=4), 4, 5, 40),
}


@pytest.mark.parametrize("make", SMALL_CONTACT_GRAPHS.values(),
                         ids=SMALL_CONTACT_GRAPHS.keys())
def test_small_random_contact_run_builds_no_csr(make, monkeypatch):
    # beyond one loop, n <= 128 reads only the graph's edges and degrees
    g = make()
    builds = counted_builds(monkeypatch)
    for seed, max_loops in [(0, 2), (1, 50), (2, 1000)]:
        k = 1 + seed
        cfg = SimulationConfig("random-contact", k, max_loops, seed=seed)
        assert run(g, cfg).counts == \
            ref_run(g, "random-contact", k, max_loops, seed), seed
    assert builds == [] and g._indptr is None


@pytest.mark.parametrize("family, edge_prob, want", [
    ("random", 0.5, []), ("stochastic", None, [100])])
def test_contact_ensemble_csr_builds(family, edge_prob, want, monkeypatch):
    # a stochastic ensemble builds one CSR: its pair pattern's
    builds = counted_builds(monkeypatch)
    run_ensemble(EnsembleConfig(
        SimulationConfig("random-contact", 10, 1000, 0),
        GeneratorSpec(family, 100, edge_prob, 0), 5))
    assert builds == want


def reweighted(g, seed):
    """g's edges with i.i.d. uniform weights."""
    u, v, _ = g.edge_arrays()
    return Graph(g.n, (u, v, np.random.default_rng(seed).random(u.size)))


@pytest.mark.parametrize("g", [
    reweighted(gen_scale_free(2000, seed=5), 1),
    reweighted(gen_random(1500, 0.0015, seed=6), 2),  # ~150 isolated
], ids=["scale-free-tree", "sparse-random"])
def test_broadcast_run_matches_step_at_scale(g):
    # low-weight edges keep a source acting for many loops while its
    # other neighbours, and the sources around it, drop out of the
    # acting set; the 6-loop budget stops the spread mid-way
    for seed, max_loops in [(0, 6), (1, 300), (2, 300)]:
        cfg = SimulationConfig("broadcast", 1 + seed, max_loops, seed=seed)
        assert run(g, cfg).counts == step_counts(g, cfg), seed


# 0-1-2-3 with chord 0-3, pendant 4 on 3, isolated 5
STREAM_GRAPH = Graph(6, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.2),
                         (3, 4, 1.0)])


STEP_DRAWS = [
    # broadcast: one uniform per edge from an informed to an uninformed
    # vertex: 0->1, 3->2, 3->4
    (ContactModel.BROADCAST, {0, 3, 5}, 3),
    (ContactModel.BROADCAST, set(range(6)), 0),
    # random-contact: two per informed vertex with an edge, saturated or not
    (ContactModel.RANDOM_CONTACT, {0, 3, 5}, 4),
    (ContactModel.RANDOM_CONTACT, set(range(6)), 10),
]


# step runs through the engine's blocks and refills, so small caps must
# not make it draw ahead; the default cap (None) keeps the plain id
@pytest.mark.parametrize("model,informed,draws,block_uniforms", [
    pytest.param(model, informed, draws, cap,
                 id=f"{model}-informed{i}-{draws}" + (f"-cap{cap}" if cap
                                                      else ""))
    for i, (model, informed, draws) in enumerate(STEP_DRAWS)
    for cap in (None, 1, 2, 7)])
def test_step_consumes_contract_count(model, informed, draws, block_uniforms,
                                      monkeypatch):
    if block_uniforms is not None:
        monkeypatch.setattr("diffusim.diffusion.BLOCK_UNIFORMS",
                            block_uniforms)
    rng = np.random.default_rng(11)
    ref = np.random.default_rng(11)
    ref.random(draws)
    state = step(STREAM_GRAPH, DiffusionState(frozenset(informed), 4),
                 model, rng)
    assert state.loop == 5 and state.informed >= informed
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("model", list(ContactModel), ids=str)
@pytest.mark.parametrize("bad", [-1, 6])
def test_step_rejects_vertex_id_outside_graph(model, bad):
    # a negative id must not wrap around to vertex n - 1
    state = DiffusionState(frozenset({0, bad}), 0)
    with pytest.raises(ValueError, match=f"vertex id {bad} outside"):
        step(STREAM_GRAPH, state, model, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"outside \[0, 6\)"):
        state.mask(6)


# --- exact laws: the Reed-Frost chain and the push protocol ------------------
# On a complete graph with one weight on every edge, the informed count of
# either contact model is a Markov chain with a closed-form kernel. The
# runs' per-loop mean and saturation loop are compared with the chain's.

def chain_law(kernel, k, loops):
    """Exact distribution of the informed count after each loop from k
    informed, as rows 0..loops, under a one-loop transition kernel."""
    dist = np.zeros((loops + 1, kernel.shape[0]))
    dist[0, k] = 1.0
    for t in range(loops):
        dist[t + 1] = dist[t] @ kernel
    return dist


def assert_runs_follow_law(g, model, k, dist, reps, seed):
    n, loops = g.n, dist.shape[0] - 1
    assert dist[-1, n] > 1 - 1e-12  # the runs saturate within the budget
    informed = np.arange(n + 1)
    mean = dist @ informed
    var = dist @ informed ** 2 - mean ** 2
    unsaturated = 1.0 - dist[:, n]  # P(T_sat > t)
    t_mean = unsaturated.sum()
    t_var = ((2 * np.arange(loops + 1) + 1) * unsaturated).sum() - t_mean ** 2

    counts = np.full((reps, loops + 1), n)
    for r in range(reps):
        c = run(g, SimulationConfig(model, k, loops,
                                    seed=seed * reps + r)).counts
        counts[r, :len(c)] = c
    # loops at which at least 1% of runs are still spreading; later means
    # sit at n with a variance too small to give a z-score
    live = np.flatnonzero((unsaturated > 0.01) & (var > 0))
    z = (counts.mean(axis=0) - mean)[live] / np.sqrt(var[live] / reps)
    assert live.size > 5 and np.abs(z).max() < 4, z
    t_sat = (counts < n).sum(axis=1)
    assert abs(t_sat.mean() - t_mean) / math.sqrt(t_var / reps) < 4


# Broadcast with weight p: each of the n - i uninformed vertices escapes
# all i sources with probability (1 - p)^i, so the number newly informed
# is Binomial(n - i, 1 - (1 - p)^i).

def reed_frost_kernel(n, p):
    kernel = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        q = 1.0 - (1.0 - p) ** i
        for j in range(n - i + 1):
            kernel[i, i + j] = \
                math.comb(n - i, j) * q ** j * (1.0 - q) ** (n - i - j)
    return kernel


@pytest.mark.parametrize("seed", [0, 1])
def test_broadcast_follows_reed_frost_chain(seed):
    n, p, reps, loops = 60, 0.02, 1500, 150
    dist = chain_law(reed_frost_kernel(n, p), 1, loops)
    g = Graph(n, [(i, j, p) for i in range(n) for j in range(i + 1, n)])
    assert_runs_follow_law(g, "broadcast", 1, dist, reps, seed)


# Random-contact with weight 1 is the synchronous push protocol (Frieze &
# Grimmett 1985; Pittel 1987). From i informed, each picks one of the other
# n - 1 vertices, so Binomial(i, (n - i) / (n - 1)) picks land on the
# n - i uninformed; each of those is uniform among them, and the number
# newly informed is the number of uninformed vertices hit: the occupancy
# distribution.

def push_kernel(n):
    kernel = np.zeros((n + 1, n + 1))
    kernel[n, n] = 1.0
    for i in range(1, n):
        m = n - i
        q = m / (n - 1)
        hit = np.arange(m + 1)
        occupancy = np.zeros(m + 1)  # vertices hit after b picks land
        occupancy[0] = 1.0
        for b in range(i + 1):
            kernel[i, i:] += \
                math.comb(i, b) * q ** b * (1.0 - q) ** (i - b) * occupancy
            occupancy = occupancy * hit / m + np.concatenate(
                ([0.0], occupancy[:-1] * (m - hit[:-1]) / m))
    return kernel


def test_push_chain_saturation_time():
    dist = chain_law(push_kernel(100), 1, 60)
    assert np.allclose(dist.sum(axis=1), 1.0)
    assert round((1.0 - dist[:, 100]).sum(), 2) == 12.30


@pytest.mark.parametrize("n, reps", [(100, 1000), (30, 1500)])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_contact_follows_push_chain(n, reps, seed):
    dist = chain_law(push_kernel(n), 1, 60)
    assert_runs_follow_law(gen_complete(n), "random-contact", 1, dist,
                           reps, seed)


# --- exact law on any small weighted graph: the subset chain -----------------
# For n <= 8 the informed set itself is a Markov chain on the 2^n subsets,
# whatever the weights, so a read of the wrong edge's weight, which a
# complete graph with one weight hides, changes the law. States are
# bitmasks: vertex v informed <=> bit v set. The kernel is built from the
# edge list alone, not from the CSR that the engine reads.

def subset_kernel(g, model):
    """(2^n, 2^n) one-loop transition matrix of the informed set."""
    n = g.n
    w = np.zeros((n, n))
    has_edge = np.zeros(n, dtype=bool)
    for u, v, p in g.edges():
        w[u, v] = w[v, u] = p
        has_edge[u] = has_edge[v] = True
    states = np.arange(1 << n)
    member = (states[:, None] >> np.arange(n)) & 1 == 1  # (state, vertex)
    kernel = np.eye(1 << n)

    def add(kernel, t):
        """``kernel`` with vertex t added to every set it reaches."""
        moved = kernel.copy()
        free = states[~member[:, t]]
        moved[:, free | (1 << t)] += moved[:, free]
        moved[:, free] = 0.0
        return moved

    if model == "broadcast":
        for t in range(n):
            # t, uninformed, joins with probability 1 - prod_s (1 - w_st)
            escape = np.prod(np.where(member, 1.0 - w[:, t], 1.0), axis=1)
            q = np.where(member[:, t], 0.0, 1.0 - escape)[:, None]
            kernel = kernel * (1.0 - q) + add(kernel, t) * q
        return kernel
    # fold the actors one at a time: actor i informs t, uninformed at the
    # start of the loop, with probability w_it / (n - 1)
    for i in np.flatnonzero(has_edge):
        p = np.where(member[:, [i]] & ~member, w[i] / (n - 1), 0.0)
        kernel = kernel * (1.0 - p.sum(axis=1, keepdims=True)) + \
            sum(add(kernel, t) * p[:, [t]] for t in range(n))
    return kernel


def chi_square_z(observed, expected):
    """Wilson-Hilferty z of Pearson's X^2, cells with an expected count
    below 5 pooled into one; an outcome the law forbids fails at once."""
    forbidden = expected < 1e-9
    assert observed[forbidden].sum() == 0, np.flatnonzero(observed * forbidden)
    small = expected < 5.0
    obs = np.append(observed[~small], observed[small & ~forbidden].sum())
    exp = np.append(expected[~small], expected[small & ~forbidden].sum())
    keep = exp > 0
    x2 = (((obs - exp) ** 2)[keep] / exp[keep]).sum()
    df = keep.sum() - 1
    assert df >= 1, df
    c = 2.0 / (9 * df)
    return ((x2 / df) ** (1 / 3) - (1 - c)) / math.sqrt(c)


def zeroed(g, seed, isolate, zeros):
    """g reweighted i.i.d. uniform, the edges of vertex ``isolate`` dropped
    (None: none) and the weight of ``zeros`` of the rest set to 0.0."""
    u, v, _ = g.edge_arrays()
    keep = (u != isolate) & (v != isolate)
    u, v = u[keep], v[keep]
    rng = np.random.default_rng(seed)
    w = 0.1 + 0.9 * rng.random(u.size)
    w[rng.choice(u.size, size=zeros, replace=False)] = 0.0
    return Graph(g.n, (u, v, w))


# each graph with a vertex of most edges, where the runs start; the
# stochastic graph's vertex 7 and the random graph's vertex 6 are isolated
CHAIN_GRAPHS = {
    "scale-free-tree": (zeroed(gen_scale_free(8, seed=3), 1, None, 1), 1),
    "stochastic": (zeroed(gen_stochastic(8, seed=4), 2, 7, 2), 0),
    "random": (zeroed(gen_random(8, 0.45, seed=5), 3, 6, 2), 7),
}


@pytest.fixture(scope="module")
def chain_kernels():
    return {(name, model): subset_kernel(g, model)
            for name, (g, _) in CHAIN_GRAPHS.items()
            for model in ("broadcast", "random-contact")}


def test_subset_kernel_is_stochastic(chain_kernels):
    for kernel in chain_kernels.values():
        assert (kernel >= -1e-15).all()
        assert np.allclose(kernel.sum(axis=1), 1.0)
    # on a complete graph with one weight the informed count follows the
    # Reed-Frost and push chains
    size = np.array([bin(s).count("1") for s in range(1 << 6)])
    lump = (size[:, None] == np.arange(7)).astype(float)
    for model, law in [("broadcast", reed_frost_kernel(6, 0.3)),
                       ("random-contact", push_kernel(6))]:
        g = Graph(6, [(i, j, 0.3 if model == "broadcast" else 1.0)
                      for i in range(6) for j in range(i + 1, 6)])
        assert np.allclose((subset_kernel(g, model) @ lump)[1:],
                           law[size][1:])


# random-contact runs at n = 8 read weights from the n x n table at the
# default cap (None, plain id) and by pair-key search at cap 7, where the
# table's 64 cells exceed twice the cap; broadcast reads no table
CHAIN_CAPS = [
    pytest.param(model, cap, id=model + (f"-cap{cap}" if cap else ""))
    for model, cap in [("broadcast", None), ("random-contact", None),
                       ("random-contact", 7)]]


@pytest.mark.parametrize("model,cap", CHAIN_CAPS)
@pytest.mark.parametrize("name", list(CHAIN_GRAPHS))
def test_run_ensemble_follows_subset_chain(name, model, cap, chain_kernels,
                                           monkeypatch):
    if cap is not None:
        monkeypatch.setattr("diffusim.diffusion.BLOCK_UNIFORMS", cap)
    (g, source), reps, loops = CHAIN_GRAPHS[name], 1000, 20
    # fixed-graph mode builds the spec's graph once: make it this one
    monkeypatch.setattr(GeneratorSpec, "build", lambda spec: g)
    summary = run_ensemble(EnsembleConfig(
        SimulationConfig(model, 1, loops, seed=7, initial_vertices=(source,)),
        GeneratorSpec("stochastic", g.n, seed=0), reps,
        regenerate_graph=False)).extended(loops)
    size = np.array([bin(s).count("1") for s in range(1 << g.n)])
    dist = np.zeros((loops + 1, 1 << g.n))
    dist[0, 1 << source] = 1.0
    for t in range(loops):
        dist[t + 1] = dist[t] @ chain_kernels[name, model]
    mean = dist @ size
    var = dist @ size ** 2 - mean ** 2
    live = np.flatnonzero(var > 0.05)
    z = (summary.mean - mean)[live] / np.sqrt(var[live] / reps)
    assert live.size >= 2 and np.abs(z).max() < 4, z


@pytest.mark.parametrize("model,cap", CHAIN_CAPS)
@pytest.mark.parametrize("name", list(CHAIN_GRAPHS))
def test_step_follows_subset_chain(name, model, cap, chain_kernels,
                                   monkeypatch):
    if cap is not None:
        monkeypatch.setattr("diffusim.diffusion.BLOCK_UNIFORMS", cap)
    (g, source), reps = CHAIN_GRAPHS[name], 1500
    kernel = chain_kernels[name, model]
    # the sets after one and two step loops, then after a two-loop budget
    # of run's engine on a stream of its own: step, a one-loop budget,
    # always searches, while the two-loop budget reads what the cap selects
    seen = np.zeros((3, 1 << g.n))
    start = DiffusionState(frozenset({source}), 0)
    for r in range(reps):
        rng = np.random.default_rng([11, r])
        state = start
        for t in range(2):
            state = step(g, state, model, rng)
            seen[t, sum(1 << v for v in state.informed)] += 1
        mask = start.mask(g.n)
        _SPREAD[ContactModel(model)](g, mask, [1], 2,
                                     np.random.default_rng([12, r]))
        seen[2, sum(1 << v for v in np.flatnonzero(mask).tolist())] += 1
    one = kernel[1 << source]
    for t, law in enumerate((one, one @ kernel, one @ kernel)):
        z = chi_square_z(seen[t], reps * law)
        assert z < 4, (t, z)
