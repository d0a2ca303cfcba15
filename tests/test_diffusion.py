from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusim import (
    ContactModel,
    Graph,
    SimulationConfig,
    gen_complete,
    gen_random,
    gen_scale_free,
    gen_stochastic,
    import_matrix,
    init_state,
    run,
    step,
)


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


@pytest.mark.parametrize("model", list(ContactModel))
def test_repeated_step_reproduces_run(model):
    # the last graph is large and sparse: many quiet loops per block
    graphs = [gen_scale_free(40, seed=3), gen_stochastic(30, seed=4),
              Graph(6, [(0, 1, 0.5), (1, 2, 0.0)]),
              gen_random(600, 0.004, seed=2)]
    for g in graphs:
        for seed in range(5):
            cfg = SimulationConfig(model, 1 + seed % 3, 400, seed=seed)
            rng = np.random.default_rng(seed)
            s = init_state(g, cfg, rng)
            counts = [len(s.informed)]
            while counts[-1] < g.n and s.loop < cfg.max_loops:
                s = step(g, s, model, rng)
                counts.append(len(s.informed))
            assert counts == run(g, cfg).counts, (g, seed)
