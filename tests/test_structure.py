"""Structural analyses and matrix/JSON IO against recorded digests and
against the per-vertex and per-cell loop implementations they replaced.

The digests in structure_digests.json were recorded from those loop
implementations. Any mismatch means an output changed: a different
graph, different text, or a different float repr.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import diffusim.analysis as analysis
import diffusim.matrixio as matrixio
from diffusim import (
    Graph,
    MatrixFormatError,
    bfs_distances,
    characteristic_path_length,
    clustering_coefficient,
    connected_components,
    export_link_matrix,
    export_probability_matrix,
    gen_complete,
    gen_random,
    gen_scale_free,
    gen_stochastic,
    graph_from_json,
    graph_to_json,
    import_matrix,
)


# --- oracles: the loop implementations the numpy code replaced --------------

def ref_bfs_distances(g, source):
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        chunks = [g.neighbors(v) for v in frontier.tolist()]
        nxt = np.unique(np.concatenate(chunks))
        nxt = nxt[dist[nxt] < 0]
        d += 1
        dist[nxt] = d
        frontier = nxt
    return dist


def ref_connected_components(g):
    seen = np.zeros(g.n, dtype=bool)
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        members = np.nonzero(ref_bfs_distances(g, s) >= 0)[0]
        seen[members] = True
        comps.append(members)
    comps.sort(key=lambda m: (-m.size, int(m[0]) if m.size else 0))
    return comps


def ref_clustering(g):
    neighbor_sets = [set() for _ in range(g.n)]
    for u, v, _w in g.edges():
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    total = 0.0
    for v in range(g.n):
        nbrs = neighbor_sets[v]
        d = len(nbrs)
        if d < 2:
            continue
        links = sum(len(neighbor_sets[u] & nbrs) for u in nbrs) // 2
        total += links / (d * (d - 1) / 2)
    return total / g.n


def ref_path_length(g):
    comps = ref_connected_components(g)
    members = comps[0]
    m = members.size
    if m < 2:
        return float("nan"), len(comps) == 1, m
    total = 0
    for s in members.tolist():
        total += int(ref_bfs_distances(g, s)[members].sum())
    return total / (m * (m - 1)), len(comps) == 1, m


def ref_export_link(g):
    rows = [["0"] * g.n for _ in range(g.n)]
    for u, v, _w in g.edges():
        rows[u][v] = "1"
        rows[v][u] = "1"
    return "\n".join(" ".join(r) for r in rows) + "\n"


def ref_export_probability(g):
    rows = [["0.00"] * g.n for _ in range(g.n)]
    for u, v, weight in g.edges():
        cell = f"{weight:.2f}"
        rows[u][v] = cell
        rows[v][u] = cell
    return "\n".join(" ".join(r) for r in rows) + "\n"


def ref_graph_to_json(g):
    return json.dumps({"n": g.n, "edges": [[u, v, w] for u, v, w in g.edges()]})


def ref_import_matrix(text):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.replace(",", " ").split()
        if not parts:
            continue
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise MatrixFormatError(f"row {lineno}: non-numeric entry") from exc
    n = len(rows)
    if n == 0:
        raise MatrixFormatError("empty matrix text")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MatrixFormatError(
                f"row {i}: {len(row)} entries, expected {n} (matrix not square)")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = rows[i][j], rows[j][i]
            if not (0.0 <= a <= 1.0):
                raise MatrixFormatError(
                    f"entry ({i}, {j}) = {a} outside [0, 1]")
            if not (0.0 <= b <= 1.0):
                raise MatrixFormatError(
                    f"entry ({j}, {i}) = {b} outside [0, 1]")
            if abs(a - b) > 1e-9:
                raise MatrixFormatError(
                    f"asymmetric entries ({i}, {j}) = {a} vs ({j}, {i}) = {b}")
            if a > 0.0:
                edges.append((i, j, a))
        if not (0.0 <= rows[i][i] <= 1.0):
            raise MatrixFormatError(
                f"entry ({i}, {i}) = {rows[i][i]} outside [0, 1]")
    return Graph(n, edges)


# --- recorded digests ---------------------------------------------------------

DIGESTS_PATH = Path(__file__).with_name("structure_digests.json")
FAMILIES = {
    "complete": lambda n, seed: gen_complete(n),
    "random": lambda n, seed: gen_random(n, 0.1, seed=seed),
    "stochastic": lambda n, seed: gen_stochastic(n, seed=seed),
    "scale-free": lambda n, seed: gen_scale_free(n, seed=seed),
}
CASES = [(family, n, seed) for family in FAMILIES for n in (1, 2, 50, 300)
         for seed in (0, 1)]


def case_id(case) -> str:
    family, n, seed = case
    return f"{family}-n{n}-s{seed}"


def edges_text(g) -> str:
    eu, ev, ew = g.edge_arrays()
    return json.dumps([g.n, eu.tolist(), ev.tolist(), ew.tolist()])


def structure_outputs(g) -> dict[str, str]:
    """Every structure and IO output of g, as text."""
    out = {}
    if (g.edge_arrays()[2] == 1.0).all():
        out["link"] = export_link_matrix(g)
        out["link_import"] = edges_text(import_matrix(out["link"]))
    out["prob"] = export_probability_matrix(g)
    out["prob_import"] = edges_text(import_matrix(out["prob"]))
    out["json"] = graph_to_json(g)
    out["json_import"] = edges_text(graph_from_json(out["json"]))
    out["bfs0"] = json.dumps(bfs_distances(g, 0).tolist())
    out["components"] = json.dumps(
        [c.tolist() for c in connected_components(g)])
    out["clustering"] = repr(clustering_coefficient(g))
    if g.n >= 2:
        r = characteristic_path_length(g)
        out["path_length"] = repr((r.value, r.connected, r.component_size))
    return out


def structure_digests(case) -> dict[str, str]:
    family, n, seed = case
    return {k: hashlib.sha256(v.encode()).hexdigest()
            for k, v in structure_outputs(FAMILIES[family](n, seed)).items()}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_structure_matches_recorded_digests(case):
    want = json.loads(DIGESTS_PATH.read_text())[case_id(case)]
    assert structure_digests(case) == want


# --- properties against the oracles -------------------------------------------

@st.composite
def sparse_graphs(draw):
    """Small graphs with isolated vertices, several components and
    zero-weight edges."""
    n = draw(st.integers(1, 24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=3 * n)) if pairs else []
    weight = st.one_of(st.just(0.0), st.just(1.0),
                       st.floats(0.0, 1.0, allow_nan=False))
    return Graph(n, [(i, j, draw(weight)) for i, j in chosen])


def same_components(got, want) -> bool:
    return [c.tolist() for c in got] == [c.tolist() for c in want]


@settings(max_examples=300, deadline=None)
@given(g=sparse_graphs(), data=st.data())
def test_bfs_and_components_match_reference(g, data):
    source = data.draw(st.integers(0, g.n - 1))
    assert bfs_distances(g, source).tolist() == \
        ref_bfs_distances(g, source).tolist()
    assert same_components(connected_components(g),
                           ref_connected_components(g))


@settings(max_examples=300, deadline=None)
@given(g=sparse_graphs())
def test_clustering_and_path_length_match_reference(g):
    assert repr(clustering_coefficient(g)) == repr(ref_clustering(g))
    if g.n >= 2:
        r = characteristic_path_length(g)
        assert repr((r.value, r.connected, r.component_size)) == \
            repr(ref_path_length(g))


@settings(max_examples=300, deadline=None)
@given(g=sparse_graphs())
def test_matrix_and_json_text_match_reference(g):
    unit = Graph(g.n, [(u, v, 1.0) for u, v, _w in g.edges()])
    assert export_link_matrix(unit) == ref_export_link(unit)
    assert graph_to_json(g) == ref_graph_to_json(g)
    assert export_probability_matrix(g) == ref_export_probability(g)
    for text in (export_link_matrix(unit), export_probability_matrix(g)):
        assert import_matrix(text) == ref_import_matrix(text)


JSON_WEIGHTS = [0.0, -0.0, 5e-324, 1e-05, 0.1, 1.0]


# no shrink phase: each example renders up to 16k edges, and shrinking a
# failing one takes minutes
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(size=st.sampled_from([0, 1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1]),
       head=st.lists(st.sampled_from(JSON_WEIGHTS) | st.floats(0.0, 1.0),
                     max_size=20),
       seed=st.integers(0, 2 ** 32 - 1))
def test_json_dump_matches_reference_across_blocks(size, head, seed):
    # a path, so both endpoints vary, with edge counts on each side of a
    # block boundary; special weights lead and recur among uniform ones
    rng = np.random.default_rng(seed)
    w = rng.random(size)
    w[rng.integers(0, size, size // 8)] = rng.choice(JSON_WEIGHTS, size // 8)
    w[:len(head)] = head[:size]
    g = Graph(size + 1, (np.arange(size), np.arange(1, size + 1), w))
    assert graph_to_json(g) == ref_graph_to_json(g)


def star(weights) -> Graph:
    """Vertex 0 joined to vertices 1..len(weights) with these weights."""
    m = len(weights)
    return Graph(m + 1, (np.zeros(m, dtype=np.int64), np.arange(1, m + 1),
                         np.array(weights, dtype=np.float64)))


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0), max_size=40))
def test_probability_matrix_matches_reference(weights):
    assert export_probability_matrix(star(weights)) == \
        ref_export_probability(star(weights))


def test_probability_matrix_rounds_ties_like_format():
    # exact binary ties such as 0.125 round half to even; other stored
    # values near (k + 0.5) / 100, on either side, round by their exact
    # binary value
    weights = [0.0, 1.0, 0.125, 0.375, 0.625, 0.875]
    for k in range(100):
        tie = (k + 0.5) / 100
        weights += [np.nextafter(tie, 0.0), tie, np.nextafter(tie, 1.0)]
    assert export_probability_matrix(star(weights)) == \
        ref_export_probability(star(weights))
    for n in (0, 1):
        assert export_probability_matrix(Graph(n)) == \
            ref_export_probability(Graph(n))


@pytest.mark.parametrize("sources", [1, 7])
def test_path_length_same_in_small_chunks(monkeypatch, sources):
    graphs = [gen_scale_free(60, seed=2), gen_random(40, 0.08, seed=5),
              gen_complete(12), Graph(9, [(0, 1, 1.0), (1, 2, 0.0),
                                          (4, 5, 1.0)])]
    for g in graphs:
        want = repr(ref_path_length(g))
        chunks = []
        levels = analysis._bfs_levels

        def spy(g_, claim, keys):
            chunks.append(keys.size)
            return levels(g_, claim, keys)

        monkeypatch.setattr(analysis, "_bfs_levels", spy)
        monkeypatch.setattr(analysis, "PATH_CHUNK_CELLS",
                            sources * (g.n + 2 * g.edge_count))
        r = characteristic_path_length(g)
        monkeypatch.undo()
        assert repr((r.value, r.connected, r.component_size)) == want
        size = ref_path_length(g)[2]
        assert chunks == [sources] * (size // sources) + \
            ([size % sources] if size % sources else [])


BAD_CELLS = ["-0.5", "1.5", "nan", "inf", "-inf", "x", "0x1", "1e400",
             "0.25", "1_0", "１"]


@st.composite
def matrix_texts(draw):
    """Symmetric matrices in [0, 1], then several cells corrupted at once:
    out of range, NaN, non-numeric or asymmetric."""
    n = draw(st.integers(1, 7))
    values = st.sampled_from([0.0, 1.0, 0.5, 0.005, 0.123456789, 1e-12])
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(values)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(values)
    cells = [[repr(x) for x in row] for row in m]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        cells[i][j] = draw(st.sampled_from(BAD_CELLS))
    sep = draw(st.sampled_from([" ", ",", " , ", "\t"]))
    lines = [sep.join(row) for row in cells]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, n)), "")
    if n > 1 and draw(st.integers(0, 9)) == 0:
        lines[draw(st.integers(0, n - 1))] += sep + "0"
    return "\n".join(lines) + "\n"


def import_outcome(fn, text):
    try:
        return edges_text(fn(text))
    except MatrixFormatError as exc:
        return f"error: {exc}"


@settings(max_examples=500, deadline=None)
@given(text=matrix_texts())
def test_import_matrix_matches_reference(text):
    assert import_outcome(import_matrix, text) == \
        import_outcome(ref_import_matrix, text)


SCANNED_TEXTS = [
    "0 1_0\n1_0 0\n",              # float() reads 10.0, loadtxt refuses
    "0 \uff11\n\uff11 0\n",        # a fullwidth 1: float() only
    "0 1\n1\n",                    # ragged
    "0 x\nx 0\n",                  # non-numeric
    "0 1 0\n1 0 0\n",              # 2 x 3
]


def test_import_matrix_scans_rows_only_where_loadtxt_cannot(monkeypatch):
    # the row scan runs on exactly the texts numpy's reader refuses or
    # reads as non-square; either way the outcome is the oracle's
    scans = []
    scan = matrixio._scan_rows

    def spy(spaced):
        scans.append(spaced)
        return scan(spaced)

    monkeypatch.setattr(matrixio, "_scan_rows", spy)
    read = ["0,1,1\n1,0,0\n1,0,0\n"]
    for family in FAMILIES:
        for n in (1, 2, 50):
            g = FAMILIES[family](n, 0)
            read.append(export_probability_matrix(g))
            if family != "stochastic":  # only unit weights have a link matrix
                read.append(export_link_matrix(g))
    for text in read:
        assert import_outcome(import_matrix, text) == \
            import_outcome(ref_import_matrix, text)
    assert scans == []
    for text in SCANNED_TEXTS:
        assert import_outcome(import_matrix, text) == \
            import_outcome(ref_import_matrix, text)
        assert len(scans) == 1
        scans.clear()
    with pytest.raises(MatrixFormatError) as exc:
        import_matrix(SCANNED_TEXTS[-1])
    assert str(exc.value) == "row 0: 3 entries, expected 2 (matrix not square)"
