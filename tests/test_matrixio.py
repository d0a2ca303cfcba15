from __future__ import annotations

import gc
import warnings
from contextlib import suppress

import numpy as np
import pytest

from diffusim import (
    Graph,
    MatrixFormatError,
    export_link_matrix,
    export_probability_matrix,
    gen_random,
    gen_stochastic,
    graph_from_json,
    graph_to_json,
    import_matrix,
)


def test_link_matrix_two_vertices_one_edge():
    g = Graph(2, [(0, 1, 1.0)])
    assert export_link_matrix(g) == "0 1\n1 0\n"


def test_link_matrix_empty_graph():
    assert export_link_matrix(Graph(2)) == "0 0\n0 0\n"


def test_link_matrix_rejects_fractional_weights():
    g = Graph(2, [(0, 1, 0.5)])
    with pytest.raises(ValueError, match="1.0"):
        export_link_matrix(g)


def test_link_matrix_is_symmetric_for_random_graph():
    g = gen_random(20, 0.5, seed=4)
    rows = [r.split() for r in export_link_matrix(g).splitlines()]
    for i in range(20):
        assert rows[i][i] == "0"
        for j in range(20):
            assert rows[i][j] == rows[j][i]


def test_probability_matrix_single_weighted_edge():
    g = Graph(3, [(0, 1, 0.56)])
    rows = export_probability_matrix(g).splitlines()
    assert rows[0].split() == ["0.00", "0.56", "0.00"]
    assert rows[1].split() == ["0.56", "0.00", "0.00"]
    assert rows[2].split() == ["0.00", "0.00", "0.00"]


def test_probability_matrix_empty_graph():
    assert export_probability_matrix(Graph(2)) == "0.00 0.00\n0.00 0.00\n"


def test_import_ignores_diagonal():
    g = import_matrix("1 0\n0 1\n")
    assert g.n == 2
    assert g.edge_count == 0


def test_import_link_matrix_round_trip_exact():
    g = gen_random(30, 0.4, seed=9)
    assert import_matrix(export_link_matrix(g)) == g


def test_probability_round_trip_quantizes_to_half_cent():
    g = gen_stochastic(25, seed=3)
    back = import_matrix(export_probability_matrix(g))
    assert back.n == g.n
    for u, v, w in g.edges():
        if round(w, 2) >= 0.005:
            assert abs(back.weight(u, v) - w) <= 0.005
        else:
            # weights that print as 0.00 drop out of the edge set
            assert back.weight(u, v) == 0.0


def test_probability_round_trip_exact_on_two_decimal_weights():
    rng = np.random.default_rng(12)
    edges = []
    for i in range(12):
        for j in range(i + 1, 12):
            if rng.random() < 0.5:
                edges.append((i, j, round(float(rng.integers(1, 100)) / 100, 2)))
    g = Graph(12, edges)
    assert import_matrix(export_probability_matrix(g)) == g


def test_import_rejects_asymmetric():
    with pytest.raises(MatrixFormatError, match=r"\(0, 1\)"):
        import_matrix("0 0.5\n0.4 0\n")


def test_import_rejects_non_square():
    with pytest.raises(MatrixFormatError, match="not square"):
        import_matrix("0 1 0\n1 0\n")


def test_import_rejects_out_of_range():
    with pytest.raises(MatrixFormatError, match="outside"):
        import_matrix("0 1.5\n1.5 0\n")


def test_import_rejects_nan_entries():
    with pytest.raises(MatrixFormatError, match="outside"):
        import_matrix("0 nan\nnan 0\n")
    with pytest.raises(MatrixFormatError, match="outside"):
        import_matrix("nan 0.5\n0.5 0\n")


@pytest.mark.parametrize("text,msg", [
    # asymmetry in (0, 1) is met before (2, 0), which is out of range
    ("0 0.5 0\n0.4 0 0\n1.5 0 0\n",
     "asymmetric entries (0, 1) = 0.5 vs (1, 0) = 0.4"),
    # (1, 0) out of range is met before the asymmetry in (0, 2)
    ("0 0.5 0.5\n1.5 0 0\n0.4 0 0\n", "entry (1, 0) = 1.5 outside [0, 1]"),
    # within a pair, the lower cell's range check precedes symmetry
    ("0 0.5\n-1 0\n", "entry (1, 0) = -1.0 outside [0, 1]"),
    # a bad diagonal ends its row, so it beats every later row
    ("2 0 0\n0 0 1.5\n0 1.5 0\n", "entry (0, 0) = 2.0 outside [0, 1]"),
    # but not a bad cell later in its own row
    ("2 nan\nnan 0\n", "entry (0, 1) = nan outside [0, 1]"),
    ("0 0 0\n0 9 0\n0 0.3 0\n",
     "asymmetric entries (1, 2) = 0.0 vs (2, 1) = 0.3"),
])
def test_import_names_first_violation_in_scan_order(text, msg):
    with pytest.raises(MatrixFormatError) as exc:
        import_matrix(text)
    assert str(exc.value) == msg


def test_import_rejects_non_numeric():
    with pytest.raises(MatrixFormatError, match="non-numeric"):
        import_matrix("0 x\nx 0\n")


def test_import_rejects_empty():
    with pytest.raises(MatrixFormatError, match="empty"):
        import_matrix("\n\n")


@pytest.mark.parametrize("text", ["\n\n", " \t\n", ",,\n"])
def test_import_rejects_blank_text_without_warning(text):
    # np.loadtxt warns on input with no data; blank text never reaches it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFormatError, match="empty matrix text"):
            import_matrix(text)


def test_import_accepts_commas():
    g = import_matrix("0,1\n1,0\n")
    assert g.edge_count == 1 and g.weight(0, 1) == 1.0


def test_json_round_trip():
    g = gen_stochastic(15, seed=6)
    assert graph_from_json(graph_to_json(g)) == g


def test_json_shape():
    g = Graph(3, [(0, 2, 0.25)])
    assert graph_to_json(g) == '{"n": 3, "edges": [[0, 2, 0.25]]}'


def test_json_rejects_malformed():
    with pytest.raises(MatrixFormatError):
        graph_from_json("{not json")
    with pytest.raises(MatrixFormatError):
        graph_from_json('{"edges": []}')
    with pytest.raises(MatrixFormatError):
        graph_from_json('{"n": 2, "edges": [[0, 0, 1.0]]}')


@pytest.fixture
def gc_state():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", [
    graph_to_json(gen_stochastic(15, seed=6)), "{not json",
    '{"n": 2, "edges": [[0, 0, 1.0]]}'])
def test_json_load_leaves_collector_as_found(gc_state, enabled, text):
    # the collector is paused for the parse and left as found, whether
    # the dump loads, is not JSON or is refused by Graph
    if enabled:
        gc.enable()
    else:
        gc.disable()
    with suppress(MatrixFormatError):
        graph_from_json(text)
    assert gc.isenabled() is enabled


def test_json_rejects_nan_weight():
    with pytest.raises(MatrixFormatError, match="weights"):
        graph_from_json('{"n": 2, "edges": [[0, 1, NaN]]}')


@pytest.mark.parametrize("text", [
    '{"n": 3, "edges": [[0, 1.7, 0.5]]}',
    '{"n": 3, "edges": [[0.5, 2, 0.5]]}',
    '{"n": 2.9, "edges": []}',
    '{"n": Infinity, "edges": []}',
    '{"n": NaN, "edges": []}',
    '{"n": 3, "edges": [[0, "2", 0.5]]}',
    '{"n": 3, "edges": [[0, 99999999999999999999, 0.5]]}',
    '{"n": 3, "edges": [[0, 1, 0.5], [1, 2]]}',
    '{"n": 3, "edges": [[0, 1, 0.5], [1, 2, 0.5, 7]]}',
    '{"n": 3, "edges": [[0, 1, 0.5, 7]]}',
    '{"n": 3, "edges": [0, 1, 0.5]}',
    '{"n": 3, "edges": 5}',
    '{"n": 3, "edges": [[0, 2, "0.5"]]}',
    '{"n": 3, "edges": [[[0, 1], [1, 2], [0.5, 0.5]]]}',
    '{"n": true, "edges": []}',
    '{"n": 3, "edges": [[true, 2, 0.5]]}',
    '{"n": 3, "edges": [5]}',
])
def test_json_rejects_non_integral_or_malformed(text):
    with pytest.raises(MatrixFormatError):
        graph_from_json(text)


def test_json_accepts_integral_floats():
    g = graph_from_json('{"n": 3.0, "edges": [[0, 2.0, 0.5], [1.0, 2, 1]]}')
    assert g == Graph(3, [(0, 2, 0.5), (1, 2, 1.0)])


def test_json_vertex_ids_are_exact_beyond_float64():
    # 2**53 + 1 has no float64; a float elsewhere in the column must not
    # round it onto 2**53
    big = 2 ** 53
    text = (f'{{"n": {2 ** 60}, "edges": '
            f'[[0, 1.0, 0.5], [{big}, {big + 1}, 0.25]]}}')
    u, v, w = graph_from_json(text).edge_arrays()
    assert u.tolist() == [0, big] and v.tolist() == [1, big + 1]
    assert w.tolist() == [0.5, 0.25]


@pytest.mark.parametrize("g", [
    Graph(0), Graph(4), Graph(5, [(3, 4, 0.0), (0, 1, 1e-300), (1, 3, 1.0)]),
])
def test_json_dump_loads_equal_graph(g):
    assert graph_from_json(graph_to_json(g)) == g
