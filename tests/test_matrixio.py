from __future__ import annotations

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


def test_json_rejects_nan_weight():
    with pytest.raises(MatrixFormatError, match="weights"):
        graph_from_json('{"n": 2, "edges": [[0, 1, NaN]]}')
