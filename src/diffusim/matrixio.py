"""Text-matrix and JSON serialization for graphs.

Two text formats are pinned:

* link matrix: n rows of n space-separated 0/1 entries, entry (i, j) is 1
  iff edge {i, j} exists. Only valid for graphs whose weights are all 1.0.
* probability matrix: n rows of n space-separated entries with exactly two
  decimals; entry (i, j) is the weight of {i, j}, 0.00 when absent.

Both emit 0 on the diagonal, and the diagonal is ignored on import, so a
round-trip is exact for link matrices and exact up to the two-decimal
quantization for probability matrices (weights below 0.005 round to 0.00
and the edge is dropped).

Import reads a text with numpy's C reader (``np.loadtxt``), which for every
entry it accepts returns the value Python's ``float()`` gives. A text it
refuses, or reads as a non-square array, goes to a row scan that converts
each entry with ``float()``: that scan accepts what only ``float()`` does,
such as ``1_0`` and non-ASCII digits, and otherwise names the first
non-numeric or wrong-length row.

The JSON dump is ``{"n": <int>, "edges": [[u, v, w], ...]}`` with u < v
and edges sorted lexicographically.
"""

from __future__ import annotations

import gc
import json

import numpy as np

from .graph import Graph

__all__ = [
    "MatrixFormatError",
    "export_link_matrix",
    "export_probability_matrix",
    "import_matrix",
    "graph_to_json",
    "graph_from_json",
]

SYMMETRY_TOL = 1e-9
# edges rendered per block of graph_to_json; rendering all edges at once
# holds every edge's text and values together and raises peak memory
JSON_BLOCK_EDGES = 1 << 14


class MatrixFormatError(ValueError):
    """Raised when matrix text cannot be parsed into a valid graph."""


def _render_matrix(g: Graph, table: bytes, width: int, k) -> str:
    """Rows of ``width``-byte cells, each then a space or newline: entry k
    of ``table`` for an edge whose index in ``k`` is k, entry 0 elsewhere."""
    if g.n == 0:
        return "\n"
    u, v, _ = g.edge_arrays()
    index = np.zeros((g.n, g.n), dtype=np.uint8)
    index[u, v] = index[v, u] = k
    cells = np.full((g.n, g.n, width + 1), ord(" "), dtype=np.uint8)
    cells[..., :width] = np.frombuffer(table, "u1").reshape(-1, width)[index]
    cells[:, -1, width] = ord("\n")
    return cells.tobytes().decode()


def export_link_matrix(g: Graph) -> str:
    """Render g as a 0/1 link matrix; requires every weight to be 1.0."""
    if not (g.edge_arrays()[2] == 1.0).all():
        raise ValueError("link matrix requires all edge weights exactly 1.0")
    return _render_matrix(g, b"01", 1, 1)


def export_probability_matrix(g: Graph) -> str:
    """Render g as a probability matrix with two-decimal entries."""
    w = g.edge_arrays()[2]
    # entry k of the table is k hundredths, "0.00" to "1.00". rint(100 w)
    # rounds as format(w, ".2f") does except near a tie, where the exact
    # binary value of w decides; format settles those few weights.
    k = np.rint(w * 100).astype(np.uint8)
    tie = np.flatnonzero(np.abs(w * 100 % 1 - 0.5) < 1e-6)
    k[tie] = [int(format(w[i], ".2f").replace(".", "")) for i in tie]
    table = b"".join(b"%d.%02d" % divmod(i, 100) for i in range(101))
    return _render_matrix(g, table, 4, k)


def import_matrix(text: str) -> Graph:
    """Parse a link or probability matrix back into a Graph.

    Accepts whitespace- or comma-separated entries. The matrix must be
    square, symmetric within 1e-9 and have entries in [0, 1]; the
    diagonal is ignored. Every strictly positive off-diagonal entry
    becomes an edge (the upper-triangle value is used as the weight).
    """
    spaced = text.replace(",", " ")
    # strip(), not split(): split() would build one str per entry
    if not spaced.strip():
        raise MatrixFormatError("empty matrix text")
    try:
        m = np.loadtxt(spaced.splitlines(), dtype=np.float64, comments=None,
                       ndmin=2)
    except ValueError:
        m = None
    if m is None or m.shape[0] != m.shape[1]:
        m = _scan_rows(spaced)
    # written so that NaN, which fails every comparison, is out of range
    bad = ~((m >= 0.0) & (m <= 1.0))
    with np.errstate(invalid="ignore"):  # inf - inf; such cells are bad
        asym = np.abs(m - m.T) > SYMMETRY_TOL
    if bad.any() or asym.any():
        _raise_first_bad_cell(m, bad, asym)
    u, v = np.nonzero(np.triu(m, 1) > 0.0)
    return Graph(len(m), (u, v, m[u, v]))


def _scan_rows(spaced: str) -> np.ndarray:
    """Parse space-separated rows entry by entry with ``float()``; raise the
    first non-numeric row or the first row of the wrong length."""
    rows = []
    for lineno, line in enumerate(spaced.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            # float() semantics per entry, as numpy converts str objects
            rows.append(np.array(parts, dtype=np.float64))
        except ValueError as exc:
            raise MatrixFormatError(f"row {lineno}: non-numeric entry") from exc
    n = len(rows)
    for i, row in enumerate(rows):
        if row.size != n:
            raise MatrixFormatError(
                f"row {i}: {row.size} entries, expected {n} (matrix not square)")
    return np.stack(rows)


def _raise_first_bad_cell(m: np.ndarray, bad: np.ndarray,
                          asym: np.ndarray) -> None:
    """Name the first violation in scan order: row by row, each pair
    (i, j) with j > i checked as (i, j) range, (j, i) range, symmetry;
    then the row's diagonal."""
    pair_bad = np.triu(bad | bad.T | asym, 1)
    i = int(np.argmax(pair_bad.any(axis=1) | np.diagonal(bad)))
    if not pair_bad[i].any():
        raise MatrixFormatError(
            f"entry ({i}, {i}) = {float(m[i, i])} outside [0, 1]")
    j = int(np.argmax(pair_bad[i]))
    a, b = float(m[i, j]), float(m[j, i])
    if bad[i, j]:
        raise MatrixFormatError(f"entry ({i}, {j}) = {a} outside [0, 1]")
    if bad[j, i]:
        raise MatrixFormatError(f"entry ({j}, {i}) = {b} outside [0, 1]")
    raise MatrixFormatError(
        f"asymmetric entries ({i}, {j}) = {a} vs ({j}, {i}) = {b}")


def graph_to_json(g: Graph) -> str:
    """Serialize g to the pinned JSON dump format.

    Renders what ``json.dumps`` does, ints by ``str`` and finite floats
    (a Graph holds weights in [0, 1] only) by ``repr``, one block of
    JSON_BLOCK_EDGES edges per ``%`` format.
    """
    u, v, w = g.edge_arrays()
    blocks = []
    for start in range(0, w.size, JSON_BLOCK_EDGES):
        block = slice(start, start + JSON_BLOCK_EDGES)
        size = w[block].size
        cells = [None] * (3 * size)  # u, v, w of each edge in turn
        cells[0::3] = u[block].tolist()
        cells[1::3] = v[block].tolist()
        cells[2::3] = w[block].tolist()
        blocks.append(", ".join(["[%d, %d, %r]"] * size) % tuple(cells))
    return '{"n": %d, "edges": [%s]}' % (g.n, ", ".join(blocks))


def graph_from_json(text: str) -> Graph:
    """Load a graph from the JSON dump format."""
    # a JSON document holds no reference cycle, so the cyclic collector
    # would only rescan the edge lists over and over as the parser grows them
    enabled = gc.isenabled()
    gc.disable()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON graph dump: {exc}") from exc
    finally:
        if enabled:
            gc.enable()
    try:
        return Graph(payload["n"], payload["edges"])
    except (KeyError, TypeError) as exc:
        raise MatrixFormatError(
            "JSON graph dump must have integer 'n' and 'edges' as "
            "[u, v, w] triples") from exc
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from exc
