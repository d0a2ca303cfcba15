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

The JSON dump is ``{"n": <int>, "edges": [[u, v, w], ...]}`` with u < v
and edges sorted lexicographically.
"""

from __future__ import annotations

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


class MatrixFormatError(ValueError):
    """Raised when matrix text cannot be parsed into a valid graph."""


def export_link_matrix(g: Graph) -> str:
    """Render g as a 0/1 link matrix; requires every weight to be 1.0."""
    u, v, w = g.edge_arrays()
    if w.size and not (w == 1.0).all():
        raise ValueError("link matrix requires all edge weights exactly 1.0")
    if g.n == 0:
        return "\n"
    # row i is "c c ... c\n": cell j at column 2j, a space or newline after
    cells = np.full((g.n, 2 * g.n), b" ", dtype="S1")
    cells[:, 0::2] = b"0"
    cells[:, -1] = b"\n"
    cells[u, 2 * v] = b"1"
    cells[v, 2 * u] = b"1"
    return cells.tobytes().decode()


def export_probability_matrix(g: Graph) -> str:
    """Render g as a probability matrix with two-decimal entries."""
    rows = [["0.00"] * g.n for _ in range(g.n)]
    for u, v, weight in g.edges():
        cell = f"{weight:.2f}"
        rows[u][v] = cell
        rows[v][u] = cell
    return "\n".join(" ".join(r) for r in rows) + "\n"


def import_matrix(text: str) -> Graph:
    """Parse a link or probability matrix back into a Graph.

    Accepts whitespace- or comma-separated entries. The matrix must be
    square, symmetric within 1e-9 and have entries in [0, 1]; the
    diagonal is ignored. Every strictly positive off-diagonal entry
    becomes an edge (the upper-triangle value is used as the weight).
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.replace(",", " ").split()
        if not parts:
            continue
        try:
            # float() semantics per entry, as numpy converts str objects
            rows.append(np.array(parts, dtype=np.float64))
        except ValueError as exc:
            raise MatrixFormatError(f"row {lineno}: non-numeric entry") from exc
    n = len(rows)
    if n == 0:
        raise MatrixFormatError("empty matrix text")
    for i, row in enumerate(rows):
        if row.size != n:
            raise MatrixFormatError(
                f"row {i}: {row.size} entries, expected {n} (matrix not square)")
    m = np.stack(rows)
    # written so that NaN, which fails every comparison, is out of range
    bad = ~((m >= 0.0) & (m <= 1.0))
    with np.errstate(invalid="ignore"):  # inf - inf; such cells are bad
        asym = np.abs(m - m.T) > SYMMETRY_TOL
    if bad.any() or asym.any():
        _raise_first_bad_cell(m, bad, asym)
    u, v = np.nonzero(np.triu(m, 1) > 0.0)
    return Graph(n, (u, v, m[u, v]))


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
    """Serialize g to the pinned JSON dump format."""
    u, v, w = (a.tolist() for a in g.edge_arrays())
    payload = {
        "n": g.n,
        "edges": [list(e) for e in zip(u, v, w)],
    }
    return json.dumps(payload)


def graph_from_json(text: str) -> Graph:
    """Load a graph from the JSON dump format."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON graph dump: {exc}") from exc
    try:
        n = int(payload["n"])
        edges = [(int(u), int(v), float(w)) for u, v, w in payload["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFormatError(
            "JSON graph dump must have integer 'n' and 'edges' as "
            "[u, v, w] triples") from exc
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from exc
