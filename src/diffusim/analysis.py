"""Structural statistics: matrix-average convergence, power-law fit,
clustering coefficient and characteristic path length.

Path length and clustering are topological: edge weights are ignored,
every stored edge counts as present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .ensemble import replication_seeds
from .generators import _spec
from .graph import Graph, _bfs_levels, connected_components, \
    mean_offdiagonal_weight

# Most (source, vertex) keys plus CSR entries one path-length chunk covers.
# A chunk of k sources holds a k * n seen array and, at its widest level,
# up to k * 2E gathered neighbours, so k = PATH_CHUNK_CELLS // (n + 2E)
# keeps each of its int64 arrays at 4 MB or less (a single source may
# need more). More sources per chunk means fewer levels of per-call
# overhead, not less work.
PATH_CHUNK_CELLS = 1 << 19

__all__ = [
    "PowerLawFit",
    "PathLengthResult",
    "matrix_average_convergence",
    "fit_power_law",
    "clustering_coefficient",
    "characteristic_path_length",
    "average_degree_histograms",
]


def matrix_average_convergence(
        family: str, sizes: Iterable[int], seed: int = 0,
        edge_prob: float | None = None) -> list[tuple[int, float]]:
    """Mean off-diagonal weight of one generated graph per size.

    The graph for ``sizes[i]`` uses ``replication_seeds(seed, i)[0]``, so the
    result is deterministic in (family, sizes, seed); complete, too, checks
    ``seed``. ``edge_prob`` is for random only (None: 0.5).
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("sizes must be nonempty")
    out = []
    for i, n in enumerate(sizes):
        spec = _spec(family, n, edge_prob, replication_seeds(seed, i)[0])
        out.append((n, mean_offdiagonal_weight(spec.build())))
    return out


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float
    points_used: int


def fit_power_law(hist: Mapping[int, float]) -> PowerLawFit:
    """Least-squares line through (log k, log count(k)).

    Only degrees k >= 1 with strictly positive counts participate; at
    least two such points are required. The slope is negative for
    heavy-tailed degree distributions.
    """
    ks = np.array(sorted(k for k, c in hist.items() if k >= 1 and c > 0),
                  dtype=np.float64)
    if ks.size < 2:
        raise ValueError(
            f"power-law fit needs >= 2 positive-count degrees, got {ks.size}")
    cs = np.array([hist[int(k)] for k in ks], dtype=np.float64)
    x = np.log(ks)
    y = np.log(cs)
    slope, intercept = np.polyfit(x, y, 1)
    return PowerLawFit(float(slope), float(intercept), int(ks.size))


def clustering_coefficient(g: Graph) -> float:
    """Average over vertices of realized / possible links among neighbors.

    Vertices with degree < 2 contribute 0 to the average (they have no
    neighbor pair), which keeps tree-shaped graphs at exactly 0.
    """
    if g.n < 1:
        raise ValueError("clustering needs at least one vertex")
    indptr, nbr, _ = g._adj()
    marked = np.zeros(g.n, dtype=bool)
    total = 0.0
    for v in np.flatnonzero(g.degrees() >= 2).tolist():
        row = nbr[indptr[v]:indptr[v + 1]]
        d = row.size
        marked[row] = True
        # each link among the neighbours is seen from both of its ends
        links = int(np.count_nonzero(marked[nbr[g._gather(row)[0]]])) // 2
        marked[row] = False
        total += links / (d * (d - 1) / 2)
    return total / g.n


@dataclass(frozen=True)
class PathLengthResult:
    """Mean shortest-path hop count over all unordered vertex pairs.

    For a disconnected graph the value covers the largest component only
    and ``connected`` is False.
    """

    value: float
    connected: bool
    component_size: int


def characteristic_path_length(g: Graph) -> PathLengthResult:
    if g.n < 2:
        raise ValueError("path length needs at least 2 vertices")
    comps = connected_components(g)
    connected = len(comps) == 1
    members = comps[0]
    m = members.size
    if m < 2:
        return PathLengthResult(float("nan"), connected, int(m))
    n = g.n
    chunk = max(1, PATH_CHUNK_CELLS // (n + 2 * g.edge_count))
    total = 0
    for first in range(0, m, chunk):
        sources = members[first:first + chunk]
        claim = np.full(sources.size * n, -1, dtype=np.int64)
        keys = np.arange(sources.size) * n + sources
        for level, reached in enumerate(_bfs_levels(g, claim, keys), 1):
            total += level * reached.size
    pairs = m * (m - 1)  # ordered; symmetric sum counts each pair twice
    return PathLengthResult(total / pairs, connected, int(m))


def average_degree_histograms(
        hists: Iterable[Mapping[int, float]]) -> dict[int, float]:
    """Pointwise mean of degree histograms (missing degrees count as 0)."""
    hists = list(hists)
    if not hists:
        raise ValueError("need at least one histogram")
    acc: dict[int, float] = {}
    for h in hists:
        for k, c in h.items():
            acc[k] = acc.get(k, 0.0) + c
    return {k: acc[k] / len(hists) for k in sorted(acc)}
