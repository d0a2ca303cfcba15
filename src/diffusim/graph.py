"""Undirected weighted graph container used by every other module.

A graph over ``n`` vertices (labelled 0..n-1) holds a set of unordered
edges {u, v}, u != v, each carrying a transmission probability in [0, 1].
Graphs are immutable after construction and safe to share read-only
between concurrent simulation runs.

Storage is edge-array based with a lazily built CSR adjacency, so
construction from bulk numpy arrays is cheap and neighbor iteration is
O(degree). ``Graph._gather`` turns a batch of vertices into the CSR
positions of all their rows at once; breadth-first search, clustering and
broadcast diffusion expand whole frontiers with it instead of slicing one
row per vertex.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "degree_histogram",
    "mean_offdiagonal_weight",
    "bfs_distances",
    "connected_components",
    "is_connected",
]


class Graph:
    """Immutable undirected graph with per-edge probabilities.

    Parameters
    ----------
    n : int
        Number of vertices (>= 0). Vertices are 0..n-1.
    edges : iterable of (u, v, w) triples, or a (u, v, w) array triple
        Unordered edges with weights. Self-loops, duplicate pairs,
        out-of-range vertex ids and weights outside [0, 1] are rejected.
    """

    __slots__ = ("n", "_eu", "_ev", "_ew", "_indptr", "_nbr", "_nbrw",
                 "_pair_keys", "_pair_w", "_degrees")

    def __init__(self, n: int, edges: Iterable = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        self.n = int(n)

        if isinstance(edges, tuple) and len(edges) == 3 and \
                all(isinstance(a, np.ndarray) for a in edges):
            eu = np.asarray(edges[0], dtype=np.int64)
            ev = np.asarray(edges[1], dtype=np.int64)
            ew = np.asarray(edges[2], dtype=np.float64)
        else:
            triples = list(edges)
            eu = np.array([t[0] for t in triples], dtype=np.int64)
            ev = np.array([t[1] for t in triples], dtype=np.int64)
            ew = np.array([t[2] for t in triples], dtype=np.float64)

        if not (eu.shape == ev.shape == ew.shape):
            raise ValueError("edge arrays must have identical length")
        if eu.size:
            if eu.min() < 0 or ev.min() < 0 or eu.max() >= n or ev.max() >= n:
                raise ValueError("edge endpoint outside [0, n)")
            if (eu == ev).any():
                bad = int(eu[eu == ev][0])
                raise ValueError(f"self-loop on vertex {bad} not allowed")
            # written so that NaN, which fails every comparison, is rejected
            if not ((ew >= 0.0) & (ew <= 1.0)).all():
                raise ValueError("edge weights must lie in [0, 1]")

        # canonical order: u < v, then lexicographic. Input that already
        # strictly increases in that order has no duplicate and skips the
        # sort. Pairs are compared as (lo, hi), not as keys lo * n + hi,
        # which overflow int64 once n passes 3e9.
        lo = np.minimum(eu, ev)
        hi = np.maximum(eu, ev)
        step_lo = np.diff(lo)
        if not ((step_lo > 0) | ((step_lo == 0) & (np.diff(hi) > 0))).all():
            order = np.lexsort((hi, lo))
            lo, hi, ew = lo[order], hi[order], ew[order]
            dup = np.flatnonzero((np.diff(lo) == 0) & (np.diff(hi) == 0))
            if dup.size:
                i = int(dup[0])
                raise ValueError(
                    f"duplicate edge {{{int(lo[i])}, {int(hi[i])}}}")
        self._eu, self._ev, self._ew = lo, hi, ew
        self._indptr = None
        self._nbr = None
        self._nbrw = None
        self._pair_keys = None
        self._pair_w = None
        self._degrees = None

    # -- construction helpers -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return int(self._eu.size)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges as (u, v, w) arrays with u < v, lexicographically sorted."""
        return self._eu, self._ev, self._ew

    def edges(self):
        """Iterate (u, v, w) tuples with u < v."""
        for u, v, w in zip(self._eu.tolist(), self._ev.tolist(),
                           self._ew.tolist()):
            yield u, v, w

    def _build_adjacency(self) -> None:
        du = np.concatenate([self._eu, self._ev])
        dv = np.concatenate([self._ev, self._eu])
        dw = np.concatenate([self._ew, self._ew])
        order = np.lexsort((dv, du))
        du, dv, dw = du[order], dv[order], dw[order]
        counts = np.bincount(du, minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._indptr, self._nbr, self._nbrw = indptr, dv, dw
        self._pair_keys = du * self.n + dv
        self._pair_w = dw
        self._degrees = counts.astype(np.int64)

    def _adj(self):
        if self._indptr is None:
            self._build_adjacency()
        return self._indptr, self._nbr, self._nbrw

    def _gather(self, rows: np.ndarray) -> np.ndarray:
        """CSR positions of the rows of vertices ``rows``, concatenated in
        the order of ``rows``; index ``_adj()``'s neighbor and weight
        arrays with them."""
        # ndarray methods, not np.* wrappers: a deep BFS gathers once per
        # level, often for a single row, so call overhead is its cost
        indptr = self._adj()[0]
        lens = self._degrees[rows]
        ends = lens.cumsum()
        return np.arange(ends[-1] if ends.size else 0) + \
            (indptr[rows] - ends + lens).repeat(lens)

    # -- queries --------------------------------------------------------------

    def _check_vertex(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex id {v} outside [0, {self.n})")
        return v

    def degree(self, v: int) -> int:
        """Number of edges incident to vertex v."""
        v = self._check_vertex(v)
        return int(self.degrees()[v])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex, as an int64 array of length n."""
        if self._degrees is None:
            self._build_adjacency()
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of v in ascending vertex order."""
        v = self._check_vertex(v)
        indptr, nbr, _ = self._adj()
        return nbr[indptr[v]:indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors`."""
        v = self._check_vertex(v)
        indptr, _, nbrw = self._adj()
        return nbrw[indptr[v]:indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        u = self._check_vertex(u)
        v = self._check_vertex(v)
        return self._pair_index(u, v) >= 0

    def _pair_index(self, u: int, v: int) -> int:
        self._adj()
        key = np.int64(u) * self.n + np.int64(v)
        pos = int(np.searchsorted(self._pair_keys, key))
        if pos < self._pair_keys.size and self._pair_keys[pos] == key:
            return pos
        return -1

    def weight(self, u: int, v: int) -> float:
        """Weight of edge {u, v}; 0.0 when the pair is not connected."""
        u = self._check_vertex(u)
        v = self._check_vertex(v)
        i = self._pair_index(u, v)
        return float(self._pair_w[i]) if i >= 0 else 0.0

    def pair_weights(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`weight` for aligned endpoint arrays."""
        self._adj()
        keys = us.astype(np.int64) * self.n + vs.astype(np.int64)
        if self._pair_keys.size == 0:
            return np.zeros(keys.shape, dtype=np.float64)
        pos = np.searchsorted(self._pair_keys, keys)
        pos = np.minimum(pos, self._pair_keys.size - 1)
        hit = self._pair_keys[pos] == keys
        return np.where(hit, self._pair_w[pos], 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and self._eu.shape == other._eu.shape
                and bool((self._eu == other._eu).all())
                and bool((self._ev == other._ev).all())
                and bool((self._ew == other._ew).all()))

    def __hash__(self):
        raise TypeError("Graph is not hashable")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def degree_histogram(g: Graph) -> dict[int, int]:
    """Map degree k -> number of vertices with that degree.

    Only degrees with a nonzero vertex count appear; counts sum to n and
    sum of k*count(k) equals twice the edge count.
    """
    if g.n == 0:
        return {}
    counts = np.bincount(g.degrees())
    return {int(k): int(c) for k, c in enumerate(counts) if c > 0}


def mean_offdiagonal_weight(g: Graph) -> float:
    """Average edge weight over all ordered off-diagonal vertex pairs.

    Pairs without an edge contribute weight 0. Requires n >= 2.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    _, _, w = g.edge_arrays()
    return 2.0 * float(w.sum()) / (g.n * (g.n - 1))


def _bfs_levels(g: Graph, claim: np.ndarray, keys: np.ndarray):
    """Breadth-first search over flat ``(row, vertex)`` keys.

    A key is ``row * g.n + vertex``: each row is a search of its own with
    its own seen set, and all rows advance one level per step. ``claim``
    is the flat seen array, one cell per key; cells >= 0 are seen, so it
    starts at -1 wherever the search may go. Starting from ``keys``, which
    are marked seen, yields the keys each level reaches first, each key
    once: level 1, level 2, ... and finally an empty array.
    """
    n = g.n
    nbr = g._adj()[1]
    deg = g.degrees()
    claim[keys] = 0
    while keys.size:
        v = keys % n
        nxt = nbr[g._gather(v)] + (keys - v).repeat(deg[v])
        nxt = nxt[claim[nxt] < 0]
        # duplicates all write their position; exactly one of them then
        # reads its own back
        idx = np.arange(nxt.size)
        claim[nxt] = idx
        keys = nxt[claim[nxt] == idx]
        yield keys


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distance from source to every vertex; -1 where unreachable.

    Edge weights are ignored: every stored edge counts as one hop.
    """
    source = g._check_vertex(source)
    dist = np.full(g.n, -1, dtype=np.int64)
    for d, level in enumerate(
            _bfs_levels(g, dist, np.array([source], dtype=np.int64)), 1):
        dist[level] = d
    return dist


def connected_components(g: Graph) -> list[np.ndarray]:
    """Vertex sets of the connected components, largest first."""
    deg = g.degrees()
    isolated = np.flatnonzero(deg == 0)
    comps = list(isolated[:, None])
    claim = np.full(g.n, -1, dtype=np.int64)
    claim[isolated] = 0
    for s in np.flatnonzero(deg).tolist():
        if claim[s] >= 0:
            continue
        start = np.array([s], dtype=np.int64)
        members = np.concatenate([start, *_bfs_levels(g, claim, start)])
        members.sort()
        comps.append(members)
    comps.sort(key=lambda m: (-m.size, int(m[0])))
    return comps


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return int(np.count_nonzero(bfs_distances(g, 0) >= 0)) == g.n
