"""Undirected weighted graph container used by every other module.

A graph over ``n`` vertices (labelled 0..n-1) holds a set of unordered
edges {u, v}, u != v, each carrying a transmission probability in [0, 1].
Graphs are immutable after construction and safe to share read-only
between concurrent simulation runs.

Storage is edge-array based with a lazily built CSR adjacency, so
construction from bulk numpy arrays is cheap and neighbor iteration is
O(degree). A graph holds only arrays of its own, read-only, each stored
by ``Graph._hold`` and derived from its edges when first read: degrees
count edge ends; the CSR, built only for neighbours and pair weights,
takes their running sum as its row pointers and picks its fill from the
edges: a dense graph of unit weights sets them in an n x n bool mask,
whose true cells are its pair keys in order, with no sort; any other
takes one stable sort on the row, which leaves each row ascending, since
edges are kept in canonical order.
``Graph._gather`` turns a batch of vertices into the CSR positions of all
their rows at once, with the rows' lengths; breadth-first search,
clustering and broadcast diffusion expand whole frontiers with it.
"""

from __future__ import annotations

import operator
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


def _vertex_ids(values, n: int | None = None) -> np.ndarray:
    """Vertex ids as int64, compared exactly with ``values``: integers and
    integral floats pass; bools, fractions, strings, non-finite values and
    ids beyond int64 raise ValueError, as does, given ``n``, the first id
    outside [0, n). Every vertex id entering goes through it."""
    ids = np.asarray(values)
    if ids.dtype != np.int64:
        # compared as Python numbers: a float64 array of a list's values
        # would round ids beyond 2**53
        cells = np.array(values, dtype=object)
        try:
            ids = None if ids.dtype == bool else cells.astype(np.int64)
        except (TypeError, ValueError, OverflowError):
            ids = None
        if ids is None or not (ids == cells).all():
            raise ValueError("vertex ids must be integers")
    if n is not None and ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)][0]
        raise ValueError(f"vertex id {bad} outside [0, {n})")
    return ids


def _count(value, what: str, low: int) -> int:
    """``value``, one integral number >= ``low`` by the vertex-id rule, as
    a Python int; anything else raises ValueError naming ``what``."""
    try:
        count = _vertex_ids(value)
    except ValueError:
        count = None
    if count is None or count.ndim:
        raise ValueError(f"{what}: counts must be integers, got {value!r}")
    if count < low:
        raise ValueError(f"{what} must be >= {low}, got {value!r}")
    return count.item()


def _is_probability(values: np.ndarray) -> bool:
    """Whether all ``values`` are real numbers in [0, 1], NaN excluded."""
    return values.dtype.kind in "iuf" and \
        bool(((values >= 0.0) & (values <= 1.0)).all())


def _edge_columns(triples) -> tuple[list, list, list]:
    """The u, v and w columns of a sequence of (u, v, w) triples; any other
    item, or an item that has no length, raises ValueError."""
    # len at C speed, 0 for an item without len; JSON has one row per edge
    if triples and set(map(operator.length_hint, triples)) != {3}:
        raise ValueError("edges must be [u, v, w] triples")
    return tuple([t[i] for t in triples] for i in range(3))


class Graph:
    """Immutable undirected graph with per-edge probabilities.

    Parameters
    ----------
    n : int
        Number of vertices (>= 0). Vertices are 0..n-1.
    edges : iterable of (u, v, w) triples, or a (u, v, w) array triple
        Unordered edges with weights. Self-loops, duplicate pairs,
        out-of-range vertex ids and weights outside [0, 1] are rejected.
        ``n`` and vertex ids, here and in every query, must be integral
        numbers compared exactly: ``2.0`` passes, ``2.5`` and ``"2"`` raise.
        Arrays passed in are copied; every array returned is read-only.
    """

    __slots__ = ("n", "_eu", "_ev", "_ew", "_indptr", "_nbr", "_nbrw",
                 "_pair_keys", "_degrees")

    def __init__(self, n: int, edges: Iterable = ()) -> None:
        self.n = n = _count(n, "vertex count", 0)

        if isinstance(edges, tuple) and len(edges) == 3 and \
                all(isinstance(a, np.ndarray) for a in edges):
            eu, ev, ew = edges
        else:
            eu, ev, ew = _edge_columns(list(edges))
        eu = _vertex_ids(eu, n)
        ev = _vertex_ids(ev, n)
        ew = np.asarray(ew)

        if not (eu.ndim == 1 and eu.shape == ev.shape == ew.shape):
            raise ValueError("edge arrays must be 1-D, of identical length")
        if (eu == ev).any():
            bad = int(eu[eu == ev][0])
            raise ValueError(f"self-loop on vertex {bad} not allowed")
        if not _is_probability(ew):
            raise ValueError("edge weights must be numbers in [0, 1]")

        # canonical order: u < v, then lexicographic. Input that already
        # strictly increases in that order has no duplicate and skips the
        # sort. Pairs are compared as (lo, hi), not as keys lo * n + hi,
        # which overflow int64 once n passes 3e9. The weights are copied
        # once, so no caller's array reaches the graph.
        lo = np.minimum(eu, ev)
        hi = np.maximum(eu, ev)
        step_lo = np.diff(lo)
        if ((step_lo > 0) | ((step_lo == 0) & (np.diff(hi) > 0))).all():
            ew = ew.astype(np.float64)
        else:
            order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
            ew = ew.astype(np.float64, copy=False)[order]
            dup = np.flatnonzero((np.diff(lo) == 0) & (np.diff(hi) == 0))
            if dup.size:
                i = int(dup[0])
                raise ValueError(
                    f"duplicate edge {{{int(lo[i])}, {int(hi[i])}}}")
        self._indptr = self._nbr = self._nbrw = self._pair_keys = \
            self._degrees = None
        self._hold(_eu=lo, _ev=hi, _ew=ew)

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

    def _hold(self, **arrays: np.ndarray) -> "Graph":
        """This graph, holding each of ``arrays`` in the slot of its name,
        read-only: every array a graph holds is stored here."""
        for name, array in arrays.items():
            array.setflags(write=False)
            setattr(self, name, array)
        return self

    def _build_adjacency(self) -> None:
        n, eu, ev, ew = self.n, self._eu, self._ev, self._ew
        # the mask's n * n bytes are at most the 16 of key and neighbour per
        # CSR slot; key u * n + v is the flat index of cell (u, v)
        if n * n <= 32 * eu.size and (ew == 1.0).all():
            mask = np.zeros((n, n), dtype=bool)
            mask.ravel()[eu * n + ev] = True
            keys = np.flatnonzero(mask | mask.T)
            nbrw = np.ones(keys.size)
        else:
            du = np.concatenate([ev, eu])
            order = np.argsort(du, kind="stable")
            keys = (du * n + np.concatenate([eu, ev]))[order]
            nbrw = np.concatenate([ew, ew])[order]
        self._hold(_indptr=np.r_[0, self.degrees().cumsum()],
                   _nbr=keys - keys // n * n, _nbrw=nbrw, _pair_keys=keys)

    def _reweighted(self, slot_pair: np.ndarray, weights) -> "Graph":
        """This graph with edge i weighted ``weights[i]``, built unchecked;
        ``slot_pair[i]`` is the edge of CSR slot i. It shares every other
        array with this graph, whose CSR must be built."""
        g = Graph.__new__(Graph)
        for name in Graph.__slots__:
            setattr(g, name, getattr(self, name))
        return g._hold(_ew=weights, _nbrw=weights.take(slot_pair))

    def _adj(self):
        """The CSR, built on first use; every reader of the CSR calls it."""
        if self._indptr is None:
            self._build_adjacency()
        return self._indptr, self._nbr, self._nbrw

    def _gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR positions of the rows of vertices ``rows``, concatenated in
        the order of ``rows``, and the rows' lengths; index ``_adj()``'s
        neighbor and weight arrays with the positions."""
        # ndarray methods, not np.* wrappers: a deep BFS gathers once per
        # level, often for a single row, so call overhead is its cost
        indptr = self._adj()[0]
        lens = self._degrees[rows]
        ends = lens.cumsum()
        return np.arange(ends[-1] if ends.size else 0) + \
            (indptr[rows] - ends + lens).repeat(lens), lens

    # -- queries --------------------------------------------------------------

    def _check_vertex(self, v: int) -> int:
        return _vertex_ids(v, self.n).item()

    def degree(self, v: int) -> int:
        """Number of edges incident to vertex v."""
        v = self._check_vertex(v)
        return int(self.degrees()[v])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex, as an int64 array of length n."""
        if self._degrees is None:
            self._hold(_degrees=np.bincount(self._eu, minlength=self.n)
                       + np.bincount(self._ev, minlength=self.n))
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
        """Whether {u, v} is an edge, whatever its weight."""
        nbr = self.neighbors(u)
        return bool((nbr == self._check_vertex(v)).any())

    def weight(self, u: int, v: int) -> float:
        """Weight of edge {u, v}; 0.0 when the pair is not connected."""
        return self.pair_weights(u, v).item()

    def pair_weights(self, us, vs) -> np.ndarray:
        """Vectorized :meth:`weight` for vertex ids, scalars or arrays, that
        broadcast together; the result has their broadcast shape."""
        keys = _vertex_ids(us, self.n) * self.n + _vertex_ids(vs, self.n)
        return self._key_weights(keys.ravel(), False).reshape(keys.shape)

    def _key_weights(self, keys: np.ndarray,
                     closed: np.ndarray | bool) -> np.ndarray:
        """Weights of the pairs with int64 keys ``u * n + v``, in the shape
        of ``keys``: 0.0 where {u, v} is no edge or ``closed`` is True."""
        # ndarray methods and in-place updates: random-contact diffusion
        # looks up one small block of contacts per call
        self._adj()
        pk = self._pair_keys
        if pk.size == 0:
            return np.zeros(keys.shape)
        # searching all keys but the last clamps each position to the last
        pos = pk[:-1].searchsorted(keys)
        w = self._nbrw[pos]
        w[(pk[pos] != keys) | closed] = 0.0
        return w

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and self._eu.shape == other._eu.shape
                and bool((self._eu == other._eu).all())
                and bool((self._ev == other._ev).all())
                and bool((self._ew == other._ew).all()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def degree_histogram(g: Graph) -> dict[int, int]:
    """Map degree k -> number of vertices with that degree.

    Only degrees with a nonzero vertex count appear; counts sum to n and
    sum of k*count(k) equals twice the edge count.
    """
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
    claim[keys] = 0
    while keys.size:
        v = keys % n
        edge, lens = g._gather(v)
        nxt = nbr[edge] + (keys - v).repeat(lens)
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
