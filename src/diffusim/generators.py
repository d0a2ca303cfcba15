"""Deterministic generators for the four network families.

``GeneratorSpec`` is the one place a family is checked and built, and each
``gen_*`` function is one ``.build()`` call. Construction checks ``n`` (count
rule, and at most ``_MAX_SCALE_FREE_N`` for scale-free), ``edge_prob`` (a
number in [0, 1]) and the seed (an integer >= 0).

All randomness comes from numpy's PCG64 generator (``np.random.default_rng``),
whose bit stream is stable across platforms and numpy releases, so the same
(family, parameters, seed) always yields the same graph.

Stream consumption is part of the contract:

* ``gen_random`` / ``gen_stochastic`` draw one uniform per unordered vertex
  pair in lexicographic order (0,1), (0,2), ..., (0,n-1), (1,2), ...: the
  row-major cells of an n x n pair mask's strict upper triangle, and the
  edges are read from that mask. A regenerated stochastic ensemble
  reweights one complete graph, whose CSR it builds once.
* ``gen_scale_free`` attaches vertex 1 to vertex 0 without randomness, then
  for each vertex t = 2..n-1 draws one integer index into the
  degree-weighted attachment pool. All indices come from one
  ``Generator.integers(0, bounds)`` call over the array of pool sizes,
  which numpy draws element by element exactly as one scalar call per
  bound would. So this family depends on that numpy behaviour; the golden
  digests check it down to the lowest numpy that ``pyproject.toml``
  declares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _count, _is_probability

__all__ = [
    "FAMILIES",
    "GeneratorSpec",
    "make_rng",
    "gen_complete",
    "gen_random",
    "gen_stochastic",
    "gen_scale_free",
]

FAMILIES = ("complete", "random", "stochastic", "scale-free")


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator seeded with a 64-bit integer."""
    return np.random.default_rng(seed)


def _seed(value, what: str) -> int:
    """``value``, an integer >= 0 of any size, as a Python int; floats,
    strings and bools raise ValueError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {value!r}")
    return int(value)


# rejects trees whose edge arrays alone would need tens of GB before
# anything is allocated
_MAX_SCALE_FREE_N = 2**31 + 1


@dataclass(frozen=True)
class GeneratorSpec:
    """Family tag plus the parameters that family actually uses.

    ``edge_prob`` is only meaningful for the random family and ``seed``
    is required for every family except complete; passing a parameter
    the family does not use is rejected.
    """

    family: str
    n: int
    edge_prob: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {FAMILIES}")
        object.__setattr__(self, "n", _count(self.n, "vertex count", 1))
        if self.family == "scale-free" and self.n > _MAX_SCALE_FREE_N:
            raise ValueError(f"scale-free vertex count must be <= "
                             f"{_MAX_SCALE_FREE_N}, got {self.n}")
        if self.family == "random":
            prob = 0.5 if self.edge_prob is None else self.edge_prob
            if np.ndim(prob) or not _is_probability(np.asarray(prob)):
                raise ValueError(f"edge_prob must be in [0, 1], got {prob!r}")
            object.__setattr__(self, "edge_prob", prob)
        elif self.edge_prob is not None:
            raise ValueError(f"edge_prob is not used by family {self.family!r}")
        if self.family == "complete":
            if self.seed is not None:
                raise ValueError("complete family takes no seed")
        elif self.seed is None:
            raise ValueError(f"family {self.family!r} requires a seed")
        else:
            object.__setattr__(self, "seed", _seed(self.seed, "graph seed"))

    def build(self) -> Graph:
        """The graph of this family, size and seed."""
        return self._graph(self.seed)

    def _graph(self, seed) -> Graph:
        """This spec's graph at ``seed``."""
        n = self.n
        if self.family == "scale-free":
            return _grow_scale_free(n, seed)
        # one draw per cell of the strict upper triangle, in row-major
        # order: the documented lexicographic pair order
        upper = ~np.tri(n, dtype=bool)
        w = None
        if self.family == "random":
            upper[upper] = make_rng(seed).random(n * (n - 1) // 2) < \
                self.edge_prob
        elif self.family == "stochastic":
            w = make_rng(seed).random(n * (n - 1) // 2)
        # cell (u, v) has the flat index u * n + v
        cells = np.flatnonzero(upper)
        u = cells // n
        return Graph(n, (u, cells - u * n, np.ones(cells.size)
                         if w is None else w))

    def _builder(self, regenerate: bool):
        """``seed -> graph`` for an ensemble: one ``build()`` for every seed
        when not ``regenerate`` or seedless, else this spec's graph at
        ``seed``. Stochastic graphs then reweight one complete graph, whose
        CSR is built once, and share its arrays while the builder lives."""
        if not regenerate or self.seed is None:
            graph = self.build()
            return lambda _seed: graph
        if self.family != "stochastic":
            return self._graph
        n = self.n
        pattern = GeneratorSpec("complete", n).build()
        # slot i holds {u, v}: lexicographic edge lo(2n-lo-1)/2 + hi - lo - 1
        v = pattern._adj()[1]
        u = np.arange(n).repeat(pattern.degrees())
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        slot_pair = lo * (2 * n - lo - 1) // 2 + hi - lo - 1
        # build's stochastic draw, on the same pairs in the same order
        return lambda seed: pattern._reweighted(
            slot_pair, make_rng(seed).random(pattern.edge_count))


def _spec(family, n, edge_prob, seed) -> GeneratorSpec:
    """Spec from a seed held for any family; complete checks, then drops it."""
    if family == "complete":
        _seed(seed, "graph seed")
        seed = None
    return GeneratorSpec(family, n, edge_prob, seed)


def gen_complete(n: int) -> Graph:
    """Complete graph: every pair connected with weight 1.0."""
    return GeneratorSpec("complete", n).build()


def gen_random(n: int, edge_prob: float | None = None, seed: int = 0) -> Graph:
    """Each pair is, i.i.d., a weight-1.0 edge with edge_prob (None: 0.5)."""
    return GeneratorSpec("random", n, edge_prob, seed).build()


def gen_stochastic(n: int, seed: int = 0) -> Graph:
    """Every pair connected with an i.i.d. uniform [0, 1] weight."""
    return GeneratorSpec("stochastic", n, None, seed).build()


def gen_scale_free(n: int, seed: int = 0) -> Graph:
    """Grow a tree by preferential attachment, one edge per new vertex.

    Vertex 0 starts alone and vertex 1 attaches to it deterministically
    (degree-proportional choice is undefined while all degrees are 0).
    Every later vertex t picks its target with probability proportional
    to the target's current degree, so the result is a connected tree
    with n - 1 edges and a heavy-tailed degree distribution. n above
    ``_MAX_SCALE_FREE_N`` is rejected at construction, before the build.
    """
    return GeneratorSpec("scale-free", n, None, seed).build()


def _grow_scale_free(n: int, seed: int) -> Graph:
    """``gen_scale_free``'s tree, for 1 <= n <= ``_MAX_SCALE_FREE_N``.

    Vertex t's pick is ``rng.integers(0, 2(t-1))`` into a pool holding
    every vertex once per unit of degree: pool[0] is 0, pool[2j+1] is
    vertex j+1 and pool[2j] is the target of vertex j+1. One
    ``rng.integers(0, bounds)`` call over the array of pool sizes draws all
    picks at once; numpy draws each element as a scalar call with that
    bound would. Pointer jumping resolves the even picks' references.
    """
    picks = make_rng(seed).integers(0, 2 * np.arange(1, n - 1))
    # targets[i] is the target of vertex i + 1. An odd pick 2j+1 names
    # vertex j+1; an even pick 2j names targets[j], an earlier entry,
    # through ref. Entries known outright are roots: ref points to itself.
    targets = np.zeros(n - 1, dtype=np.int64)
    targets[1:] = (picks + 1) >> 1
    ref = np.arange(n - 1)
    open_ = np.flatnonzero(picks % 2 == 0) + 1
    ref[open_] = picks[open_ - 1] >> 1
    # pointer jumping: every round doubles the distance each ref spans
    while open_.size:
        ref[open_] = ref[ref[open_]]
        root = ref[open_]
        at_root = ref[root] == root
        targets[open_[at_root]] = targets[root[at_root]]
        open_ = open_[~at_root]
    sources = np.arange(1, n, dtype=np.int64)
    return Graph(n, (sources, targets, np.ones(n - 1, dtype=np.float64)))
