"""Deterministic generators for the four network families.

All randomness comes from numpy's PCG64 generator (``np.random.default_rng``),
whose bit stream is stable across platforms and numpy releases, so the same
(family, parameters, seed) always yields the same graph.

Stream consumption is part of the contract:

* ``gen_random`` / ``gen_stochastic`` draw one uniform per unordered vertex
  pair in lexicographic order (0,1), (0,2), ..., (0,n-1), (1,2), ...
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

from .graph import Graph

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
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        if self.family == "random":
            prob = 0.5 if self.edge_prob is None else self.edge_prob
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"edge_prob must be in [0, 1], got {prob}")
            object.__setattr__(self, "edge_prob", prob)
        elif self.edge_prob is not None:
            raise ValueError(f"edge_prob is not used by family {self.family!r}")
        if self.family == "complete":
            if self.seed is not None:
                raise ValueError("complete family takes no seed")
        elif self.seed is None:
            raise ValueError(f"family {self.family!r} requires a seed")

    def build(self) -> Graph:
        if self.family == "complete":
            return gen_complete(self.n)
        if self.family == "random":
            return gen_random(self.n, self.edge_prob, self.seed)
        if self.family == "stochastic":
            return gen_stochastic(self.n, self.seed)
        return gen_scale_free(self.n, self.seed)

    def with_seed(self, seed: int | None) -> "GeneratorSpec":
        """Copy of this spec with a different seed (dropped for complete)."""
        if self.family == "complete":
            return self
        return GeneratorSpec(self.family, self.n, self.edge_prob, seed)


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    # np.triu_indices enumerates pairs in the documented lexicographic order
    return np.triu_indices(n, k=1)


def gen_complete(n: int) -> Graph:
    """Complete graph: every pair connected with weight 1.0."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    u, v = _pair_indices(n)
    return Graph(n, (u.astype(np.int64), v.astype(np.int64),
                     np.ones(u.size, dtype=np.float64)))


def gen_random(n: int, edge_prob: float = 0.5, seed: int = 0) -> Graph:
    """Each pair independently gets a weight-1.0 edge with edge_prob."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = make_rng(seed)
    u, v = _pair_indices(n)
    keep = rng.random(u.size) < edge_prob
    u, v = u[keep], v[keep]
    return Graph(n, (u.astype(np.int64), v.astype(np.int64),
                     np.ones(u.size, dtype=np.float64)))


def gen_stochastic(n: int, seed: int = 0) -> Graph:
    """Every pair connected with an i.i.d. uniform [0, 1] weight."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    rng = make_rng(seed)
    u, v = _pair_indices(n)
    w = rng.random(u.size)
    return Graph(n, (u.astype(np.int64), v.astype(np.int64), w))


# rejects trees whose edge arrays alone would need tens of GB before
# anything is allocated
_MAX_SCALE_FREE_N = 2**31 + 1


def gen_scale_free(n: int, seed: int = 0) -> Graph:
    """Grow a tree by preferential attachment, one edge per new vertex.

    Vertex 0 starts alone and vertex 1 attaches to it deterministically
    (degree-proportional choice is undefined while all degrees are 0).
    Every later vertex t picks its target with probability proportional
    to the target's current degree, so the result is a connected tree
    with n - 1 edges and a heavy-tailed degree distribution.

    Vertex t's pick is ``rng.integers(0, 2(t-1))`` into a pool holding
    every vertex once per unit of degree: pool[0] is 0, pool[2j+1] is
    vertex j+1 and pool[2j] is the target of vertex j+1. One
    ``rng.integers(0, bounds)`` call over the array of pool sizes draws all
    picks at once; numpy draws each element as a scalar call with that
    bound would. Pointer jumping resolves the even picks' references. n
    above ``_MAX_SCALE_FREE_N`` is rejected.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if n > _MAX_SCALE_FREE_N:
        raise ValueError(
            f"scale-free vertex count must be <= {_MAX_SCALE_FREE_N}, got {n}")
    if n == 1:
        return Graph(1)
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
