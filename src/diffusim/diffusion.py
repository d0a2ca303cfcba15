"""Loop-by-loop spread of information from an initially informed set.

Two contact models are provided because they bracket two plausible
readings of per-loop dynamics:

* ``broadcast``: every informed vertex attempts transmission to every
  neighbor that was uninformed at the start of the loop; each attempt
  succeeds independently with the edge's probability. On a complete
  weight-1.0 graph this saturates in a single loop.
* ``random-contact``: every informed vertex with at least one edge picks
  one of the other n - 1 vertices uniformly at random; the attempt
  succeeds with the probability stored on the connecting edge (absent
  pairs have probability 0, so "no edge" and "edge with p = 0" behave
  identically). Isolated (degree-0) informed vertices skip their turn
  and consume no randomness.

Updates are synchronous: vertices informed during a loop start
transmitting at the next loop. Success is re-sampled on every attempt.

Randomness comes from a single PCG64 stream seeded with the run seed.
Consumption order is pinned so trajectories are reproducible anywhere:

1. the initial informed set is drawn first (uniform subset without
   replacement), unless explicit initial vertices are configured;
2. broadcast draws one uniform per (source, target) attempt, sources in
   ascending vertex order, targets in ascending order within a source;
3. random-contact draws one uniform per acting vertex (ascending) for
   target selection, then one uniform per acting vertex (ascending) for
   the success check.

For random-contact, the engine draws uniforms ahead into one buffer and
consumes them by cursor. A refill draws at least ``BLOCK_UNIFORMS // 4``
uniforms, unless the buffer would then hold more than ``BLOCK_UNIFORMS``
(or more than one loop needs, when that is larger), and it never draws
past the last loop of the budget. ``Generator.random`` spends exactly one
64-bit word of the stream per double, so ``random(a)`` followed by
``random(b)`` returns the same values as ``random(a + b)``: drawing ahead
changes no value that any loop sees. It can leave :func:`run`'s generator,
which is private to it, past the last uniform a loop used. Since the
acting set cannot change until someone new is informed, a block of loops
is evaluated at once; only the first informing loop is applied, and the
uniforms of the loops after it stay buffered for the next block. Beyond
a one-loop budget, a graph of n * n <= 2 * BLOCK_UNIFORMS (n <= 128) gives
each contact the weight in an n x n table built from its edges, 0.0 in the
columns of informed vertices, and builds no CSR; otherwise a block searches
the CSR's sorted pair keys. Both read equal float64 weights, 0.0 for an
informed target: no value changes.
Broadcast gathers only the CSR rows of its acting set, the informed
vertices that may still have an uninformed neighbour. A vertex leaves it
once none of its edges is open; the informed set only grows, so none opens
again and each loop draws for exactly the open edges, in the pinned order.

:func:`step` is one loop of the engine that :func:`run` uses, on the
caller's generator. A one-loop budget draws exactly what that loop needs,
so every trajectory of :func:`run` equals the one that repeated
:func:`step` calls produce on the same stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .generators import _seed, make_rng
from .graph import Graph, _count, _vertex_ids

# Most uniforms one random-contact block evaluates: the buffer stays at
# 64 kB and each per-contact temporary at 32 kB; it also bounds the weight
# table to n * n <= 2 * BLOCK_UNIFORMS cells, 128 kB. With twice the cap,
# the largest blocks lift the heap top past malloc's trim threshold, so
# they hand pages back to the kernel and fault them in again: thousands of
# minor faults per benchmark pass, a count that varies between processes.
BLOCK_UNIFORMS = 1 << 13

__all__ = [
    "ContactModel",
    "SimulationConfig",
    "DiffusionState",
    "TrajectoryRecord",
    "init_state",
    "step",
    "run",
]


class ContactModel(enum.Enum):
    BROADCAST = "broadcast"
    RANDOM_CONTACT = "random-contact"


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of a single diffusion run.

    ``initial_vertices`` optionally pins the starting set instead of
    drawing it uniformly; when given, its length must match
    ``initial_informed``.
    """

    model: ContactModel
    initial_informed: int
    max_loops: int
    seed: int
    initial_vertices: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "model", ContactModel(self.model))
        for name in ("initial_informed", "max_loops"):
            value = _count(getattr(self, name), name, 1)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", _seed(self.seed, "seed"))
        if self.initial_vertices is not None:
            verts = tuple(_vertex_ids(list(self.initial_vertices)).tolist())
            if len(set(verts)) != len(verts):
                raise ValueError("initial_vertices contains duplicates")
            if len(verts) != self.initial_informed:
                raise ValueError(
                    f"initial_vertices has {len(verts)} entries but "
                    f"initial_informed is {self.initial_informed}")
            object.__setattr__(self, "initial_vertices", verts)


@dataclass(frozen=True)
class DiffusionState:
    """Informed-vertex set and current loop index."""

    informed: frozenset[int]
    loop: int

    def mask(self, n: int) -> np.ndarray:
        """Boolean membership array of length n."""
        mask = np.zeros(n, dtype=bool)
        mask[_vertex_ids(list(self.informed), n)] = True
        return mask


def _check_initial(cfg: SimulationConfig, n: int) -> None:
    """Raise ValueError unless cfg's initial set fits on n vertices."""
    if cfg.initial_informed > n:
        raise ValueError(
            f"initial_informed must be <= n = {n}, got {cfg.initial_informed}")
    if cfg.initial_vertices is not None:
        _vertex_ids(cfg.initial_vertices, n)


def _initial_mask(g: Graph, cfg: SimulationConfig,
                  rng: np.random.Generator) -> np.ndarray:
    _check_initial(cfg, g.n)
    mask = np.zeros(g.n, dtype=bool)
    if cfg.initial_vertices is not None:
        # a list: numpy reads a tuple index as one index per axis
        mask[list(cfg.initial_vertices)] = True
    else:
        mask[rng.choice(g.n, size=cfg.initial_informed, replace=False)] = True
    return mask


def init_state(g: Graph, cfg: SimulationConfig,
               rng: np.random.Generator | None = None) -> DiffusionState:
    """Draw the initial informed set and return the loop-0 state.

    When ``rng`` is omitted a fresh stream is created from ``cfg.seed``;
    :func:`run` passes its own stream so that the initial draw and the
    subsequent per-loop draws share one seed.
    """
    mask = _initial_mask(g, cfg, make_rng(cfg.seed) if rng is None else rng)
    return DiffusionState(frozenset(np.flatnonzero(mask).tolist()), 0)


def step(g: Graph, state: DiffusionState, model: ContactModel,
         rng: np.random.Generator) -> DiffusionState:
    """Advance one loop of :func:`run`'s engine, drawing from ``rng``; the
    informed set can only grow."""
    mask = state.mask(g.n)
    _SPREAD[ContactModel(model)](g, mask, [len(state.informed)], 1, rng)
    informed = frozenset(np.flatnonzero(mask).tolist())
    return DiffusionState(informed, state.loop + 1)


@dataclass
class TrajectoryRecord:
    """Informed counts per loop for one run, counts[0] at loop 0."""

    n: int
    counts: list[int]

    @property
    def loops(self) -> int:
        return len(self.counts) - 1

    def saturation_loop(self) -> int | None:
        """First loop at which all n vertices are informed, else None."""
        return self.first_loop_reaching(self.n)

    def first_loop_reaching(self, count: int) -> int | None:
        """First loop with at least ``count`` informed, else None."""
        loop = int(_first_loops(np.array(self.counts) >= count))
        return None if loop < 0 else loop

    def to_csv(self) -> str:
        lines = ["loop,informed_count"]
        lines.extend(f"{loop},{c}" for loop, c in enumerate(self.counts))
        return "\n".join(lines) + "\n"


def _first_loops(reached: np.ndarray) -> np.ndarray:
    """Along the last axis, the first loop where ``reached`` holds, else -1."""
    return np.where(reached.any(axis=-1), reached.argmax(axis=-1), -1)


def run(g: Graph, cfg: SimulationConfig) -> TrajectoryRecord:
    """Loop until saturation or the loop budget runs out.

    The trajectory equals that of repeated :func:`step` calls on one
    stream; see the module docstring for how loops are batched.
    """
    rng = make_rng(cfg.seed)
    mask = _initial_mask(g, cfg, rng)
    counts = [int(np.count_nonzero(mask))]
    if counts[0] < g.n:
        _SPREAD[cfg.model](g, mask, counts, cfg.max_loops, rng)
    if counts[-1] < g.n:
        # the spread stops early only when nothing can act: the remaining
        # loops draw nothing and change nothing
        counts.extend([counts[-1]] * (cfg.max_loops + 1 - len(counts)))
    return TrajectoryRecord(g.n, counts)


# Each spread appends one count per loop to ``counts`` until saturation,
# the loop budget, or a state in which nothing can act; run pads the rest.
# Saturation and the budget are checked after a loop, so a one-loop step
# does no work for a next loop, and a step from a saturated state still
# draws what the contract asks (random-contact: two per actor); run skips
# the spread when loop 0 is saturated.

def _spread_broadcast(g: Graph, mask: np.ndarray, counts: list[int],
                      max_loops: int, rng: np.random.Generator) -> None:
    _, nbr, nbrw = g._adj()
    act = np.flatnonzero(mask)  # ascending; holds every open edge's source
    while True:
        edge, lens = g._gather(act)
        targets = nbr[edge]
        is_open = ~mask[targets]
        if not is_open.any():
            return
        edge, targets = edge[is_open], targets[is_open]
        hit = rng.random(targets.size) < nbrw[edge]
        mask[targets[hit]] = True
        counts.append(int(np.count_nonzero(mask)))
        if counts[-1] == g.n or len(counts) > max_loops:
            return
        # keep the sources with an edge still open, add the newly informed
        sources = act.repeat(lens)[is_open]
        act = np.sort(np.concatenate((sources[~mask[targets]], targets[hit])))
        act = act[np.diff(act, prepend=-1) > 0]  # np.unique is slower


def _spread_random_contact(g: Graph, mask: np.ndarray, counts: list[int],
                           max_loops: int,
                           rng: np.random.Generator) -> None:
    n = g.n
    has_edge = g.degrees() > 0
    table = None
    if max_loops > len(counts) and n * n <= 2 * BLOCK_UNIFORMS:
        # flat index u * n + v holds what _key_weights returns for that key
        eu, ev, ew = g.edge_arrays()
        table = np.zeros((n, n))
        table[eu, ev] = table[ev, eu] = ew
        table[:, mask] = 0.0
    # a block uses at most BLOCK_UNIFORMS uniforms, or one loop's 2a <= 2n
    buf = np.empty(max(BLOCK_UNIFORMS, 2 * n))
    pos = end = 0  # buf[pos:end] drawn, not yet consumed
    block = 1  # loops evaluated at once
    act = None  # vertices that act, fixed until someone new is informed
    while len(counts) <= max_loops:
        if act is None:
            act = (mask & has_edge).nonzero()[0]
            a = act.size
            if a == 0:
                return
            keys = act * n
            cap = max(1, BLOCK_UNIFORMS // (2 * a))
        left = max_loops + 1 - len(counts)
        block = min(block, left, cap)
        need = 2 * a * block
        rest = end - pos
        if rest < need:
            # never past the budget's last loop, so a one-loop step draws
            # exactly 2a; any further ahead is private to run's generator
            buf[:rest] = buf[pos:end]
            end = max(need, min(BLOCK_UNIFORMS, rest + BLOCK_UNIFORMS // 4,
                                2 * a * left))
            rng.random(out=buf[rest:end])
            pos = 0
        # the block's uniforms as (loops, 2, actors): pick row, coin row
        u = buf[pos:pos + need].reshape(block, 2, a)
        targets = (u[:, 0] * (n - 1)).astype(np.int64)
        targets += targets >= act
        hit = u[:, 1] < (table.take(keys + targets) if table is not None
                         else g._key_weights(keys + targets, mask[targets]))
        quiet, j = divmod(int(hit.argmax()), a)
        if not hit[quiet, j]:
            counts.extend([counts[-1]] * block)
            pos += need
            block *= 2
            continue
        # apply the first informing loop only; later loops saw a stale set
        counts.extend([counts[-1]] * quiet)
        informed = targets[quiet][hit[quiet]]
        mask[informed] = True
        if table is not None:
            table[:, informed] = 0.0
        counts.append(int(np.count_nonzero(mask)))
        if counts[-1] == n:
            return
        pos += 2 * a * (quiet + 1)
        block = max(1, 2 * quiet)
        act = None


_SPREAD = {ContactModel.BROADCAST: _spread_broadcast,
           ContactModel.RANDOM_CONTACT: _spread_random_contact}
