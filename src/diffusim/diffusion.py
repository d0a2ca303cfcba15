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

For random-contact, :func:`run` draws uniforms in blocks and consumes
them by cursor. ``Generator.random`` spends exactly one 64-bit word of the
stream per double, so ``random(a)`` followed by ``random(b)`` returns the
same values as ``random(a + b)``: drawing ahead changes no value that any
loop sees. Since the acting set cannot change until someone new is
informed, a block of loops is evaluated at once; only the first informing
loop is applied, and the uniforms of the loops after it stay buffered for
the next block. Broadcast gathers a loop's attempts from the CSR adjacency
in one pass, in the pinned order. Every trajectory of :func:`run` equals
the one that repeated :func:`step` calls produce on the same stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .generators import make_rng
from .graph import Graph

# Most uniforms one random-contact block evaluates: the buffer stays at
# 64 kB and each per-contact temporary at 32 kB. With twice the cap, the
# largest blocks lift the heap top past malloc's trim threshold, so they
# hand pages back to the kernel and fault them in again: thousands of
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
        if isinstance(self.model, str):
            object.__setattr__(self, "model", ContactModel(self.model))
        if self.initial_informed < 1:
            raise ValueError(
                f"initial_informed must be >= 1, got {self.initial_informed}")
        if self.max_loops < 1:
            raise ValueError(f"max_loops must be >= 1, got {self.max_loops}")
        if self.initial_vertices is not None:
            verts = tuple(int(v) for v in self.initial_vertices)
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
    _mask: np.ndarray | None = field(
        default=None, compare=False, repr=False)

    def mask(self, n: int) -> np.ndarray:
        """Boolean membership array of length n (cached when possible)."""
        if self._mask is not None and self._mask.size == n:
            return self._mask
        m = np.zeros(n, dtype=bool)
        if self.informed:
            m[list(self.informed)] = True
        return m


def _initial_mask(g: Graph, cfg: SimulationConfig,
                  rng: np.random.Generator | None) -> np.ndarray:
    if not 1 <= cfg.initial_informed <= g.n:
        raise ValueError(
            f"initial_informed must be in [1, {g.n}], got {cfg.initial_informed}")
    mask = np.zeros(g.n, dtype=bool)
    if cfg.initial_vertices is not None:
        verts = cfg.initial_vertices
        if any(not 0 <= v < g.n for v in verts):
            raise ValueError("initial vertex id outside [0, n)")
        mask[list(verts)] = True
    else:
        if rng is None:
            rng = make_rng(cfg.seed)
        mask[rng.choice(g.n, size=cfg.initial_informed, replace=False)] = True
    return mask


def init_state(g: Graph, cfg: SimulationConfig,
               rng: np.random.Generator | None = None) -> DiffusionState:
    """Draw the initial informed set and return the loop-0 state.

    When ``rng`` is omitted a fresh stream is created from ``cfg.seed``;
    :func:`run` passes its own stream so that the initial draw and the
    subsequent per-loop draws share one seed.
    """
    mask = _initial_mask(g, cfg, rng)
    return DiffusionState(frozenset(np.flatnonzero(mask).tolist()), 0, mask)


def _open_edges(g: Graph, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Targets and weights of every edge from an informed to an uninformed
    vertex, in broadcast draw order (source asc, then target asc)."""
    _, nbr, nbrw = g._adj()
    edge = g._gather(np.flatnonzero(mask))
    targets = nbr[edge]
    is_open = ~mask[targets]
    return targets[is_open], nbrw[edge[is_open]]


def _contacts(n: int, act: np.ndarray, u: np.ndarray,
              weight) -> tuple[np.ndarray, np.ndarray]:
    """Targets of actors ``act`` over a block of loops, and which contacts
    inform someone new.

    ``u`` holds the loops' uniforms as (loops, 2, actors): the pick row,
    then the coin row, as one loop draws them. ``weight(us, vs)`` is the
    weight of edge {u, v} while v is uninformed, else 0.
    """
    targets = (u[:, 0] * (n - 1)).astype(np.int64)
    targets += targets >= act
    return targets, u[:, 1] < weight(act, targets)


def _weights_to_uninformed(g: Graph, mask: np.ndarray):
    return lambda us, vs: np.where(mask[vs], 0.0, g.pair_weights(us, vs))


def step(g: Graph, state: DiffusionState, model: ContactModel,
         rng: np.random.Generator) -> DiffusionState:
    """Advance one loop; the informed set can only grow."""
    mask = state.mask(g.n)
    new_mask = mask.copy()
    if ContactModel(model) is ContactModel.BROADCAST:
        targets, weights = _open_edges(g, mask)
        new_mask[targets[rng.random(targets.size) < weights]] = True
    else:
        act = np.flatnonzero(mask & (g.degrees() > 0))
        if act.size:
            u = rng.random(2 * act.size).reshape(1, 2, act.size)
            targets, hit = _contacts(g.n, act, u,
                                     _weights_to_uninformed(g, mask))
            new_mask[targets[hit]] = True
    informed = frozenset(np.flatnonzero(new_mask).tolist())
    return DiffusionState(informed, state.loop + 1, new_mask)


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
        for loop, c in enumerate(self.counts):
            if c == self.n:
                return loop
        return None

    def first_loop_reaching(self, count: int) -> int | None:
        """First loop with at least ``count`` informed, else None."""
        for loop, c in enumerate(self.counts):
            if c >= count:
                return loop
        return None

    def to_csv(self) -> str:
        lines = ["loop,informed_count"]
        lines.extend(f"{loop},{c}" for loop, c in enumerate(self.counts))
        return "\n".join(lines) + "\n"


def run(g: Graph, cfg: SimulationConfig) -> TrajectoryRecord:
    """Loop until saturation or the loop budget runs out.

    The trajectory equals that of repeated :func:`step` calls on one
    stream; see the module docstring for how loops are batched.
    """
    rng = make_rng(cfg.seed)
    mask = _initial_mask(g, cfg, rng)
    counts = [int(np.count_nonzero(mask))]
    if cfg.model is ContactModel.BROADCAST:
        _spread_broadcast(g, mask, counts, cfg.max_loops, rng)
    else:
        _spread_random_contact(g, mask, counts, cfg.max_loops, rng)
    return TrajectoryRecord(g.n, counts)


def _spread_broadcast(g: Graph, mask: np.ndarray, counts: list[int],
                      max_loops: int, rng: np.random.Generator) -> None:
    while counts[-1] < g.n and len(counts) <= max_loops:
        targets, weights = _open_edges(g, mask)
        if targets.size == 0:
            # nothing to attempt: no draws, and no loop changes anything
            counts.extend([counts[-1]] * (max_loops + 1 - len(counts)))
            return
        mask[targets[rng.random(targets.size) < weights]] = True
        counts.append(int(np.count_nonzero(mask)))


def _spread_random_contact(g: Graph, mask: np.ndarray, counts: list[int],
                           max_loops: int,
                           rng: np.random.Generator) -> None:
    n = g.n
    has_edge = g.degrees() > 0
    weight = _weights_to_uninformed(g, mask)
    buf, pos = np.empty(0), 0  # drawn uniforms; buf[pos:] not yet consumed
    block = 1  # loops evaluated at once
    act = None  # vertices that act, fixed until someone new is informed
    while counts[-1] < n and len(counts) <= max_loops:
        if act is None:
            act = np.flatnonzero(mask & has_edge)
            if act.size == 0:
                # nobody can act: no draws, and no loop changes anything
                counts.extend([counts[-1]] * (max_loops + 1 - len(counts)))
                return
        a = act.size
        block = min(block, max_loops + 1 - len(counts),
                    max(1, BLOCK_UNIFORMS // (2 * a)))
        need = 2 * a * block
        if buf.size - pos < need:
            buf = np.concatenate((buf[pos:],
                                  rng.random(need - (buf.size - pos))))
            pos = 0
        targets, hit = _contacts(
            n, act, buf[pos:pos + need].reshape(block, 2, a), weight)
        first = int(hit.argmax())
        if not hit.flat[first]:
            counts.extend([counts[-1]] * block)
            pos += need
            block *= 2
            continue
        # apply the first informing loop only; later loops saw a stale set
        quiet = first // a
        counts.extend([counts[-1]] * quiet)
        newly = targets[quiet][hit[quiet]]
        mask[newly] = True
        counts.append(int(np.count_nonzero(mask)))
        pos += 2 * a * (quiet + 1)
        block = max(1, 2 * quiet)
        act = None
