"""Replicate diffusion runs across seeds and aggregate the trajectories.

Replication i derives its seeds from the base simulation seed through
numpy's SeedSequence spawning: the two 64-bit words of
``SeedSequence(base_seed, spawn_key=(i,))`` become the graph seed and the
run seed for that replication. In fixed-graph mode the graph seed is
ignored and the generator spec's own seed is used once.

Trajectories of unequal length are extended at their terminal value to
the longest horizon (the informed count is absorbing). Per-loop mean and
standard deviation are computed from exact integer sums, and percentiles
are nearest-rank, so every summary statistic is bit-reproducible and
independent of replication order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import SimulationConfig, run
from .generators import GeneratorSpec
from .graph import Graph

__all__ = [
    "EnsembleConfig",
    "EnsembleSummary",
    "SaturationStats",
    "ComparisonReport",
    "replication_seeds",
    "run_ensemble",
    "compare_ensembles",
]

# informed fraction whose first-passage loop is tracked alongside saturation
THRESHOLD_FRACTION = 0.9


def replication_seeds(base_seed: int, index: int) -> tuple[int, int]:
    """(graph_seed, run_seed) for one replication; documented derivation."""
    words = np.random.SeedSequence(base_seed, spawn_key=(index,)) \
        .generate_state(2, np.uint64)
    return int(words[0]), int(words[1])


@dataclass(frozen=True)
class EnsembleConfig:
    """A simulation config replicated over derived seeds."""

    base: SimulationConfig
    generator: GeneratorSpec
    replications: int
    regenerate_graph: bool = True

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(
                f"replications must be >= 1, got {self.replications}")


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> np.ndarray:
    """Nearest-rank percentile along axis 0 of a sorted array."""
    r = sorted_values.shape[0]
    idx = max(math.ceil(pct / 100.0 * r) - 1, 0)
    return sorted_values[idx]


@dataclass(frozen=True, eq=False)
class SaturationStats:
    """First-passage loop statistics with censoring bookkeeping."""

    mean: float | None
    p10: int | None
    p50: int | None
    p90: int | None
    censored: int
    times: np.ndarray  # per replication; -1 where censored

    @classmethod
    def from_times(cls, times: np.ndarray,
                   replications: int) -> "SaturationStats":
        ok = times[times >= 0]
        censored = replications - ok.size
        if ok.size == 0:
            return cls(None, None, None, None, censored, times)
        srt = np.sort(ok)
        return cls(
            mean=float(ok.sum()) / ok.size,
            p10=int(_nearest_rank(srt, 10)),
            p50=int(_nearest_rank(srt, 50)),
            p90=int(_nearest_rank(srt, 90)),
            censored=censored,
            times=times,
        )

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "p10": self.p10,
            "p50": self.p50,
            "p90": self.p90,
            "censored": self.censored,
        }


@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Per-loop aggregate statistics over the replications."""

    n: int
    replications: int
    mean: np.ndarray
    sd: np.ndarray
    p10: np.ndarray
    p50: np.ndarray
    p90: np.ndarray
    saturation: SaturationStats
    threshold: SaturationStats  # first loop reaching THRESHOLD_FRACTION * n

    @property
    def horizon(self) -> int:
        """Last loop index covered by the per-loop statistics."""
        return self.mean.size - 1

    def extended(self, horizon: int) -> "EnsembleSummary":
        """Copy with per-loop stats repeated at their terminal values."""
        if horizon < self.horizon:
            raise ValueError(
                f"cannot shrink horizon {self.horizon} to {horizon}")
        if horizon == self.horizon:
            return self
        pad = horizon - self.horizon

        def ext(a: np.ndarray) -> np.ndarray:
            return np.concatenate([a, np.full(pad, a[-1], dtype=a.dtype)])

        return EnsembleSummary(
            self.n, self.replications, ext(self.mean), ext(self.sd),
            ext(self.p10), ext(self.p50), ext(self.p90),
            self.saturation, self.threshold)

    def to_csv(self) -> str:
        lines = ["loop,mean,sd,p10,p50,p90"]
        for loop in range(self.mean.size):
            lines.append(
                f"{loop},{self.mean[loop]:.6f},{self.sd[loop]:.6f},"
                f"{int(self.p10[loop])},{int(self.p50[loop])},"
                f"{int(self.p90[loop])}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "replications": self.replications,
            "horizon": self.horizon,
            "saturation": self.saturation.to_json_dict(),
            "threshold_fraction": THRESHOLD_FRACTION,
            "threshold": self.threshold.to_json_dict(),
        }


def _first_loops(reached: np.ndarray) -> np.ndarray:
    """Per row, the first loop at which ``reached`` holds, else -1."""
    return np.where(reached.any(axis=1), reached.argmax(axis=1), -1)


def _aggregate(n: int, trajectories: list[list[int]]) -> EnsembleSummary:
    reps = len(trajectories)
    horizon = max(len(t) for t in trajectories) - 1
    arr = np.empty((reps, horizon + 1), dtype=np.int64)
    for i, t in enumerate(trajectories):
        arr[i, :len(t)] = t
        arr[i, len(t):] = t[-1]

    sums = arr.sum(axis=0)
    sumsq = (arr * arr).sum(axis=0)
    mean = sums / reps
    var = np.maximum(sumsq / reps - mean * mean, 0.0)
    sd = np.sqrt(var)
    srt = np.sort(arr, axis=0)

    sat_times = _first_loops(arr == n)
    thr_times = _first_loops(arr >= math.ceil(THRESHOLD_FRACTION * n))

    return EnsembleSummary(
        n=n,
        replications=reps,
        mean=mean,
        sd=sd,
        p10=_nearest_rank(srt, 10),
        p50=_nearest_rank(srt, 50),
        p90=_nearest_rank(srt, 90),
        saturation=SaturationStats.from_times(sat_times, reps),
        threshold=SaturationStats.from_times(thr_times, reps),
    )


def run_ensemble(cfg: EnsembleConfig) -> EnsembleSummary:
    """Execute the replications and aggregate their trajectories."""
    fixed_graph: Graph | None = None
    if not cfg.regenerate_graph or cfg.generator.family == "complete":
        fixed_graph = cfg.generator.build()

    trajectories: list[list[int]] = []
    for i in range(cfg.replications):
        graph_seed, run_seed = replication_seeds(cfg.base.seed, i)
        if fixed_graph is not None:
            g = fixed_graph
        else:
            g = cfg.generator.with_seed(graph_seed).build()
        rep_cfg = SimulationConfig(
            model=cfg.base.model,
            initial_informed=cfg.base.initial_informed,
            max_loops=cfg.base.max_loops,
            seed=run_seed,
            initial_vertices=cfg.base.initial_vertices,
        )
        trajectories.append(run(g, rep_cfg).counts)
    return _aggregate(cfg.generator.n, trajectories)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-loop and first-passage comparison of two ensembles (a vs b)."""

    mean_diff: np.ndarray
    max_abs_mean_diff: float
    saturation_mean_a: float | None
    saturation_mean_b: float | None
    saturation_ratio: float | None
    threshold_mean_a: float | None
    threshold_mean_b: float | None
    threshold_mean_diff: float | None
    threshold_diff_ci95: tuple[float, float] | None

    def to_json_dict(self) -> dict:
        return {
            "max_abs_mean_diff": self.max_abs_mean_diff,
            "mean_diff": [float(d) for d in self.mean_diff],
            "saturation_mean_a": self.saturation_mean_a,
            "saturation_mean_b": self.saturation_mean_b,
            "saturation_ratio": self.saturation_ratio,
            "threshold_fraction": THRESHOLD_FRACTION,
            "threshold_mean_a": self.threshold_mean_a,
            "threshold_mean_b": self.threshold_mean_b,
            "threshold_mean_diff": self.threshold_mean_diff,
            "threshold_diff_ci95": (
                list(self.threshold_diff_ci95)
                if self.threshold_diff_ci95 is not None else None),
        }


def _bootstrap_mean_diff_ci(a: np.ndarray, b: np.ndarray,
                            samples: int, seed: int,
                            lo_pct: float = 2.5,
                            hi_pct: float = 97.5) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, a.size, size=(samples, a.size))
    ib = rng.integers(0, b.size, size=(samples, b.size))
    diffs = a[ia].mean(axis=1) - b[ib].mean(axis=1)
    return (float(np.percentile(diffs, lo_pct)),
            float(np.percentile(diffs, hi_pct)))


def compare_ensembles(a: EnsembleSummary, b: EnsembleSummary,
                      bootstrap_samples: int = 10000,
                      bootstrap_seed: int = 0) -> ComparisonReport:
    """Report mean-trajectory and first-passage differences (a minus b).

    Both summaries must describe the same vertex count and the same loop
    horizon (use :meth:`EnsembleSummary.extended` to align horizons).
    """
    if a.n != b.n:
        raise ValueError(f"vertex counts differ: {a.n} vs {b.n}")
    if a.horizon != b.horizon:
        raise ValueError(
            f"loop horizons differ: {a.horizon} vs {b.horizon}")

    mean_diff = a.mean - b.mean
    max_abs = float(np.abs(mean_diff).max())

    sat_ratio = None
    if (a.saturation.mean is not None and b.saturation.mean is not None
            and b.saturation.mean > 0):
        sat_ratio = a.saturation.mean / b.saturation.mean

    ta = a.threshold.times[a.threshold.times >= 0]
    tb = b.threshold.times[b.threshold.times >= 0]
    thr_diff = None
    ci = None
    if ta.size and tb.size:
        thr_diff = float(ta.mean() - tb.mean())
        ci = _bootstrap_mean_diff_ci(
            ta.astype(np.float64), tb.astype(np.float64),
            bootstrap_samples, bootstrap_seed)

    return ComparisonReport(
        mean_diff=mean_diff,
        max_abs_mean_diff=max_abs,
        saturation_mean_a=a.saturation.mean,
        saturation_mean_b=b.saturation.mean,
        saturation_ratio=sat_ratio,
        threshold_mean_a=float(ta.mean()) if ta.size else None,
        threshold_mean_b=float(tb.mean()) if tb.size else None,
        threshold_mean_diff=thr_diff,
        threshold_diff_ci95=ci,
    )
