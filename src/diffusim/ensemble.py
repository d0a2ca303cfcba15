"""Replicate diffusion runs across seeds and aggregate the trajectories.

Replication i derives its seeds from the base simulation seed through
numpy's SeedSequence spawning: the two 64-bit words of
``SeedSequence(base_seed, spawn_key=(i,))`` become the graph seed and the
run seed for that replication. In fixed-graph mode the graph seed is
ignored and the generator spec's own seed is used once.
``GeneratorSpec._builder`` builds regenerated graphs and says what they share.

Trajectories of unequal length are extended at their terminal value to
the longest horizon (the informed count is absorbing). Per-loop mean and
standard deviation are computed from exact integer sums, and percentiles
are nearest-rank, so every summary statistic is bit-reproducible and
independent of replication order.

The bootstrap interval of :func:`compare_ensembles` draws and reduces its
resamples in row blocks of at most ``BOOTSTRAP_CHUNK_CELLS`` indices.
Bounded draws below 2**32 come from PCG64's own buffered 32-bit words, so
the blocks draw exactly the values of one call and each row's mean is
computed alone: the report is the one a single call gives. Like
scale-free growth, the interval therefore depends on how numpy implements
``Generator.integers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diffusion import SimulationConfig, _check_initial, _first_loops, run
from .generators import GeneratorSpec, _seed
from .graph import _count

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
# resamples and seed of the bootstrap interval in compare_ensembles
BOOTSTRAP_SAMPLES = 10000
BOOTSTRAP_SEED = 0
# most resample indices drawn at once: 512 kB of indices in place of a
# BOOTSTRAP_SAMPLES x size matrix
BOOTSTRAP_CHUNK_CELLS = 1 << 16


def replication_seeds(base_seed: int, index: int) -> tuple[int, int]:
    """(graph_seed, run_seed) for one replication; documented derivation."""
    seq = np.random.SeedSequence(_seed(base_seed, "base seed"),
                                 spawn_key=(index,))
    return tuple(seq.generate_state(2, np.uint64).tolist())


@dataclass(frozen=True)
class EnsembleConfig:
    """A simulation config replicated over derived seeds."""

    base: SimulationConfig
    generator: GeneratorSpec
    replications: int
    regenerate_graph: bool = True

    def __post_init__(self):
        object.__setattr__(self, "replications",
                           _count(self.replications, "replications", 1))
        if isinstance(self.generator, GeneratorSpec):
            _check_initial(self.base, self.generator.n)


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
    def from_times(cls, times: np.ndarray) -> "SaturationStats":
        ok = times[times >= 0]
        censored = times.size - ok.size
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
        """Every field but the per-replication times."""
        return {k: v for k, v in vars(self).items() if k != "times"}


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
        horizon = _count(horizon, "horizon", self.horizon)
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
        rows = zip(range(self.mean.size), self.mean.tolist(), self.sd.tolist(),
                   self.p10.tolist(), self.p50.tolist(), self.p90.tolist())
        return "loop,mean,sd,p10,p50,p90\n" + \
            "".join("%d,%.6f,%.6f,%d,%d,%d\n" % row for row in rows)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "replications": self.replications,
            "horizon": self.horizon,
            "saturation": self.saturation.to_json_dict(),
            "threshold_fraction": THRESHOLD_FRACTION,
            "threshold": self.threshold.to_json_dict(),
        }


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
        saturation=SaturationStats.from_times(sat_times),
        threshold=SaturationStats.from_times(thr_times),
    )


def run_ensemble(cfg: EnsembleConfig) -> EnsembleSummary:
    """Execute the replications and aggregate their trajectories."""
    gen = cfg.generator
    if not isinstance(gen, GeneratorSpec):
        raise ValueError(f"generator must be a GeneratorSpec, got {gen!r}")
    build = gen._builder(cfg.regenerate_graph)
    trajectories: list[list[int]] = []
    for i in range(cfg.replications):
        graph_seed, run_seed = replication_seeds(cfg.base.seed, i)
        # the graph dies with its run: no two are alive at once
        trajectories.append(
            run(build(graph_seed), replace(cfg.base, seed=run_seed)).counts)
    return _aggregate(gen.n, trajectories)


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


def _resample_means(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """Means of BOOTSTRAP_SAMPLES resamples of x, drawn in row blocks.

    The blocks' draws are those of one ``integers`` call of shape
    (BOOTSTRAP_SAMPLES, x.size), and each row's mean is taken alone.
    """
    means = np.empty(BOOTSTRAP_SAMPLES)
    rows = max(1, BOOTSTRAP_CHUNK_CELLS // x.size)
    for start in range(0, BOOTSTRAP_SAMPLES, rows):
        stop = min(start + rows, BOOTSTRAP_SAMPLES)
        idx = rng.integers(0, x.size, size=(stop - start, x.size))
        means[start:stop] = x[idx].mean(axis=1)
    return means


def _bootstrap_mean_diff_ci(a: np.ndarray,
                            b: np.ndarray) -> tuple[float, float]:
    """Percentile bootstrap 95% interval of mean(a) - mean(b)."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    diffs = _resample_means(rng, a) - _resample_means(rng, b)
    return (float(np.percentile(diffs, 2.5)),
            float(np.percentile(diffs, 97.5)))


def compare_ensembles(a: EnsembleSummary,
                      b: EnsembleSummary) -> ComparisonReport:
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

    thr_diff = None
    ci = None
    if a.threshold.mean is not None and b.threshold.mean is not None:
        thr_diff = a.threshold.mean - b.threshold.mean
        ta = a.threshold.times[a.threshold.times >= 0]
        tb = b.threshold.times[b.threshold.times >= 0]
        ci = _bootstrap_mean_diff_ci(ta.astype(np.float64),
                                     tb.astype(np.float64))

    return ComparisonReport(
        mean_diff=mean_diff,
        max_abs_mean_diff=max_abs,
        saturation_mean_a=a.saturation.mean,
        saturation_mean_b=b.saturation.mean,
        saturation_ratio=sat_ratio,
        threshold_mean_a=a.threshold.mean,
        threshold_mean_b=b.threshold.mean,
        threshold_mean_diff=thr_diff,
        threshold_diff_ci95=ci,
    )
