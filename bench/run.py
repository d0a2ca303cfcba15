"""Benchmark of diffusim: one workload per run, timed, checked and reported.

    python3 bench/run.py --workload sf-contact --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports diffusim from ``src``.
A run prepares the workload's inputs from ``--seed``, runs the body once
to warm caches, then repeats it for ``--seconds`` seconds. ``--trace 0``
reports the end-to-end metrics. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics. Every pass's outputs are
checked. The last line of stdout is the result as JSON. Details, with the
environment, go to ``.bench_out/`` in the checkout, and a traced run also
saves its spans there.
"""

from __future__ import annotations

import os

# numpy's BLAS/OpenMP pools size themselves on first import. One thread
# keeps a two-core machine measuring the program and not the scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hooks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("sf-contact", "dense-contact", "large-graph")
MIN_PASSES = 3
# no pass starts after this many seconds, so a run ends well within 180 s
BUDGET_S = 110.0
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "rep_p50_ms": "ms",
    "rep_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# fresh interpreter: imports plus the workload's input preparation
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]].prepare(int(sys.argv[4]), None)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values) -> dict:
    """Median and quartiles, with the sample count."""
    v = sorted(values)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
    return {"median": statistics.median(v), "q1": q1, "q3": q3, "n": len(v)}


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer no percentile qualifies; the maximum stands
    in and is reported as the 100th percentile.
    """
    v = sorted(values)
    i = len(v) - 11 if len(v) > 10 else len(v) - 1
    return 100.0 * (i + 1) / len(v), v[i]


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu or platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from interpreter start to prepared inputs, once per probe."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH),
            workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return times


class Ledger:
    """Operations attempted and failed.

    The warm-up pass sets the reference digests and every later pass must
    reproduce them. At the pinned seed every pass must also match
    ``golden.json``.
    """

    def __init__(self, golden: dict | None) -> None:
        self.golden = golden
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, results: dict) -> None:
        if self.reference is None:
            self.reference = {op: d for op, (d, _) in results.items()}
        for op, (digest, problems) in results.items():
            problems = list(problems)
            if digest != self.reference.get(op):
                problems.append("digest differs from the warm-up pass")
            if self.golden is not None and digest != self.golden.get(op):
                problems.append("digest differs from golden.json")
            self.record(f"{label} {op}", problems)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


class Passes:
    """Timed passes on identical inputs, each cut into segments.

    Every pass makes the same calls, so segment k of one pass matches
    segment k of the others. Taking each segment's median over the passes
    keeps a burst of machine noise in one pass out of the result.
    """

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.segments: list[np.ndarray] = []
        self.rep_marks: list[list[int]] = []

    def add(self, start: float, end: float, clock) -> None:
        self.walls.append(end - start)
        self.segments.append(np.diff([start, *clock.marks, end]))
        self.rep_marks.append(clock.rep_marks)

    def _aligned(self) -> bool:
        return len({s.size for s in self.segments}) == 1 \
            and all(m == self.rep_marks[0] for m in self.rep_marks)

    def wall(self) -> float:
        """Pass time: the sum over segments of each one's median."""
        if not self._aligned():
            return statistics.median(self.walls)
        return float(np.median(self.segments, axis=0).sum())

    def reps(self) -> np.ndarray:
        """Each replication's median time over the passes."""
        if not self._aligned():
            return np.concatenate([s[m] for s, m in
                                   zip(self.segments, self.rep_marks)])
        return np.median([s[self.rep_marks[0]] for s in self.segments],
                         axis=0)


def timed_pass(workload, inputs, ledger, label, passes: Passes,
               tracer=None) -> list[str]:
    """Run the body once, check it and add it to ``passes``; return the
    hook targets that could not be found."""
    clock = hooks.PassClock()
    gc.collect()
    with hooks.Patch() as patch:
        if tracer is not None:
            tracer.install(patch)
        clock.install(patch)
        if tracer is not None:
            root = tracer.open(hooks.PASS_SPAN)
        start = time.perf_counter()
        outputs = workload.body(inputs, clock)
        end = time.perf_counter()
        if tracer is not None:
            tracer.close(root)
            tracer.current_pass += 1
    passes.add(start, end, clock)
    ledger.check(label, workload.check(inputs, outputs))
    return patch.missing


def run(args, workdir: Path) -> tuple[dict, dict]:
    import workloads  # imports diffusim, which main() has put on the path

    workload = workloads.WORKLOADS[args.workload]
    golden = None
    if args.seed == workloads.PINNED_SEED:
        golden = json.loads((BENCH / "golden.json").read_text())[workload.name]
    ledger = Ledger(golden)
    report: dict = {"workload": workload.name, "seed": args.seed,
                    "trace": args.trace, "environment": environment()}
    if not args.trace:
        report["setup_probes_s"] = measure_setup(workload.name, args.seed)
    t = time.perf_counter()
    inputs = workload.prepare(args.seed, workdir)
    report["prepare_s"] = time.perf_counter() - t

    # warm-up: lazy set-up and caches fill with the same inputs every pass
    # uses; a traced run also counts the work here, where no clock runs
    counters = hooks.Counters() if args.trace else None
    missing = set()
    with hooks.Patch() as patch:
        if counters is not None:
            counters.install(patch)
        t = time.perf_counter()
        outputs = workload.body(inputs, hooks.PassClock())
        report["warmup_s"] = time.perf_counter() - t
    missing.update(patch.missing)
    ledger.check("warm-up", workload.check(inputs, outputs))
    del outputs
    if counters is not None:
        ledger.record("warm-up step invariants", counters.problems[:3])

    tracer = hooks.Tracer() if args.trace else None
    untraced, traced = Passes(), Passes()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= BUDGET_S or (len(untraced.walls) >= MIN_PASSES
                                   and elapsed >= args.seconds):
            break
        missing.update(timed_pass(workload, inputs, ledger,
                                  f"pass {len(untraced.walls)}", untraced))
        if tracer is not None:
            missing.update(timed_pass(
                workload, inputs, ledger,
                f"traced pass {len(traced.walls)}", traced, tracer))

    wall = untraced.wall()
    report.update(passes_s=untraced.walls, traced_passes_s=traced.walls,
                  segments=int(untraced.segments[0].size), wall_s=wall,
                  reference_digests=ledger.reference,
                  missing_hooks=sorted(missing), problems=ledger.problems)
    if not args.trace:
        reps = untraced.reps()
        tail_pct, tail_s = tail(reps)
        report.update(setup_s=quartiles(report["setup_probes_s"]),
                      rep_s=quartiles(reps), rep_tail_percentile=tail_pct)
        metrics = {
            "setup_s": report["setup_s"]["median"] + report["prepare_s"],
            "wall_s": wall,
            "reps_per_s": reps.size / wall,
            "rep_p50_ms": float(np.median(reps)) * 1e3,
            "rep_tail_ms": tail_s * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = layer_metrics(tracer, counters, wall,
                                       traced.wall(), len(missing))
        tracer.save(OUT / f"{workload.name}-seed{args.seed}-spans.npz")
    report["metrics"] = metrics
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return report, result


def layer_metrics(tracer, counters, untraced_wall: float,
                  traced_wall: float, missing: int):
    """Per-layer metrics, each per traced pass; self times plus the
    remainder add up to ``trace.pass_s``."""
    passes = tracer.current_pass
    own = tracer.self_times()
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    metrics = {metric: own.get(span, 0.0) / passes
               for span, metric in hooks.SELF_METRICS.items()}
    units = dict.fromkeys(metrics, "s")
    counts = counters.metrics()
    metrics.update(counts)
    units.update(hooks.COUNT_METRICS)
    # a loop's whole cost: the run's own time plus the lookups it makes
    in_run = np.isin(spans["name"], [
        i for i, name in enumerate(tracer.names)
        if name in ("diffusion.run", "diffusion.broadcast")])
    loops = counts["diffusion.loops"]
    metrics["diffusion.us_per_loop"] = (
        float(dur[in_run].sum()) / passes / loops * 1e6 if loops else 0.0)
    is_root = spans["name"] == tracer.names.index(hooks.PASS_SPAN)
    metrics["trace.pass_s"] = float(dur[is_root].sum()) / passes
    metrics["trace.remainder_s"] = own[hooks.PASS_SPAN] / passes
    metrics["trace.overhead_frac"] = (
        (traced_wall - untraced_wall) / untraced_wall)
    metrics["trace.missing_spans"] = missing
    units.update({"diffusion.us_per_loop": "us",
                  "trace.pass_s": "s", "trace.remainder_s": "s",
                  "trace.overhead_frac": "ratio",
                  "trace.missing_spans": "count"})
    return metrics, units


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"{report['workload']} seed={report['seed']} "
          f"trace={report['trace']}: python {env['python']}, "
          f"numpy {env['numpy']}, {env['cpu']}, nproc {env['nproc']}, "
          f"BLAS threads 1")
    walls = quartiles(report["passes_s"])
    print(f"warm-up {report['warmup_s']:.3f} s; wall_s {report['wall_s']:.6g}"
          f" from {walls['n']} passes of {report['segments']} segments "
          f"(whole passes: median {walls['median']:.6g} q1 {walls['q1']:.6g}"
          f" q3 {walls['q3']:.6g}); {len(report['traced_passes_s'])} traced")
    for key in ("setup_s", "rep_s"):
        if key in report:
            q = report[key]
            print(f"{key}: median {q['median']:.6g} "
                  f"q1 {q['q1']:.6g} q3 {q['q3']:.6g} n={q['n']}")
    if "rep_tail_percentile" in report:
        print(f"rep_tail_ms is p{report['rep_tail_percentile']:.2f}")
    for hook in report["missing_hooks"]:
        print(f"missing span: {hook}")
    for problem in report["problems"]:
        print(f"FAILED {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diffusim" / "__init__.py").is_file():
        print(f"error: no diffusim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        report, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
