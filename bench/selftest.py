"""Checks of the benchmark itself; exits non-zero if one fails.

    python3 bench/selftest.py [workload ...]

* Hooks report a name that diffusim no longer has instead of failing, and
  put back everything they replaced.
* For each workload, two traced runs at the pinned seed pass their output
  checks, repeat every count metric exactly, and have layer self times
  that add up to ``trace.pass_s`` with the remainder.
* For each workload, an untraced run at another seed passes its checks.
* Both kinds of run report exactly the metrics, with the units, that
  ``BENCHMARK.json`` declares.

The runs are short (``--seconds 1``), so the timings they print are not
measurements. A full check takes a few minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hooks  # noqa: E402
import workloads  # noqa: E402


def check_missing_hooks() -> list[str]:
    import diffusim.graph
    original = diffusim.graph.Graph.degrees
    with hooks.Patch() as patch:
        patch.wrap("diffusim.graph.Graph", "no_such_method", lambda fn: fn)
        patch.wrap("diffusim.no_such_module", "run", lambda fn: fn)
        hooks.Tracer().install(patch)
        replaced = diffusim.graph.Graph.degrees is not original
    errors = []
    if patch.missing != ["diffusim.graph.Graph.no_such_method",
                         "diffusim.no_such_module.run"]:
        errors.append(f"missing hooks reported as {patch.missing}")
    if not replaced or diffusim.graph.Graph.degrees is not original:
        errors.append("Graph.degrees was not wrapped and then restored")
    return errors


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    result["log"] = out
    return result


def check_workload(workload: str, declared: dict) -> list[str]:
    errors = []
    first, second = (run(workload, workloads.PINNED_SEED, 1)
                     for _ in range(2))
    other = run(workload, workloads.PINNED_SEED + 1, 0)
    for label, result in (("traced", first), ("traced again", second),
                          ("other seed", other)):
        if not result["correct"] or result["failed"]:
            errors.append(f"{label} run failed its checks:\n{result['log']}")
    for result, kind in ((first, "per_layer"), (other, "end_to_end")):
        units = {m["name"]: m["unit"] for m in declared[kind]}
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        if reported != units:
            diff = sorted(set(reported.items()) ^ set(units.items()))
            errors.append(f"{kind} metrics differ from BENCHMARK.json: {diff}")
    for name in hooks.COUNT_METRICS:
        a, b = (r["metrics"][name]["value"] for r in (first, second))
        if a != b:
            errors.append(f"{name} changed between runs: {a} vs {b}")
    m = {name: v["value"] for name, v in first["metrics"].items()}
    total = sum(m[name] for name in hooks.SELF_METRICS.values())
    if not math.isclose(total + m["trace.remainder_s"], m["trace.pass_s"],
                        rel_tol=1e-9):
        errors.append(f"self times {total} + remainder "
                      f"{m['trace.remainder_s']} != {m['trace.pass_s']}")
    return errors


def main(argv: list[str]) -> int:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    errors = check_missing_hooks()
    for workload in argv or list(workloads.WORKLOADS):
        errors += [f"{workload}: {e}"
                   for e in check_workload(workload, declared)]
    for error in errors:
        print(f"FAIL {error}")
    print("selftest passed" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
