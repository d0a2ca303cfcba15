"""Command-line front end: generate / simulate / analyze / reproduce.

Every command is deterministic given its flags: seeds are explicit
arguments with fixed defaults (never wall-clock derived), and the
``reproduce`` command refuses to run without one. Exit codes are stable
for scripting: 0 success, 1 runtime/IO/format failure, 2 usage error.

Output directory resolution: --outdir flag, else the DIFFUSIM_OUTDIR
environment variable, else the current directory.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

from . import __version__
from .analysis import (characteristic_path_length, clustering_coefficient,
                       fit_power_law)
from .diffusion import ContactModel, SimulationConfig, run
from .ensemble import EnsembleConfig, compare_ensembles, run_ensemble
from .generators import FAMILIES, GeneratorSpec
from .graph import Graph, degree_histogram, mean_offdiagonal_weight
from .matrixio import (MatrixFormatError, export_link_matrix,
                       export_probability_matrix, graph_from_json,
                       graph_to_json, import_matrix)

MODELS = tuple(m.value for m in ContactModel)

_DESK = {
    "n": 100,
    "initials": (1, 2, 5, 10, 20, 50),
    "model": "random-contact",
    "max_loops": 1000,
    "replications": 200,
    "compare_replications": 1000,
    "compare_initial": 10,
}


def _outdir(args) -> Path:
    if getattr(args, "outdir", None):
        d = Path(args.outdir)
    elif os.environ.get("DIFFUSIM_OUTDIR"):
        d = Path(os.environ["DIFFUSIM_OUTDIR"])
    else:
        d = Path(".")
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {path}")


def _load_graph(path: str) -> Graph:
    p = Path(path)
    if not p.exists():
        raise MatrixFormatError(f"graph file not found: {path}")
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".json" or text.lstrip().startswith("{"):
        return graph_from_json(text)
    return import_matrix(text)


def _int_list(value: str) -> list[int]:
    """Nonempty list of comma-separated integers; empty items are skipped."""
    try:
        ints = [int(v) for v in value.split(",") if v.strip() != ""]
    except ValueError:
        ints = []
    if not ints:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}")
    return ints


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _generator_spec(parser, family, n, edge_prob, seed) -> GeneratorSpec:
    try:
        return GeneratorSpec(family, n, edge_prob,
                             None if family == "complete" else seed)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_generate(parser, args) -> int:
    spec = _generator_spec(parser, args.family, args.n, args.edge_prob,
                           args.seed)
    g = spec.build()
    outdir = _outdir(args)
    prefix = args.prefix or (
        f"{args.family.replace('-', '_')}_n{args.n}"
        + ("" if args.family == "complete" else f"_seed{args.seed}"))
    matrix = (export_probability_matrix(g) if args.family == "stochastic"
              else export_link_matrix(g))
    _write(outdir / f"{prefix}.matrix.txt", matrix)
    _write(outdir / f"{prefix}.graph.json", graph_to_json(g) + "\n")
    density = (2 * g.edge_count / (g.n * (g.n - 1))) if g.n > 1 else 0.0
    seed_part = "" if spec.seed is None else f" seed={spec.seed}"
    print(f"family={args.family} n={g.n}{seed_part} "
          f"edges={g.edge_count} density={density:.4f}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _not_boolean(value: str) -> bool:
    try:
        return not configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {value!r}") from None


def _one_of(choices):
    def check(value: str) -> str:
        if value not in choices:
            raise ValueError(
                f"expected one of {', '.join(choices)}, got {value!r}")
        return value
    return check


# (section, key) -> (simulate dest, converter)
_CONFIG_KEYS = {
    ("generator", "family"): ("family", _one_of(FAMILIES)),
    ("generator", "n"): ("n", int),
    ("generator", "edge_prob"): ("edge_prob", float),
    ("generator", "seed"): ("graph_seed", int),
    ("simulation", "model"): ("model", _one_of(MODELS)),
    ("simulation", "initial"): ("initial", _int_list),
    ("simulation", "max_loops"): ("max_loops", int),
    ("simulation", "seed"): ("seed", int),
    ("ensemble", "replications"): ("replications", int),
    ("ensemble", "regenerate_graph"): ("fixed_graph", _not_boolean),
    ("output", "outdir"): ("outdir", str),
    ("output", "prefix"): ("prefix", str),
}


def _config_defaults(path: str) -> dict:
    """``simulate`` option values from an INI config file, by dest."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise OSError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from exc
    values = {}
    for (section, key), (dest, conv) in _CONFIG_KEYS.items():
        if cp.has_option(section, key):
            try:
                values[dest] = conv(cp.get(section, key))
            except (ValueError, argparse.ArgumentTypeError,
                    configparser.Error) as exc:
                # every converter's message names the offending value
                raise ValueError(f"config [{section}] {key}: {exc}") from exc
    return values


def _simulate_one(parser, args, g, spec, initial, prefix, outdir) -> None:
    try:
        cfg = SimulationConfig(
            model=args.model,
            initial_informed=initial,
            max_loops=args.max_loops,
            seed=args.seed,
            initial_vertices=args.initial_vertices,
        )
        ecfg = EnsembleConfig(
            base=cfg, generator=spec, replications=args.replications,
            regenerate_graph=not args.fixed_graph)
    except ValueError as exc:
        parser.error(str(exc))
    if args.replications == 1:
        rec = run(g, cfg)
        sat = rec.saturation_loop()
        _write(outdir / f"{prefix}.trajectory.csv", rec.to_csv())
        if sat is None:
            print(f"initial={cfg.initial_informed}: not saturated within "
                  f"{rec.loops} loops (final informed {rec.counts[-1]})")
        else:
            print(f"initial={cfg.initial_informed}: saturated at loop {sat}")
    else:
        summary = run_ensemble(ecfg)
        _write(outdir / f"{prefix}.ensemble.csv", summary.to_csv())
        _write(outdir / f"{prefix}.ensemble.json",
               json.dumps(summary.to_json_dict(), indent=2) + "\n")
        sat = summary.saturation
        mean = "n/a" if sat.mean is None else f"{sat.mean:.2f}"
        print(f"initial={cfg.initial_informed}: replications="
              f"{args.replications} mean_saturation={mean} "
              f"censored={sat.censored}")


def cmd_simulate(parser, args) -> int:
    if args.graph and args.family:
        parser.error("give either --graph or --family, not both")
    g = None
    spec = None
    if args.graph:
        g = _load_graph(args.graph)
        if args.replications > 1:
            parser.error("ensembles need --family generation parameters "
                         "(a file-loaded graph cannot be regenerated)")
    elif args.family:
        if args.n is None:
            parser.error("--family requires --n")
        spec = _generator_spec(parser, args.family, args.n, args.edge_prob,
                               args.graph_seed)
        if args.replications == 1:
            g = spec.build()
    else:
        parser.error("one of --graph or --family is required")

    outdir = _outdir(args)
    prefix = args.prefix or "simulation"
    print(f"model={args.model} seed={args.seed} max_loops={args.max_loops}")
    initials = ([len(args.initial_vertices)] if args.initial_vertices
                else args.initial)
    for initial in initials:
        suffix = f"_k{initial}" if len(initials) > 1 else ""
        _simulate_one(parser, args, g, spec, initial,
                      f"{prefix}{suffix}", outdir)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _histogram_csv(hist) -> str:
    lines = ["degree,count"]
    lines.extend(f"{k},{hist[k]}" for k in sorted(hist))
    return "\n".join(lines) + "\n"


def _json_line(g: Graph, **fields) -> str:
    return json.dumps({"n": g.n, **fields}) + "\n"


def _path_length_json(g: Graph) -> str:
    res = characteristic_path_length(g)
    return _json_line(g, characteristic_path_length=res.value,
                      connected=res.connected,
                      component_size=res.component_size)


# statistic -> renderer(graph), which returns the output text
STATS = {
    "degree-histogram": lambda g: _histogram_csv(degree_histogram(g)),
    "matrix-mean": lambda g: _json_line(
        g, mean_offdiagonal_weight=mean_offdiagonal_weight(g)),
    "clustering": lambda g: _json_line(
        g, clustering_coefficient=clustering_coefficient(g)),
    "path-length": _path_length_json,
    "power-law": lambda g: _json_line(
        g, **asdict(fit_power_law(degree_histogram(g)))),
}


def cmd_analyze(parser, args) -> int:
    text = STATS[args.stat](_load_graph(args.graph))
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _reproduce_trajectories(family: str, seed: int, outdir: Path) -> list[str]:
    d = _DESK
    outputs = []
    for k in d["initials"]:
        base = SimulationConfig(model=d["model"], initial_informed=k,
                                max_loops=d["max_loops"], seed=seed + k)
        spec = GeneratorSpec(family, d["n"], None, seed)
        summary = run_ensemble(EnsembleConfig(
            base=base, generator=spec, replications=d["replications"]))
        name = f"{family.replace('-', '_')}_trajectory_k{k}.csv"
        _write(outdir / name, summary.to_csv())
        outputs.append(name)
    return outputs


def _reproduce_power_law(seed: int, outdir: Path) -> list[str]:
    g = GeneratorSpec("scale-free", _DESK["n"], None, seed).build()
    hist = degree_histogram(g)
    outputs = ["degree_histogram.csv", "power_law_fit.json"]
    _write(outdir / outputs[0], _histogram_csv(hist))
    _write(outdir / outputs[1], json.dumps(
        {"n": g.n, **asdict(fit_power_law(hist)), "max_degree": max(hist),
         "degree_one_fraction": hist.get(1, 0) / g.n}, indent=2) + "\n")
    return outputs


def _reproduce_random_vs_stochastic(seed: int, outdir: Path) -> list[str]:
    d = _DESK
    base = SimulationConfig(model=d["model"],
                            initial_informed=d["compare_initial"],
                            max_loops=d["max_loops"], seed=seed)
    summaries = {}
    for family in ("random", "stochastic"):
        spec = GeneratorSpec(family, d["n"], None, seed)
        summaries[family] = run_ensemble(EnsembleConfig(
            base=base, generator=spec,
            replications=d["compare_replications"]))
    horizon = max(s.horizon for s in summaries.values())
    report = compare_ensembles(summaries["random"].extended(horizon),
                               summaries["stochastic"].extended(horizon))
    outputs = ["random_ensemble.csv", "stochastic_ensemble.csv",
               "comparison.json"]
    _write(outdir / outputs[0], summaries["random"].to_csv())
    _write(outdir / outputs[1], summaries["stochastic"].to_csv())
    _write(outdir / outputs[2],
           json.dumps(report.to_json_dict(), indent=2) + "\n")
    return outputs


# figure id -> builder(seed, outdir), which returns the artifact names
FIGURES = {
    "random-network": partial(_reproduce_trajectories, "random"),
    "stochastic-network": partial(_reproduce_trajectories, "stochastic"),
    "scale-free-network": partial(_reproduce_trajectories, "scale-free"),
    "power-law": _reproduce_power_law,
    "random-vs-stochastic": _reproduce_random_vs_stochastic,
}


def _run_reproduce(figure: str, seed: int, outdir: Path) -> None:
    outputs = FIGURES[figure](seed, outdir)
    manifest = {
        "figure": figure,
        "seed": seed,
        "parameters": dict(_DESK, initials=list(_DESK["initials"])),
        "outputs": outputs,
        "version": __version__,
    }
    _write(outdir / "manifest.json",
           json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_reproduce(parser, args) -> int:
    if args.from_manifest:
        manifest = json.loads(Path(args.from_manifest).read_text(
            encoding="utf-8"))
        if not isinstance(manifest, dict):
            raise ValueError("manifest must be a JSON object")
        figure, seed = manifest.get("figure"), manifest.get("seed")
        if figure not in FIGURES:
            raise ValueError(f"manifest names unknown figure {figure!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"manifest seed must be an integer, got {seed!r}")
    else:
        if args.figure is None:
            parser.error("--figure is required (or --from-manifest)")
        if args.seed is None:
            parser.error("--seed is required in reproduce mode")
        figure, seed = args.figure, args.seed
    outdir = _outdir(args)
    _run_reproduce(figure, seed, outdir)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffusim",
        description="Information-diffusion simulation on complete, random, "
                    "stochastic and scale-free networks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a graph and write "
                                        "matrix text plus JSON dump")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--edge-prob", type=float, default=None,
                   help="edge probability (random family only, default 0.5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir")
    p.add_argument("--prefix")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("simulate", help="run one diffusion or an ensemble "
                                        "and write trajectory CSVs")
    p.add_argument("--graph", help="graph file (.matrix.txt or .graph.json)")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--edge-prob", type=float, default=None)
    p.add_argument("--graph-seed", type=int, default=0)
    p.add_argument("--model", choices=MODELS, default="random-contact")
    p.add_argument("--initial", type=_int_list, default=[1],
                   help="initial informed count(s), comma separated")
    p.add_argument("--initial-vertices", type=_int_list, default=None,
                   help="explicit initial vertex ids (overrides --initial)")
    p.add_argument("--max-loops", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--fixed-graph", action="store_true",
                   help="reuse one graph across replications instead of "
                        "regenerating per replication")
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--outdir")
    p.add_argument("--prefix")
    # main installs --config values as this parser's defaults
    p.set_defaults(handler=cmd_simulate, config_parser=p)

    p = sub.add_parser("analyze", help="compute a statistic of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--stat", required=True, choices=STATS)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("reproduce", help="write the canned desk-scale data "
                                         "bundle for one figure")
    p.add_argument("--figure", choices=FIGURES)
    p.add_argument("--seed", type=int)
    p.add_argument("--from-manifest",
                   help="re-execute a previously written manifest.json")
    p.add_argument("--outdir")
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's values become simulate's defaults, so argparse
            # still ranks every flag given on the command line above them
            args.config_parser.set_defaults(**_config_defaults(args.config))
            args = parser.parse_args(argv)
        return args.handler(parser, args)
    except (MatrixFormatError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
