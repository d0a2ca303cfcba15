"""Command-line front end: generate / simulate / analyze / reproduce.

Every command is deterministic given its flags: seeds are explicit
arguments with fixed defaults (never wall-clock derived), and the
``reproduce`` command refuses to run without one. Exit codes are stable
for scripting: 0 success, 1 runtime/IO/format failure, 2 usage error.

Every command runs in three steps: it checks its flags and builds every
config, computes the text of every file it owes, and only then writes them
all through ``_write``. So a command whose checks or runs fail writes no
file.

Output directory resolution: --outdir flag, else the DIFFUSIM_OUTDIR
environment variable, else the current directory; ``_write`` creates it.
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
from .generators import FAMILIES, GeneratorSpec, _seed, _spec
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


def _write(args, files: dict[str, str]) -> None:
    """Write each ``{name: text}`` into the output directory, in order."""
    outdir = Path(getattr(args, "outdir", None)
                  or os.environ.get("DIFFUSIM_OUTDIR") or ".")
    for name, text in files.items():
        path = outdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
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

def cmd_generate(parser, args) -> int:
    try:
        spec = _spec(args.family, args.n, args.edge_prob, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    g = spec.build()
    prefix = args.prefix or (
        f"{args.family.replace('-', '_')}_n{args.n}"
        + ("" if spec.seed is None else f"_seed{spec.seed}"))
    matrix = (export_probability_matrix(g) if args.family == "stochastic"
              else export_link_matrix(g))
    _write(args, {f"{prefix}.matrix.txt": matrix,
                  f"{prefix}.graph.json": graph_to_json(g) + "\n"})
    density = (2 * g.edge_count / (g.n * (g.n - 1))) if g.n > 1 else 0.0
    seed_part = "" if spec.seed is None else f" seed={spec.seed}"
    print(f"family={args.family} n={g.n}{seed_part} "
          f"edges={g.edge_count} density={density:.4f}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

# (section, key) -> dest of the simulate flag it sets
_CONFIG_KEYS = {
    ("generator", "family"): "family",
    ("generator", "n"): "n",
    ("generator", "edge_prob"): "edge_prob",
    ("generator", "seed"): "graph_seed",
    ("simulation", "model"): "model",
    ("simulation", "initial"): "initial",
    ("simulation", "max_loops"): "max_loops",
    ("simulation", "seed"): "seed",
    ("ensemble", "replications"): "replications",
    ("ensemble", "regenerate_graph"): "fixed_graph",
    ("output", "outdir"): "outdir",
    ("output", "prefix"): "prefix",
}


def _config_defaults(path: str, parser) -> dict:
    """``simulate`` option values from an INI config file, by dest, each
    read by its own flag's ``type`` and ``choices``."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise OSError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from exc
    # argparse has no public accessor for a parser's actions or converters
    actions = {a.dest: a for a in parser._actions}
    values = {}
    for (section, key), dest in _CONFIG_KEYS.items():
        if not cp.has_option(section, key):
            continue
        try:
            if dest == "fixed_graph":  # regenerate_graph, negated
                values[dest] = not cp.getboolean(section, key)
            else:
                value = parser._get_value(actions[dest], cp.get(section, key))
                parser._check_value(actions[dest], value)
                values[dest] = value
        except (ValueError, argparse.ArgumentError,
                configparser.Error) as exc:
            # every message names the offending value
            raise ValueError(f"config [{section}] {key}: {exc}") from exc
    return values


def _simulate_one(g, ecfg, prefix) -> tuple[dict[str, str], str]:
    """One initial count's files and summary line."""
    k = ecfg.base.initial_informed
    if ecfg.replications == 1:
        rec = run(g, ecfg.base)
        sat = rec.saturation_loop()
        files = {f"{prefix}.trajectory.csv": rec.to_csv()}
        if sat is None:
            return files, (f"initial={k}: not saturated within {rec.loops} "
                           f"loops (final informed {rec.counts[-1]})")
        return files, f"initial={k}: saturated at loop {sat}"
    summary = run_ensemble(ecfg)
    sat = summary.saturation
    mean = "n/a" if sat.mean is None else f"{sat.mean:.2f}"
    return ({f"{prefix}.ensemble.csv": summary.to_csv(),
             f"{prefix}.ensemble.json":
                 json.dumps(summary.to_json_dict(), indent=2) + "\n"},
            f"initial={k}: replications={ecfg.replications} "
            f"mean_saturation={mean} censored={sat.censored}")


def cmd_simulate(parser, args) -> int:
    if args.graph and {args.family, args.n, args.edge_prob} != {None}:
        parser.error("give --graph or --family, --n, --edge-prob, not both")
    if not (args.graph or args.family):
        parser.error("one of --graph or --family is required")
    if args.graph and args.replications > 1:
        parser.error("ensembles need --family generation parameters "
                     "(a file-loaded graph cannot be regenerated)")
    if args.family and args.n is None:
        parser.error("--family requires --n")
    initials = ([len(args.initial_vertices)] if args.initial_vertices
                else args.initial)
    try:
        spec = None if args.graph else _spec(
            args.family, args.n, args.edge_prob, args.graph_seed)
        ecfgs = [EnsembleConfig(
            base=SimulationConfig(model=args.model, initial_informed=k,
                                  max_loops=args.max_loops, seed=args.seed,
                                  initial_vertices=args.initial_vertices),
            generator=spec, replications=args.replications,
            regenerate_graph=not args.fixed_graph) for k in initials]
    except ValueError as exc:
        parser.error(str(exc))
    g = None
    if args.graph:
        g = _load_graph(args.graph)
    elif args.replications == 1:
        g = spec.build()
    prefix = args.prefix or "simulation"
    runs = [_simulate_one(g, ecfg,
                          f"{prefix}_k{k}" if len(initials) > 1 else prefix)
            for k, ecfg in zip(initials, ecfgs)]
    print(f"model={args.model} seed={args.seed} max_loops={args.max_loops}")
    for files, line in runs:
        _write(args, files)
        print(line)
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
        _write(args, {args.out: text})
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _desk_ensemble(family: str, k: int, seed: int, replications: int):
    """The desk-scale ensemble of ``family`` graphs with ``k`` informed."""
    return run_ensemble(EnsembleConfig(
        SimulationConfig(_DESK["model"], k, _DESK["max_loops"], seed),
        GeneratorSpec(family, _DESK["n"], None, seed), replications))


def _reproduce_trajectories(family: str, seed: int) -> dict[str, str]:
    files = {}
    for k in _DESK["initials"]:
        summary = _desk_ensemble(family, k, seed + k, _DESK["replications"])
        name = f"{family.replace('-', '_')}_trajectory_k{k}.csv"
        files[name] = summary.to_csv()
    return files


def _reproduce_power_law(seed: int) -> dict[str, str]:
    g = GeneratorSpec("scale-free", _DESK["n"], None, seed).build()
    hist = degree_histogram(g)
    return {"degree_histogram.csv": _histogram_csv(hist),
            "power_law_fit.json": json.dumps(
                {"n": g.n, **asdict(fit_power_law(hist)),
                 "max_degree": max(hist),
                 "degree_one_fraction": hist.get(1, 0) / g.n},
                indent=2) + "\n"}


def _reproduce_random_vs_stochastic(seed: int) -> dict[str, str]:
    summaries = {family: _desk_ensemble(family, _DESK["compare_initial"],
                                        seed, _DESK["compare_replications"])
                 for family in ("random", "stochastic")}
    horizon = max(s.horizon for s in summaries.values())
    report = compare_ensembles(summaries["random"].extended(horizon),
                               summaries["stochastic"].extended(horizon))
    return {"random_ensemble.csv": summaries["random"].to_csv(),
            "stochastic_ensemble.csv": summaries["stochastic"].to_csv(),
            "comparison.json":
                json.dumps(report.to_json_dict(), indent=2) + "\n"}


# figure id -> builder(seed), which returns the artifacts as {name: text}
FIGURES = {
    "random-network": partial(_reproduce_trajectories, "random"),
    "stochastic-network": partial(_reproduce_trajectories, "stochastic"),
    "scale-free-network": partial(_reproduce_trajectories, "scale-free"),
    "power-law": _reproduce_power_law,
    "random-vs-stochastic": _reproduce_random_vs_stochastic,
}


def cmd_reproduce(parser, args) -> int:
    params = dict(_DESK, initials=list(_DESK["initials"]))
    if args.from_manifest:
        if args.figure is not None or args.seed is not None:
            parser.error("--from-manifest takes no --figure or --seed")
        manifest = json.loads(Path(args.from_manifest).read_text(
            encoding="utf-8"))
        if not isinstance(manifest, dict) or not isinstance(
                manifest.get("parameters", {}), dict):
            raise ValueError("manifest and parameters must be JSON objects")
        figure = manifest.get("figure")
        if not isinstance(figure, str) or figure not in FIGURES:
            raise ValueError(f"manifest names unknown figure {figure!r}")
        seed = _seed(manifest.get("seed"), "seed")
        recorded = manifest.get("parameters", params)
        differ = {(k, json.dumps(v)) for k, v in recorded.items()} ^ {
            (k, json.dumps(v)) for k, v in params.items()}
        if differ:
            raise ValueError("manifest parameters differ from this build's: "
                             + min(differ)[0])
    else:
        if args.figure is None:
            parser.error("--figure is required (or --from-manifest)")
        if args.seed is None:
            parser.error("--seed is required in reproduce mode")
        figure = args.figure
        # derived run seeds (seed + k) must not turn a negative seed valid
        try:
            seed = _seed(args.seed, "seed")
        except ValueError as exc:
            parser.error(str(exc))
    files = FIGURES[figure](seed)
    if args.from_manifest and manifest.get("outputs", [*files]) != [*files]:
        raise ValueError("manifest outputs differ from this build's")
    manifest = {
        "figure": figure,
        "seed": seed,
        "parameters": params,
        "outputs": list(files),
        "version": __version__,
    }
    files["manifest.json"] = json.dumps(manifest, indent=2,
                                        sort_keys=True) + "\n"
    _write(args, files)
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
    p.add_argument("--graph-seed", type=int, default=0,
                   help="seeds only a generated graph: a single run's or "
                        "--fixed-graph's; a regenerated ensemble derives "
                        "its graph seeds from --seed")
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
    # --out is a path of its own, not a name under $DIFFUSIM_OUTDIR
    p.set_defaults(handler=cmd_analyze, outdir=".")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's values become simulate's defaults, so argparse
            # still ranks every flag given on the command line above them
            args.config_parser.set_defaults(
                **_config_defaults(args.config, args.config_parser))
            args = parser.parse_args(argv)
        return args.handler(parser, args)
    except (ValueError, OSError) as exc:
        # one line, though configparser's messages span several
        print("error:", *str(exc).splitlines(), file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
