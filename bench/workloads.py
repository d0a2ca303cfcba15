"""The benchmark's workloads: inputs made from a seed, a timed body, and a
check of what the body returned.

Every pass of a run gets the same inputs, so every pass, traced or not,
must return the same output digests. At the pinned seed the digests must
also match the values recorded in ``golden.json``; at any seed the outputs
must satisfy the invariants below. An operation that raises or fails its
check is a failed operation.

The body calls diffusim through module attributes (``dm.run``,
``diffusim.cli.main``) at call time, so that hooks installed on those
names see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import diffusim as dm
import diffusim.cli

PINNED_SEED = 0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _graph_digest(g) -> str:
    return _digest(g.n, *(a.tobytes() for a in g.edge_arrays()))


def _attempt(out: dict, op: str, fn) -> None:
    # a workload boundary: the failure is recorded and checked, not raised
    try:
        out[op] = fn()
    except Exception as exc:
        out[op] = exc


def _check_all(out: dict, checks: dict) -> dict:
    """op -> (digest or None, problems) from one checker per operation."""
    results = {}
    for op, check in checks.items():
        value = out.get(op)
        if isinstance(value, Exception):
            results[op] = (None, [f"raised {value!r}"])
            continue
        try:
            results[op] = check(value)
        except Exception as exc:
            results[op] = (None, [f"check raised {exc!r}"])
    return results


def _monotone_problems(name: str, a: np.ndarray, n: int) -> list[str]:
    problems = []
    if (np.diff(a) < 0).any():
        problems.append(f"{name} decreases")
    if a.size and a.max() > n:
        problems.append(f"{name} exceeds n={n}")
    return problems


def _percentile_problems(p10, p50, p90, n: int) -> list[str]:
    problems = []
    for name, a in (("p10", p10), ("p50", p50), ("p90", p90)):
        problems += _monotone_problems(name, np.asarray(a), n)
    if (np.asarray(p10) > p50).any() or (np.asarray(p50) > p90).any():
        problems.append("percentiles out of order")
    return problems


class SfContact:
    """Inputs of the scale-free-network figure with fewer replications.

    n=100 trees grown anew for every replication, random-contact, initial
    counts 1..50, 1000-loop budget. Most loops inform nobody, so time goes
    to per-loop overhead in ``diffusion``.
    """

    name = "sf-contact"
    n = 100
    initials = (1, 2, 5, 10, 20, 50)
    max_loops = 1000
    replications = 20

    def prepare(self, seed: int, workdir: Path):
        # the figure's configs, so replication i matches the figure's
        return [
            dm.EnsembleConfig(
                base=dm.SimulationConfig("random-contact", k, self.max_loops,
                                         seed + k),
                generator=dm.GeneratorSpec("scale-free", self.n, None, seed),
                replications=self.replications)
            for k in self.initials]

    def body(self, cfgs, clock) -> dict:
        out = {}
        for cfg in cfgs:
            _attempt(out, f"k{cfg.base.initial_informed}",
                     lambda: self._ensemble(cfg))
        return out

    @staticmethod
    def _ensemble(cfg):
        summary = dm.run_ensemble(cfg)
        return summary, summary.to_csv()

    def check(self, cfgs, out: dict) -> dict:
        checks = {}
        for cfg in cfgs:
            k = cfg.base.initial_informed
            checks[f"k{k}"] = lambda v, k=k: self._check_ensemble(v, k)
        return _check_all(out, checks)

    def _check_ensemble(self, value, k: int):
        summary, csv = value
        problems = _percentile_problems(summary.p10, summary.p50,
                                        summary.p90, self.n)
        problems += _monotone_problems("mean", summary.mean, self.n)
        if summary.replications != self.replications:
            problems.append(f"{summary.replications} replications")
        if summary.mean[0] != k:
            problems.append(f"loop-0 mean {summary.mean[0]} != {k}")
        if summary.horizon > self.max_loops:
            problems.append(f"horizon {summary.horizon} over the budget")
        sat = summary.saturation
        if not 0 <= sat.censored <= self.replications:
            problems.append(f"censored count {sat.censored}")
        if sat.censored and summary.horizon != self.max_loops:
            problems.append("censored runs stopped before the budget")
        digest = _digest(csv, json.dumps(summary.to_json_dict(),
                                         sort_keys=True))
        return digest, problems


class DenseContact:
    """The random-vs-stochastic figure, run in-process through the CLI.

    About 16 loops per replication on dense n=100 graphs, so graph
    construction, CSR builds, the bootstrap comparison and bundle writing
    share the time with ``diffusion``.
    """

    name = "dense-contact"
    n = 100
    initial = 10
    files = ("random_ensemble.csv", "stochastic_ensemble.csv",
             "comparison.json", "manifest.json")

    def prepare(self, seed: int, workdir: Path):
        return SimpleNamespace(seed=seed, workdir=workdir,
                               bundles=itertools.count())

    def body(self, x, clock) -> dict:
        outdir = x.workdir / f"bundle{next(x.bundles)}"
        argv = ["reproduce", "--figure", "random-vs-stochastic",
                "--seed", str(x.seed), "--outdir", str(outdir)]

        def reproduce():
            with contextlib.redirect_stdout(io.StringIO()) as log:
                code = diffusim.cli.main(argv)
            return code, outdir, log.getvalue()

        out = {}
        _attempt(out, "bundle", reproduce)
        return out

    def check(self, x, out: dict) -> dict:
        try:
            return _check_all(out, {"bundle": lambda v: self._check_bundle(
                v, x.seed)})
        finally:
            value = out.get("bundle")
            if isinstance(value, tuple):
                shutil.rmtree(value[1], ignore_errors=True)

    def _check_bundle(self, value, seed: int):
        code, outdir, log = value
        if code != 0:
            return None, [f"exit code {code}"]
        found = sorted(p.name for p in outdir.iterdir())
        if found != sorted(self.files):
            return None, [f"bundle holds {found}"]
        data = {name: (outdir / name).read_bytes() for name in self.files}
        problems = []
        manifest = json.loads(data["manifest.json"])
        if manifest["figure"] != "random-vs-stochastic" \
                or manifest["seed"] != seed \
                or sorted(manifest["outputs"]) != sorted(self.files[:3]):
            problems.append("manifest does not describe the bundle")
        for name in self.files[:2]:
            table = np.loadtxt(io.StringIO(data[name].decode()),
                               delimiter=",", skiprows=1, ndmin=2)
            _loop, mean, _sd, p10, p50, p90 = table.T
            problems += [f"{name}: {p}" for p in _percentile_problems(
                p10, p50, p90, self.n)]
            problems += [f"{name}: {p}" for p in _monotone_problems(
                "mean", mean, self.n)]
            if mean[0] != self.initial:
                problems.append(f"{name}: loop-0 mean {mean[0]}")
        ci = json.loads(data["comparison.json"])["threshold_diff_ci95"]
        if ci is not None and not ci[0] <= ci[1]:
            problems.append(f"bootstrap interval {ci} reversed")
        if log.count("wrote ") != len(self.files):
            problems.append("CLI did not report every file written")
        return _digest(*(data[name] for name in self.files)), problems


class LargeGraph:
    """One large graph per step: arrays far beyond a core's L2 cache.

    Broadcast on a big scale-free tree, then its components and degree
    fit; link, JSON and probability-matrix round trips; clustering of a
    complete graph; path length of a scale-free tree. No random-contact.
    """

    name = "large-graph"
    broadcast_n = 50_000
    random_n = 1000
    stochastic_n = 800
    complete_n = 200
    path_n = 1000

    def prepare(self, seed: int, workdir: Path):
        s = [int(w) for w in
             np.random.SeedSequence(seed).generate_state(5, np.uint64)]
        return SimpleNamespace(
            broadcast=dm.SimulationConfig("broadcast", 1, 1000, s[0]),
            tree=dm.GeneratorSpec("scale-free", self.broadcast_n, None, s[1]),
            random=dm.GeneratorSpec("random", self.random_n, 0.5, s[2]),
            stochastic=dm.GeneratorSpec("stochastic", self.stochastic_n,
                                        None, s[3]),
            complete=dm.GeneratorSpec("complete", self.complete_n),
            path=dm.GeneratorSpec("scale-free", self.path_n, None, s[4]))

    def body(self, x, clock) -> dict:
        out = {}

        def broadcast():
            g = x.tree.build()
            return g, dm.run(g, x.broadcast)

        def power_law():
            hist = dm.degree_histogram(out["broadcast"][0])
            return hist, dm.fit_power_law(hist)

        def link_round_trip():
            g = x.random.build()
            text = dm.export_link_matrix(g)
            return g, text, dm.import_matrix(text)

        def json_round_trip():
            text = dm.graph_to_json(out["link_round_trip"][0])
            return text, dm.graph_from_json(text)

        def prob_round_trip():
            g = x.stochastic.build()
            text = dm.export_probability_matrix(g)
            return g, text, dm.import_matrix(text)

        # the broadcast comes first: growing the tree plus the run is the
        # pass's one replication
        for op, fn in (
                ("broadcast", broadcast),
                ("components",
                 lambda: dm.connected_components(out["broadcast"][0])),
                ("power_law", power_law),
                ("link_round_trip", link_round_trip),
                ("json_round_trip", json_round_trip),
                ("prob_round_trip", prob_round_trip),
                ("clustering",
                 lambda: dm.clustering_coefficient(x.complete.build())),
                ("path_length",
                 lambda: dm.characteristic_path_length(x.path.build()))):
            _attempt(out, op, fn)
            clock.mark()
        return out

    def check(self, x, out: dict) -> dict:
        random_graph = out.get("link_round_trip")
        n = self.broadcast_n
        return _check_all(out, {
            "broadcast": self._check_broadcast,
            "components": lambda comps: (
                _digest(*(c.size for c in comps)),
                [] if len(comps) == 1 and comps[0].size == n
                else [f"{len(comps)} components in a tree"]),
            "power_law": lambda v: self._check_power_law(v, n),
            "link_round_trip": lambda v: (
                _digest(v[1]),
                [] if v[2] == v[0] else ["link matrix round trip differs"]),
            "json_round_trip": lambda v: (
                _digest(v[0]),
                [] if v[1] == random_graph[0]
                else ["JSON round trip differs"]),
            "prob_round_trip": self._check_prob_round_trip,
            "clustering": lambda c: (
                _digest(repr(c)),
                [] if c == 1.0 else [f"complete graph clustering {c}"]),
            "path_length": lambda r: (
                _digest(repr(r.value), r.connected, r.component_size),
                [] if r.connected and r.component_size == self.path_n
                and 1.0 <= r.value < self.path_n
                else [f"path length {r} on a tree"]),
        })

    def _check_broadcast(self, value):
        g, rec = value
        counts = np.asarray(rec.counts)
        problems = _monotone_problems("informed count", counts, g.n)
        if counts[0] != 1 or counts[-1] != g.n:
            problems.append(f"informed {counts[0]} -> {counts[-1]} of {g.n}")
        return _digest(_graph_digest(g), rec.to_csv()), problems

    @staticmethod
    def _check_power_law(value, n: int):
        hist, fit = value
        problems = []
        if sum(hist.values()) != n \
                or sum(k * c for k, c in hist.items()) != 2 * (n - 1):
            problems.append("degree histogram does not describe a tree")
        if not fit.slope < 0:
            problems.append(f"power-law slope {fit.slope}")
        return _digest(json.dumps(sorted(hist.items())), repr(fit)), problems

    @staticmethod
    def _check_prob_round_trip(value):
        # documented: weights round to two decimals, 0.00 drops the edge
        g, text, back = value
        tol = 0.005 + 1e-9
        eu, ev, ew = g.edge_arrays()
        bu, bv, bw = back.edge_arrays()
        keys, back_keys = eu * g.n + ev, bu * g.n + bv
        pos = np.minimum(np.searchsorted(keys, back_keys), keys.size - 1)
        problems = []
        if back.n != g.n or not (keys[pos] == back_keys).all():
            problems.append("round trip added edges")
        elif (np.abs(ew[pos] - bw) > tol).any():
            problems.append("round-trip weight moved more than 0.005")
        dropped = np.ones(keys.size, dtype=bool)
        dropped[pos] = False
        if (ew[dropped] > tol).any():
            problems.append("round trip dropped an edge above 0.005")
        return _digest(text), problems


WORKLOADS = {w.name: w for w in (SfContact(), DenseContact(), LargeGraph())}
