"""Hooks the benchmark installs on diffusim's public names, and removes after.

Three kinds of hook share one patching mechanism:

* ``Tracer`` records a span (name, start, end, parent span, pass id) around
  every call into a layer; self time is span duration minus child spans.
* ``PassClock`` marks where each diffusion replication ends, so that the
  untraced run can time replications without recording spans.
* ``Counters`` observe arguments and return values (never clocks) and
  count the work done: loops, contact attempts, pairs drawn, cells, text.

A name that a later version of diffusim no longer has is reported as
missing; the run goes on without that hook.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (owner, attribute, span). A callable span picks the name from the call's
# arguments. Graph._build_adjacency is private: it is the only place the
# CSR build can be timed from outside.
SPAN_TARGETS = [
    ("diffusim.generators.GeneratorSpec", "build", "generators.build"),
    ("diffusim.graph.Graph", "__init__", "graph.init"),
    ("diffusim.graph.Graph", "_build_adjacency", "graph.csr"),
    ("diffusim.graph.Graph", "degrees", "graph.degrees"),
    ("diffusim.graph.Graph", "pair_weights", "graph.pair_lookup"),
    ("diffusim.graph", "connected_components", "graph.components"),
    ("diffusim.graph", "degree_histogram", "graph.histogram"),
    ("diffusim.diffusion", "run",
     lambda args, kwargs: (
         "diffusion.broadcast"
         if _model(_arg(args, kwargs, 1, "cfg")) == "broadcast"
         else "diffusion.run")),
    ("diffusim.ensemble", "run_ensemble", "ensemble.run_ensemble"),
    ("diffusim.ensemble", "compare_ensembles", "ensemble.compare"),
    ("diffusim.ensemble.EnsembleSummary", "to_csv", "ensemble.csv"),
    ("diffusim.matrixio", "export_link_matrix", "matrixio.export_link"),
    ("diffusim.matrixio", "export_probability_matrix", "matrixio.export_prob"),
    # probability matrices are the only text with decimal points
    ("diffusim.matrixio", "import_matrix",
     lambda args, kwargs: (
         "matrixio.import_prob"
         if "." in _arg(args, kwargs, 0, "text")[:4096]
         else "matrixio.import_link")),
    ("diffusim.matrixio", "graph_to_json", "matrixio.to_json"),
    ("diffusim.matrixio", "graph_from_json", "matrixio.from_json"),
    ("diffusim.analysis", "clustering_coefficient", "analysis.clustering"),
    ("diffusim.analysis", "characteristic_path_length",
     "analysis.path_length"),
    ("diffusim.analysis", "fit_power_law", "analysis.power_law"),
    ("diffusim.cli", "main", "cli.main"),
]

# span -> per-layer metric reporting its self time
SELF_METRICS = {
    "generators.build": "generators.build_s",
    "graph.init": "graph.init_s",
    "graph.csr": "graph.csr_s",
    "graph.degrees": "graph.degrees_s",
    "graph.pair_lookup": "graph.pair_lookup_s",
    "graph.components": "graph.components_s",
    "graph.histogram": "graph.histogram_s",
    "diffusion.run": "diffusion.run_s",
    "diffusion.broadcast": "diffusion.broadcast_s",
    "ensemble.run_ensemble": "ensemble.self_s",
    "ensemble.compare": "ensemble.compare_s",
    "ensemble.csv": "ensemble.csv_s",
    "matrixio.export_link": "matrixio.export_link_s",
    "matrixio.import_link": "matrixio.import_link_s",
    "matrixio.export_prob": "matrixio.export_prob_s",
    "matrixio.import_prob": "matrixio.import_prob_s",
    "matrixio.to_json": "matrixio.to_json_s",
    "matrixio.from_json": "matrixio.from_json_s",
    "analysis.clustering": "analysis.clustering_s",
    "analysis.path_length": "analysis.path_length_s",
    "analysis.power_law": "analysis.power_law_s",
    "cli.main": "cli.self_s",
}

# root span of one traced pass; its self time is the benchmark's own share
PASS_SPAN = "bench.pass"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _model(cfg) -> str:
    return getattr(cfg.model, "value", cfg.model)


def _resolve(path: str):
    """Object named by a dotted path below an imported diffusim module."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        obj = sys.modules.get(".".join(parts[:cut]))
        if obj is None:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Patch:
    """Replaces functions and methods everywhere diffusim binds them.

    A module-level function is replaced in every ``diffusim`` module that
    holds it, since modules call each other through names they imported.
    ``undo`` restores every original, newest first.
    """

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner_path: str, attr: str, make_wrapper) -> None:
        owner = _resolve(owner_path)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.missing.append(f"{owner_path}.{attr}")
            return
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "diffusim"
                                      or name.startswith("diffusim.")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    self._set(module, binding, wrapper)

    def _set(self, obj, name: str, value) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def undo(self) -> None:
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


class Tracer:
    """Spans kept in memory as parallel arrays, one entry per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.pass_id = array("q")
        self.current_pass = 0
        self._open = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.pass_id.append(self.current_pass)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    def install(self, patch: Patch) -> None:
        for owner, attr, span in SPAN_TARGETS:
            patch.wrap(owner, attr, self._wrapper_for(span))

    def _wrapper_for(self, span):
        name_of = span if callable(span) else (lambda args, kwargs: span)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = self.open(name_of(args, kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(i)
            return wrapper
        return make

    def arrays(self) -> dict[str, np.ndarray]:
        # copies: a view would stop the arrays from growing
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "pass_id": np.array(self.pass_id, dtype=np.int64),
        }

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=dur.size)
        own = np.bincount(a["name"], weights=dur - child,
                          minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class PassClock:
    """Timestamps that cut a pass into segments.

    Passes on identical inputs make the same calls, so segment k of one
    pass matches segment k of another and each can take its median over
    the passes. ``run_ensemble`` marks its entry and ``diffusion.run`` its
    return; a segment that ends where a run returns is one replication:
    seed derivation, graph build and run. A workload body may add marks.
    """

    def __init__(self) -> None:
        self.marks: list[float] = []
        self.rep_marks: list[int] = []

    def mark(self) -> None:
        self.marks.append(time.perf_counter())

    def mark_rep(self) -> None:
        self.rep_marks.append(len(self.marks))
        self.mark()

    def install(self, patch: Patch) -> None:
        def before(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.mark()
                return fn(*args, **kwargs)
            return wrapper

        def after(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.mark_rep()
                return result
            return wrapper

        patch.wrap("diffusim.ensemble", "run_ensemble", before)
        patch.wrap("diffusim.diffusion", "run", after)


COUNT_METRICS = {
    "diffusion.loops": "count",
    "diffusion.quiet_loop_frac": "ratio",
    "diffusion.attempts": "count",
    "diffusion.useful_ratio": "ratio",
    "generators.calls": "count",
    "generators.pairs_drawn": "count",
    "graph.edges_built": "count",
    "graph.pair_lookups": "count",
    "ensemble.pad_cells": "count",
    "matrixio.text_mb": "MB",
}


def _observer(hook):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result
        return wrapper
    return make


class Counters:
    """Work counted from the arguments and results of public calls.

    ``problems`` collects every diffusion step whose informed set shrank,
    lost a member or exceeded n.
    """

    def __init__(self) -> None:
        self.loops = 0
        self.quiet = 0
        self.attempts = 0
        self.newly_informed = 0
        self.build_calls = 0
        self.pairs_drawn = 0
        self.edges_built = 0
        self.pair_lookups = 0
        self.pad_cells = 0
        self.text_chars = 0
        self.problems: list[str] = []

    def install(self, patch: Patch) -> None:
        patch.wrap("diffusim.diffusion", "step", _observer(self._step))
        patch.wrap("diffusim.generators.GeneratorSpec", "build",
                   _observer(self._build))
        patch.wrap("diffusim.graph.Graph", "__init__",
                   _observer(self._graph))
        patch.wrap("diffusim.graph.Graph", "pair_weights",
                   _observer(self._lookup))
        patch.wrap("diffusim.ensemble", "run_ensemble",
                   _observer(self._ensemble))
        for export in ("export_link_matrix", "export_probability_matrix",
                       "graph_to_json"):
            patch.wrap("diffusim.matrixio", export, _observer(self._text))

    def _step(self, args, new) -> None:
        g, old, model = args[0], args[1], args[2]
        old_mask, new_mask = old.mask(g.n), new.mask(g.n)
        gained = len(new.informed) - len(old.informed)
        if gained < 0 or len(new.informed) > g.n \
                or not new_mask[old_mask].all():
            self.problems.append(
                f"step at loop {old.loop}: informed {len(old.informed)} -> "
                f"{len(new.informed)} of n={g.n}")
        self.loops += 1
        self.quiet += gained == 0
        self.newly_informed += gained
        if getattr(model, "value", model) == "broadcast":
            # one coin per edge from an informed to an uninformed vertex
            eu, ev, _ = g.edge_arrays()
            crossing = old_mask[eu] != old_mask[ev]
            self.attempts += int(np.count_nonzero(crossing))
        else:
            # one contact per informed vertex that has an edge
            self.attempts += int(np.count_nonzero(g.degrees()[old_mask] > 0))

    def _build(self, args, _graph) -> None:
        spec = args[0]
        self.build_calls += 1
        if spec.family in ("random", "stochastic"):
            self.pairs_drawn += spec.n * (spec.n - 1) // 2

    def _graph(self, args, _none) -> None:
        self.edges_built += args[0].edge_count

    def _lookup(self, _args, _weights) -> None:
        self.pair_lookups += 1

    def _ensemble(self, _args, summary) -> None:
        self.pad_cells += summary.replications * (summary.horizon + 1)

    def _text(self, _args, text) -> None:
        self.text_chars += len(text)

    def metrics(self) -> dict[str, float]:
        return {
            "diffusion.loops": self.loops,
            "diffusion.quiet_loop_frac":
                self.quiet / self.loops if self.loops else 0.0,
            "diffusion.attempts": self.attempts,
            "diffusion.useful_ratio":
                self.newly_informed / self.attempts if self.attempts else 0.0,
            "generators.calls": self.build_calls,
            "generators.pairs_drawn": self.pairs_drawn,
            "graph.edges_built": self.edges_built,
            "graph.pair_lookups": self.pair_lookups,
            "ensemble.pad_cells": self.pad_cells,
            "matrixio.text_mb": self.text_chars / 1e6,
        }
