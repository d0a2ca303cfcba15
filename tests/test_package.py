from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import diffusim

# the package's public surface; adding or dropping a name is an API change
PUBLIC_NAMES = [
    "ComparisonReport", "ContactModel", "DiffusionState", "EnsembleConfig",
    "EnsembleSummary", "FAMILIES", "GeneratorSpec", "Graph",
    "MatrixFormatError", "PathLengthResult", "PowerLawFit", "SaturationStats",
    "SimulationConfig", "TrajectoryRecord", "__version__",
    "average_degree_histograms", "bfs_distances",
    "characteristic_path_length", "clustering_coefficient",
    "compare_ensembles", "connected_components", "degree_histogram",
    "export_link_matrix", "export_probability_matrix", "fit_power_law",
    "gen_complete", "gen_random", "gen_scale_free", "gen_stochastic",
    "graph_from_json", "graph_to_json", "import_matrix", "init_state",
    "is_connected", "make_rng", "matrix_average_convergence",
    "mean_offdiagonal_weight", "replication_seeds", "run", "run_ensemble",
    "step",
]


def test_public_names_are_pinned():
    assert sorted(diffusim.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in diffusim.__all__:
        assert getattr(diffusim, name) is not None, name



def test_module_entry_point_prints_version():
    # python -m diffusim runs __main__.py, which no in-process test imports
    src = str(Path(diffusim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "diffusim", "--version"],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == diffusim.__version__
