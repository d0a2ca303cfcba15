from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffusim.cli as cli
from diffusim.cli import main


def run_cli(args):
    return main(list(args))


def test_generate_complete_reports_edges(tmp_path, capsys):
    assert run_cli(["generate", "--family", "complete", "--n", "100",
                    "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "edges=4950" in out
    assert (tmp_path / "complete_n100.matrix.txt").exists()
    assert (tmp_path / "complete_n100.graph.json").exists()


def test_generate_scale_free_deterministic_file(tmp_path, capsys):
    for _ in range(2):
        assert run_cli(["generate", "--family", "scale-free", "--n", "100",
                        "--seed", "7", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "edges=99" in out
    data = (tmp_path / "scale_free_n100_seed7.graph.json").read_bytes()
    g = json.loads(data)
    assert g["n"] == 100 and len(g["edges"]) == 99
    # regenerate into a second directory: byte-identical artifacts
    other = tmp_path / "again"
    assert run_cli(["generate", "--family", "scale-free", "--n", "100",
                    "--seed", "7", "--outdir", str(other)]) == 0
    assert (other / "scale_free_n100_seed7.graph.json").read_bytes() == data


def test_generate_usage_error_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["generate", "--family", "random", "--n", "10",
                 "--edge-prob", "1.5", "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_generate_unknown_family_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["generate", "--family", "ring", "--n", "10",
                 "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_generate_respects_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DIFFUSIM_OUTDIR", str(tmp_path / "envdir"))
    assert run_cli(["generate", "--family", "complete", "--n", "4"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envdir" / "complete_n4.matrix.txt").exists()


def test_simulate_complete_broadcast_csv(tmp_path, capsys):
    assert run_cli(["simulate", "--family", "complete", "--n", "100",
                    "--model", "broadcast", "--initial", "1", "--seed", "3",
                    "--outdir", str(tmp_path), "--prefix", "comp"]) == 0
    out = capsys.readouterr().out
    assert "saturated at loop 1" in out
    text = (tmp_path / "comp.trajectory.csv").read_text()
    assert text == "loop,informed_count\n0,1\n1,100\n"


def test_simulate_six_initial_batch(tmp_path, capsys):
    assert run_cli(["simulate", "--family", "random", "--n", "100",
                    "--graph-seed", "5", "--initial", "1,2,5,10,20,50",
                    "--seed", "9", "--outdir", str(tmp_path),
                    "--prefix", "grid"]) == 0
    # the header, then each k's file and its summary line, in that order
    want = ["model=random-contact seed=9 max_loops=1000"]
    for k, sat in ((1, 34), (2, 16), (5, 20), (10, 17), (20, 16), (50, 12)):
        want += [f"wrote {tmp_path / f'grid_k{k}.trajectory.csv'}",
                 f"initial={k}: saturated at loop {sat}"]
    assert capsys.readouterr().out.splitlines() == want
    for k in (1, 2, 5, 10, 20, 50):
        assert (tmp_path / f"grid_k{k}.trajectory.csv").exists()


RANDOM_10 = ["--family", "random", "--n", "10"]


# a count or vertex beyond a family's n is refused with the flags (exit 2);
# a graph file's n is known only once the file is read (exit 1)
@pytest.mark.parametrize("args,code,msg", [
    (RANDOM_10 + ["--initial", "1,20"], 2,
     "initial_informed must be <= n = 10, got 20"),
    (RANDOM_10 + ["--initial", "1,0"], 2,
     "initial_informed must be >= 1, got 0"),
    (RANDOM_10 + ["--initial", "1,20", "--replications", "3"], 2,
     "initial_informed must be <= n = 10, got 20"),
    (RANDOM_10 + ["--initial-vertices", "3,12"], 2,
     "vertex id 12 outside [0, 10)"),
    (["--graph", "{graph}", "--initial", "1,20"], 1,
     "initial_informed must be <= n = 10, got 20"),
], ids=["over-n", "zero", "ensemble-over-n", "vertices-over-n",
        "graph-over-n"])
def test_simulate_failing_batch_writes_nothing(tmp_path, capsys, args, code,
                                               msg):
    # k=1 runs fine; the later count's refusal must not leave k=1's files
    # or the header behind
    graph = tmp_path / "path10.graph.json"
    graph.write_text(json.dumps(
        {"n": 10, "edges": [[v, v + 1, 1.0] for v in range(9)]}),
        encoding="utf-8")
    outdir = tmp_path / "out"
    try:
        got = run_cli(["simulate", *(a.format(graph=graph) for a in args),
                       "--max-loops", "5", "--outdir", str(outdir)])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    out, err = capsys.readouterr()
    assert "model=" not in out and msg in err
    assert not outdir.exists()


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    args = ["simulate", "--family", "stochastic", "--n", "50",
            "--graph-seed", "2", "--initial", "5", "--seed", "11",
            "--outdir", str(tmp_path), "--prefix", "rep"]
    assert run_cli(args) == 0
    first = (tmp_path / "rep.trajectory.csv").read_bytes()
    assert run_cli(args) == 0
    capsys.readouterr()
    assert (tmp_path / "rep.trajectory.csv").read_bytes() == first


def test_simulate_ensemble_outputs(tmp_path, capsys):
    assert run_cli(["simulate", "--family", "random", "--n", "40",
                    "--graph-seed", "1", "--initial", "4", "--seed", "8",
                    "--replications", "12", "--outdir", str(tmp_path),
                    "--prefix", "ens"]) == 0
    out = capsys.readouterr().out
    assert "replications=12" in out
    csv_text = (tmp_path / "ens.ensemble.csv").read_text()
    assert csv_text.startswith("loop,mean,sd,p10,p50,p90\n")
    meta = json.loads((tmp_path / "ens.ensemble.json").read_text())
    assert meta["replications"] == 12
    assert "saturation" in meta


def test_simulate_initial_vertices_override(tmp_path, capsys):
    assert run_cli(["simulate", "--family", "complete", "--n", "10",
                    "--model", "broadcast", "--initial-vertices", "0,3,7",
                    "--seed", "4", "--outdir", str(tmp_path),
                    "--prefix", "pin"]) == 0
    capsys.readouterr()
    text = (tmp_path / "pin.trajectory.csv").read_text()
    assert text.splitlines()[1] == "0,3"


def test_simulate_requires_graph_or_family(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--initial", "1", "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[generator]\nfamily = complete\nn = 10\n"
        "[simulation]\nmodel = broadcast\ninitial = 2\nmax_loops = 5\n"
        "seed = 3\n"
        "[output]\nprefix = fromfile\n",
        encoding="utf-8")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "fromfile.trajectory.csv").exists()
    # flag overrides the file's initial count
    assert run_cli(["simulate", "--config", str(cfg), "--initial", "7",
                    "--outdir", str(tmp_path), "--prefix", "override"]) == 0
    capsys.readouterr()
    text = (tmp_path / "override.trajectory.csv").read_text()
    assert text.splitlines()[1] == "0,7"


def test_simulate_config_file_sets_every_key_like_flags(tmp_path, monkeypatch,
                                                      capsys):
    # every key differs from its flag's default and changes the files, so
    # a key that reached the wrong dest would change the bytes or the names
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[generator]\nfamily = random\nn = 30\nedge_prob = 0.15\nseed = 5\n"
        "[simulation]\nmodel = broadcast\ninitial = 1,3\nmax_loops = 3\n"
        "seed = 7\n"
        "[ensemble]\nreplications = 4\nregenerate_graph = false\n"
        f"[output]\noutdir = {tmp_path / 'config'}\nprefix = pinned\n",
        encoding="utf-8")
    assert run_cli(["simulate", "--config", str(cfg)]) == 0
    assert run_cli(["simulate", "--family", "random", "--n", "30",
                    "--edge-prob", "0.15", "--graph-seed", "5",
                    "--model", "broadcast", "--initial", "1,3",
                    "--max-loops", "3", "--seed", "7", "--replications", "4",
                    "--fixed-graph", "--outdir", str(tmp_path / "flags"),
                    "--prefix", "pinned"]) == 0
    capsys.readouterr()
    got = {p.name: p.read_bytes() for p in (tmp_path / "config").iterdir()}
    want = {p.name: p.read_bytes() for p in (tmp_path / "flags").iterdir()}
    assert sorted(got) == [f"pinned_k{k}.ensemble.{ext}"
                           for k in (1, 3) for ext in ("csv", "json")]
    assert got == want


def test_simulate_graph_seed_sets_only_a_fixed_graph(tmp_path, capsys):
    # a regenerated ensemble derives its graph seeds from --seed
    def bundle(*flags):
        outdir = tmp_path / "-".join(flags)
        assert run_cli(["simulate", "--family", "random", "--n", "30",
                        "--replications", "5", "--initial", "2",
                        "--seed", "4", *flags, "--outdir", str(outdir)]) == 0
        return {p.name: p.read_bytes() for p in outdir.iterdir()}

    assert bundle("--graph-seed", "1") == bundle("--graph-seed", "2")
    assert (bundle("--graph-seed", "1", "--fixed-graph")
            != bundle("--graph-seed", "2", "--fixed-graph"))
    capsys.readouterr()


def test_simulate_flag_equal_to_default_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[generator]\nfamily = complete\nn = 10\n"
                   "[simulation]\nseed = 3\nmax_loops = 5\n",
                   encoding="utf-8")
    # --seed 0 is also the flag's default; given explicitly, it still wins
    assert run_cli(["simulate", "--config", str(cfg), "--seed", "0",
                    "--outdir", str(tmp_path)]) == 0
    assert "seed=0 max_loops=5" in capsys.readouterr().out


@pytest.mark.parametrize("section,key,value", [
    ("simulation", "initial", "1,x"),
    ("simulation", "seed", "abc"),
    ("generator", "edge_prob", "half"),
    ("ensemble", "regenerate_graph", "maybe"),
    ("simulation", "model", "bogus"),
    ("simulation", "initial", ","),
])
def test_simulate_bad_config_value_exit_1(tmp_path, capsys, section, key,
                                          value):
    sections = {"generator": ["family = complete", "n = 10"]}
    sections.setdefault(section, []).append(f"{key} = {value}")
    cfg = tmp_path / "exp.ini"
    cfg.write_text("".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                           for name, lines in sections.items()),
                   encoding="utf-8")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert key in err and value in err


def test_simulate_bad_config_family_exit_1(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[generator]\nfamily = bogus\nn = 10\n", encoding="utf-8")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config [generator] family: ")
    assert "bogus" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""  # fails before the run header


@pytest.mark.parametrize("flag,value", [
    ("--initial", ","),
    ("--initial", ""),
    ("--initial", " , "),
    ("--initial-vertices", ","),
])
def test_simulate_empty_initial_list_exit_2(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--family", "complete", "--n", "5", flag, value,
                 "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "expected comma-separated integers" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_simulate_initial_trailing_comma_accepted(tmp_path, capsys):
    assert run_cli(["simulate", "--family", "complete", "--n", "5",
                    "--model", "broadcast", "--initial", "1,2,",
                    "--outdir", str(tmp_path), "--prefix", "tc"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "tc_k1.trajectory.csv", "tc_k2.trajectory.csv"]

def test_simulate_graph_file_input(tmp_path, capsys):
    assert run_cli(["generate", "--family", "complete", "--n", "20",
                    "--outdir", str(tmp_path)]) == 0
    assert run_cli(["simulate", "--graph",
                    str(tmp_path / "complete_n20.matrix.txt"),
                    "--model", "broadcast", "--initial", "1", "--seed", "0",
                    "--outdir", str(tmp_path), "--prefix", "fromfile"]) == 0
    capsys.readouterr()
    text = (tmp_path / "fromfile.trajectory.csv").read_text()
    assert text.splitlines()[-1] == "1,20"


def test_analyze_degree_histogram(tmp_path, capsys):
    assert run_cli(["generate", "--family", "scale-free", "--n", "100",
                    "--seed", "3", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run_cli(["analyze", "--graph",
                    str(tmp_path / "scale_free_n100_seed3.graph.json"),
                    "--stat", "degree-histogram"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "degree,count"
    hist = {int(r.split(",")[0]): int(r.split(",")[1]) for r in lines[1:]}
    assert hist[1] / 100 > 0.6


def test_analyze_clustering_complete(tmp_path, capsys):
    assert run_cli(["generate", "--family", "complete", "--n", "10",
                    "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run_cli(["analyze", "--graph",
                    str(tmp_path / "complete_n10.matrix.txt"),
                    "--stat", "clustering"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clustering_coefficient"] == 1.0


def test_analyze_matrix_mean_stochastic(tmp_path, capsys):
    assert run_cli(["generate", "--family", "stochastic", "--n", "1000",
                    "--seed", "5", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run_cli(["analyze", "--graph",
                    str(tmp_path / "stochastic_n1000_seed5.graph.json"),
                    "--stat", "matrix-mean",
                    "--out", str(tmp_path / "mean.json")]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "mean.json").read_text())
    assert abs(payload["mean_offdiagonal_weight"] - 0.5) < 0.02


def test_analyze_power_law_error_on_complete(tmp_path, capsys):
    assert run_cli(["generate", "--family", "complete", "--n", "10",
                    "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run_cli(["analyze", "--graph",
                    str(tmp_path / "complete_n10.matrix.txt"),
                    "--stat", "power-law"]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_missing_file_exit_1(tmp_path, capsys):
    assert run_cli(["analyze", "--graph", str(tmp_path / "nope.txt"),
                    "--stat", "clustering"]) == 1
    assert "not found" in capsys.readouterr().err


def test_analyze_invalid_matrix_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.matrix.txt"
    bad.write_text("0 0.5\n0.4 0\n", encoding="utf-8")
    assert run_cli(["analyze", "--graph", str(bad),
                    "--stat", "clustering"]) == 1
    assert "asymmetric" in capsys.readouterr().err


@pytest.mark.parametrize("stat", ["degree-histogram", "path-length",
                                  "clustering"])
def test_analyze_huge_n_fails_cleanly(tmp_path, capsys, stat):
    # 10**15 vertices ask numpy for petabytes, which it refuses at once
    dump = tmp_path / "huge.graph.json"
    dump.write_text('{"n": 1000000000000000, "edges": []}', encoding="utf-8")
    assert run_cli(["analyze", "--graph", str(dump), "--stat", stat]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "family = complete\n",  # no section header
    "[generator]\nn = 10\n[generator]\nn = 20\n",
])
def test_simulate_malformed_config_file_exit_1(tmp_path, capsys, text):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("dump", [
    '{"n": 3, "edges": [[0, 99999999999999999999, 0.5]]}',
    '{"n": Infinity, "edges": []}',
])
def test_analyze_unrepresentable_json_number_exit_1(tmp_path, capsys, dump):
    path = tmp_path / "bad.graph.json"
    path.write_text(dump, encoding="utf-8")
    assert run_cli(["analyze", "--graph", str(path),
                    "--stat", "degree-histogram"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_reproduce_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["reproduce", "--figure", "power-law",
                 "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_reproduce_unknown_figure_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["reproduce", "--figure", "nonsense", "--seed", "1",
                 "--outdir", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("manifest", [
    {"figure": "power-law"},
    {"seed": 3},
    {"figure": "power-law", "seed": 1.5},
    {"figure": "power-law", "seed": "3"},
    {"figure": "nonsense", "seed": 3},
    [1, 2],
    # --seed -1 is a usage error; the same seed read from a file is not
    {"figure": "power-law", "seed": -1},
])
def test_reproduce_bad_manifest_exit_1(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli(["reproduce", "--from-manifest", str(path),
                    "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("figure", [[], {"name": "power-law"}])
def test_reproduce_manifest_figure_not_a_string_exit_1(tmp_path, capsys,
                                                       figure):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"figure": figure, "seed": 0}))
    assert run_cli(["reproduce", "--from-manifest", str(path),
                    "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: manifest names unknown figure {figure!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args,code", [
    (["reproduce", "--figure", "random-network", "--seed", "-1"], 2),
    (["reproduce", "--figure", "power-law", "--seed", "-1"], 2),
    (["reproduce", "--figure", "scale-free-network", "--seed", "-3"], 2),
    (["generate", "--family", "random", "--n", "5", "--seed", "-1"], 2),
    (["simulate", "--family", "random", "--n", "5", "--graph-seed", "-1"],
     2),
    (["simulate", "--family", "complete", "--n", "5", "--seed", "-3"], 2),
    # complete checks the seed it then drops
    (["generate", "--family", "complete", "--n", "5", "--seed", "-1"], 2),
    (["simulate", "--family", "complete", "--n", "5", "--graph-seed", "-1"],
     2),
])
def test_negative_seed_fails_cleanly_without_artifacts(tmp_path, capsys,
                                                       args, code):
    outdir = tmp_path / "out"
    try:
        got = run_cli(args + ["--outdir", str(outdir)])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert "error: " in err and "seed must be an integer >= 0" in err
    assert not outdir.exists() or not list(outdir.iterdir())


def test_reproduce_power_law_bundle_and_manifest(tmp_path, capsys):
    out1 = tmp_path / "a"
    assert run_cli(["reproduce", "--figure", "power-law", "--seed", "11",
                    "--outdir", str(out1)]) == 0
    capsys.readouterr()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["figure"] == "power-law"
    assert manifest["seed"] == 11
    for name in manifest["outputs"]:
        assert (out1 / name).exists()
    # re-execution from the manifest reproduces every artifact byte for byte
    out2 = tmp_path / "b"
    assert run_cli(["reproduce", "--from-manifest",
                    str(out1 / "manifest.json"), "--outdir", str(out2)]) == 0
    capsys.readouterr()
    for name in manifest["outputs"] + ["manifest.json"]:
        assert (out2 / name).read_bytes() == (out1 / name).read_bytes()


@pytest.fixture
def small_desk(monkeypatch):
    desk = dict(cli._DESK)
    desk.update(n=30, initials=(1, 5), max_loops=60, replications=6,
                compare_replications=10, compare_initial=3)
    monkeypatch.setattr(cli, "_DESK", desk)
    return desk


def test_reproduce_failing_figure_writes_nothing(tmp_path, capsys,
                                                small_desk, monkeypatch):
    # the first ensemble succeeds; the second one's failure must not leave
    # the first one's file behind
    calls = []
    real = cli.run_ensemble

    def fail_second(cfg):
        calls.append(cfg)
        if len(calls) == 2:
            raise ValueError("second ensemble failed")
        return real(cfg)

    monkeypatch.setattr(cli, "run_ensemble", fail_second)
    outdir = tmp_path / "out"
    assert run_cli(["reproduce", "--figure", "random-network", "--seed", "2",
                    "--outdir", str(outdir)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error: second ensemble failed" in err
    assert len(calls) == 2
    assert not outdir.exists()


@pytest.mark.parametrize("figure,expected", [
    ("random-network", ["random_trajectory_k1.csv",
                        "random_trajectory_k5.csv"]),
    ("stochastic-network", ["stochastic_trajectory_k1.csv",
                            "stochastic_trajectory_k5.csv"]),
    ("scale-free-network", ["scale_free_trajectory_k1.csv",
                            "scale_free_trajectory_k5.csv"]),
    ("random-vs-stochastic", ["random_ensemble.csv",
                              "stochastic_ensemble.csv",
                              "comparison.json"]),
])
def test_reproduce_figures_desk_scale(tmp_path, capsys, small_desk,
                                      figure, expected):
    assert run_cli(["reproduce", "--figure", figure, "--seed", "2",
                    "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == expected
    for name in expected:
        assert (tmp_path / name).exists()
    if figure == "random-vs-stochastic":
        report = json.loads((tmp_path / "comparison.json").read_text())
        assert "max_abs_mean_diff" in report
        assert "threshold_diff_ci95" in report


def reproduce_then_rerun(tmp_path, figure, *flags, manifest=None):
    """Reproduce ``figure`` at seed 1 into ``tmp_path/a``, then re-run its
    manifest, edited by ``manifest`` if given, with ``flags`` into
    ``tmp_path/b``; the exit code of the re-run."""
    assert main(["reproduce", "--figure", figure, "--seed", "1",
                 "--outdir", str(tmp_path / "a")]) == 0
    path = tmp_path / "a" / "manifest.json"
    if manifest is not None:
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest(json.loads(
            (tmp_path / "a" / "manifest.json").read_text()))))
    try:
        return main(["reproduce", "--from-manifest", str(path), *flags,
                     "--outdir", str(tmp_path / "b")])
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("flags", [["--seed", "5"],
                                   ["--figure", "power-law"],
                                   ["--figure", "random-network",
                                    "--seed", "1"]])
def test_reproduce_manifest_refuses_figure_and_seed(tmp_path, capsys, flags):
    assert reproduce_then_rerun(tmp_path, "power-law", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "error: --from-manifest takes no --figure or --seed" in err
    assert not (tmp_path / "b").exists()


def edited_parameters(**changes):
    """A manifest edit that sets each of ``changes`` in its parameters, or
    deletes a key whose change is None."""
    def edit(manifest):
        params = manifest["parameters"]
        for key, value in changes.items():
            if value is None:
                del params[key]
            else:
                params[key] = value
        return manifest
    return edit


@pytest.mark.parametrize("edit,key", [
    (edited_parameters(n=50), "n"),
    (edited_parameters(initials=[1, 2, 5]), "initials"),
    (edited_parameters(max_loops=None), "max_loops"),
    # compared as JSON text: 100.0 is not this build's 100
    (edited_parameters(n=100.0), "n"),
    (edited_parameters(extra=0, n=50), "extra"),
])
def test_reproduce_manifest_parameters_must_match(tmp_path, capsys, edit,
                                                  key):
    assert reproduce_then_rerun(tmp_path, "power-law", manifest=edit) == 1
    assert capsys.readouterr().err == (
        f"error: manifest parameters differ from this build's: {key}\n")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("params", [[1, 2], "n=100", None])
def test_reproduce_manifest_parameters_not_an_object_exit_1(tmp_path, capsys,
                                                            params):
    def edit(manifest):
        return {**manifest, "parameters": params}
    assert reproduce_then_rerun(tmp_path, "power-law", manifest=edit) == 1
    assert capsys.readouterr().err == (
        "error: manifest and parameters must be JSON objects\n")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("change", [
    lambda names: ["x.csv", *names[1:]],
    lambda names: names[:1],
    lambda names: names[::-1],
    lambda names: ["x.csv"],
], ids=["renamed", "dropped", "reordered", "replaced"])
def test_reproduce_manifest_outputs_must_match(tmp_path, capsys, change):
    def edit(manifest):
        return {**manifest, "outputs": change(manifest["outputs"]),
                "version": "0.0.1"}
    assert reproduce_then_rerun(tmp_path, "power-law", manifest=edit) == 1
    assert capsys.readouterr().err == (
        "error: manifest outputs differ from this build's\n")
    assert not (tmp_path / "b").exists()


def without_parameters(manifest):
    return {"figure": manifest["figure"], "seed": manifest["seed"]}


@pytest.mark.parametrize("figure,edit", [
    ("random-network", None),
    ("random-vs-stochastic", None),
    ("random-network", without_parameters),
])
def test_reproduce_manifest_round_trip_at_small_desk(tmp_path, capsys,
                                                     small_desk, figure, edit):
    # a manifest re-runs at the desk it records, and one without
    # parameters at this build's
    assert reproduce_then_rerun(tmp_path, figure, manifest=edit) == 0
    capsys.readouterr()
    first = sorted((tmp_path / "a").iterdir())
    assert [p.name for p in first] == sorted(
        p.name for p in (tmp_path / "b").iterdir())
    for path in first:
        assert (tmp_path / "b" / path.name).read_bytes() == path.read_bytes()


# --- reproduce bundles: golden digests ------------------------------------
# reproduce_digests.json holds the SHA-256 of every artifact and of
# manifest.json, recorded before the CLI's figure and statistic tables
# were reworked. All five figures run at the small_desk scale; power-law,
# which builds one graph, also runs at full scale.

REPRODUCE_DIGESTS_PATH = Path(__file__).with_name("reproduce_digests.json")
REPRODUCE_CASES = [
    (figure, seed, "small")
    for figure in ("random-network", "stochastic-network",
                   "scale-free-network", "power-law", "random-vs-stochastic")
    for seed in (0, 1)
] + [("power-law", seed, "full") for seed in (0, 1)]


@pytest.mark.parametrize(
    "figure,seed,scale", REPRODUCE_CASES,
    ids=[f"{f}-s{s}-{scale}" for f, s, scale in REPRODUCE_CASES])
def test_reproduce_bundle_matches_recorded_digests(tmp_path, capsys, request,
                                                   figure, seed, scale):
    if scale == "small":
        request.getfixturevalue("small_desk")
    want = json.loads(REPRODUCE_DIGESTS_PATH.read_text())[
        f"{figure}-s{seed}-{scale}"]
    assert run_cli(["reproduce", "--figure", figure, "--seed", str(seed),
                    "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == want


def test_main_reads_sys_argv_by_default(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "path.graph.json"
    graph.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}',
                     encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["diffusim", "analyze", "--graph",
                                      str(graph), "--stat", "clustering"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out) == {
        "n": 3, "clustering_coefficient": 0.0}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("family", ["complete", "stochastic", "scale-free"])
def test_generate_edge_prob_for_other_family_exit_2(tmp_path, capsys,
                                                    family):
    with pytest.raises(SystemExit) as exc:
        run_cli(["generate", "--family", family, "--n", "4",
                 "--edge-prob", "0.3", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "edge_prob is not used" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("family", ["complete", "stochastic", "scale-free"])
def test_simulate_edge_prob_for_other_family_exit_2(tmp_path, capsys,
                                                    family):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--family", family, "--n", "4",
                 "--edge-prob", "0.3", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "edge_prob is not used" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_config_edge_prob_for_other_family_exit_2(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[generator]\nfamily = scale-free\nn = 10\n"
                   "edge_prob = 0.3\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--config", str(cfg),
                 "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "edge_prob is not used" in capsys.readouterr().err


@pytest.mark.parametrize("replications", ["0", "-3"])
def test_simulate_replications_below_one_exit_2(tmp_path, capsys,
                                                replications):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--family", "complete", "--n", "10",
                 "--replications", replications, "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"replications must be >= 1, got {replications}" in err
    assert not list(tmp_path.iterdir())


def test_simulate_config_replications_zero_exit_2(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[generator]\nfamily = complete\nn = 10\n"
                   "[ensemble]\nreplications = 0\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--config", str(cfg),
                 "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "replications must be >= 1, got 0" in capsys.readouterr().err


def test_generate_random_edge_prob_defaults_to_half(tmp_path, capsys):
    from diffusim import gen_random, graph_from_json
    assert run_cli(["generate", "--family", "random", "--n", "30",
                    "--seed", "4", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "random_n30_seed4.graph.json").read_text()
    assert graph_from_json(text) == gen_random(30, 0.5, seed=4)


def test_generate_scale_free_beyond_32_bit_draws_exit_2(tmp_path, capsys):
    # the cap is checked when the GeneratorSpec is built, so it is a usage
    # error like --n 0
    with pytest.raises(SystemExit) as exc:
        run_cli(["generate", "--family", "scale-free", "--n",
                 str(2**31 + 2), "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert "2147483649" in err


@pytest.mark.parametrize("args,msg", [
    (["--graph", "{graph}", "--family", "complete"], "not both"),
    (["--graph", "{graph}", "--replications", "3"], "cannot be regenerated"),
    (["--family", "random"], "--family requires --n"),
])
def test_simulate_conflicting_inputs_exit_2(tmp_path, capsys, args, msg):
    graph = tmp_path / "path.graph.json"
    graph.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}',
                     encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", *(a.format(graph=graph) for a in args),
                 "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,config", [
    (["--n", "50"], None),
    (["--edge-prob", "0.3"], None),
    (["--n", "50", "--edge-prob", "0.3"], None),
    ([], "[generator]\nn = 50\n"),
    ([], "[generator]\nedge_prob = 0.3\n"),
    ([], "[generator]\nfamily = random\n"),
], ids=["n", "edge-prob", "both", "config-n", "config-edge-prob",
        "config-family"])
def test_simulate_graph_refuses_generator_flags(tmp_path, capsys, flags,
                                                config):
    # a loaded graph reads none of them, whether flag or config value
    graph = tmp_path / "path.graph.json"
    graph.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}',
                     encoding="utf-8")
    argv = ["simulate", "--graph", str(graph), *flags,
            "--outdir", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "c.ini").write_text(config, encoding="utf-8")
        argv += ["--config", str(tmp_path / "c.ini")]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "not both" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reproduce_requires_figure(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["reproduce", "--seed", "1", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--figure is required" in capsys.readouterr().err


def test_simulate_missing_config_exit_1(tmp_path, capsys):
    assert run_cli(["simulate", "--config", str(tmp_path / "missing.ini"),
                    "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file not found")


def test_analyze_out_ignores_outdir_env(tmp_path, monkeypatch, capsys):
    # --out is a path of its own, relative to the working directory
    graph = tmp_path / "path.graph.json"
    graph.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}',
                     encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DIFFUSIM_OUTDIR", str(tmp_path / "envdir"))
    assert run_cli(["analyze", "--graph", str(graph), "--stat", "clustering",
                    "--out", "c.json"]) == 0
    assert capsys.readouterr().out == "wrote c.json\n"
    assert (tmp_path / "c.json").exists()
    assert not (tmp_path / "envdir").exists()


def test_analyze_out_creates_its_directory(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "path.graph.json"
    graph.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}',
                     encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli(["analyze", "--graph", str(graph), "--stat", "clustering",
                    "--out", "nodir/x.txt"]) == 0
    assert capsys.readouterr().out == f"wrote {Path('nodir/x.txt')}\n"
    assert json.loads((tmp_path / "nodir" / "x.txt").read_text()) == {
        "n": 3, "clustering_coefficient": 0.0}


def test_analyze_path_length(tmp_path, capsys):
    graph = tmp_path / "path.graph.json"
    graph.write_text('{"n": 4, "edges": [[0, 1, 1.0], [1, 2, 0.5]]}',
                     encoding="utf-8")
    assert run_cli(["analyze", "--graph", str(graph),
                    "--stat", "path-length"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n": 4, "characteristic_path_length": 4 / 3,
                   "connected": False, "component_size": 3}


def test_simulate_unsaturated_run_reports_loops(tmp_path, capsys):
    # an edgeless graph informs nobody, so the run stops at its budget
    assert run_cli(["simulate", "--family", "random", "--n", "10",
                    "--edge-prob", "0", "--max-loops", "3",
                    "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "initial=1: not saturated within 3 loops (final informed 1)" in out


# --- every input surface of cli.main, fuzzed ------------------------------
# Whatever a user feeds in, main exits 0, 1 or 2; exit 1 ends in an
# `error:` line with no traceback; and a command that fails writes no file.
# Each surface mixes well-formed input, so that runs reach the later
# checks, with junk. Every drawn count stays small: a graph of 10**9
# vertices may be granted by overcommit and then exhaust memory, where
# 10**15 is refused at once (test_analyze_huge_n_fails_cleanly).

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)
TINY_DESK = dict(n=12, initials=(1, 3), max_loops=20, replications=2,
                 compare_replications=3, compare_initial=2)
# files that every fuzzed command may name
FUZZ_FILES = {
    "path.graph.json": '{"n": 6, "edges": [[0, 1, 1.0], [1, 2, 0.5]]}',
    "manifest.json": '{"figure": "power-law", "seed": 1}',
    "exp.ini": "[generator]\nfamily = complete\nn = 6\n",
}
PATHS = [f"{{dir}}/{name}" for name in [*FUZZ_FILES, "missing.json"]]
# junk text has no digit, so it never spells a large count, and no path
# separator, so a drawn prefix stays in the output directory
JUNK = st.text("abcxyz-_ .,:%=", max_size=6)
SMALL_INTS = st.integers(-3, 40)
SCALARS = st.one_of(st.none(), st.booleans(), SMALL_INTS,
                    st.floats(-3, 40),
                    st.sampled_from([math.nan, math.inf, -math.inf]), JUNK)
JSON_VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(JUNK, kids, max_size=3), max_leaves=12)
STAT = st.sampled_from(sorted(cli.STATS))


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


# flag dest or config key -> a well-formed value
VALID = {
    "family": st.sampled_from(cli.FAMILIES),
    "n": ints(1, 40),
    "edge_prob": st.floats(0, 1).map(repr),
    "seed": ints(0, 5),
    "graph_seed": ints(0, 5),
    "model": st.sampled_from(cli.MODELS),
    "initial": st.sampled_from(["1", "2", "1,3", "2,"]),
    "initial_vertices": st.sampled_from(["0", "1,2", "0,5"]),
    "max_loops": ints(1, 20),
    "replications": ints(1, 3),
    "regenerate_graph": st.sampled_from(["true", "false", "yes", "off"]),
    "outdir": JUNK,
    "prefix": JUNK,
    "graph": st.sampled_from(PATHS),
    "stat": STAT,
    "figure": st.sampled_from(sorted(cli.FIGURES)),
    "from_manifest": st.sampled_from(PATHS),
    "config": st.sampled_from(PATHS),
}
# replications and loop budgets multiply the run time, so even a junk
# value for them stays small
JUNK_COUNTS = {"replications": ints(-1, 3), "max_loops": ints(-1, 20)}


@st.composite
def mostly(draw, good, junk):
    """``good`` three draws in four, else ``junk``."""
    return draw(good if draw(st.integers(0, 3)) < 3 else junk)


def values(name):
    """A value for the flag dest or config key ``name``."""
    return mostly(VALID[name], JUNK_COUNTS.get(name, SMALL_INTS.map(str))
                  | st.floats(-1, 2).map(repr) | JUNK
                  | st.sampled_from([*cli.FAMILIES, *cli.FIGURES, *PATHS]))


def fuzz_main(argv, files=()):
    """Run main in a fresh directory, which ``{dir}`` in argv names, after
    writing ``files`` there; check the exit contract."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(cli._DESK, TINY_DESK):
        for name, text in {**FUZZ_FILES, **dict(files)}.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main([a.replace("{dir}", tmp) for a in argv])
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2)
        if code == 1:
            assert err.splitlines()[-1].startswith("error:")
            assert "Traceback" not in err
        if code:
            assert not Path(tmp, "out").exists()


@st.composite
def graph_dumps(draw):
    """A dump of at most 40 vertices, clean or with junk cells, or junk."""
    n = draw(st.integers(0, 40))
    clean = draw(st.booleans())

    def cell(good):
        return good if clean else mostly(good, SCALARS)

    vertex = cell(st.integers(0, max(n - 1, 0)))
    edge = cell(st.tuples(vertex, vertex, cell(st.floats(0, 1))))
    dump = {"n": draw(cell(st.just(n))),
            "edges": draw(st.lists(edge, max_size=30))}
    return draw(mostly(st.just(dump), JSON_VALUES))


@FUZZ
@given(dump=graph_dumps(), stat=STAT)
def test_fuzz_analyze_graph_dump(dump, stat):
    fuzz_main(["analyze", "--graph", "{dir}/g.graph.json", "--stat", stat,
               "--out", "{dir}/out/stat.txt"],
              {"g.graph.json": json.dumps(dump)})


@st.composite
def matrix_texts(draw):
    """A square matrix of at most 8 rows, clean or with junk cells, or
    text over the matrix alphabet."""
    if draw(st.integers(0, 3)) == 3:
        return "".join(draw(st.lists(
            st.sampled_from([*"0123456789.,-e I\n\t", "nan", "inf"]),
            max_size=120)))
    k = draw(st.integers(0, 8))
    cell = st.sampled_from(["0", "1", "0.5", "1e-3"])
    if not draw(st.booleans()):
        cell = mostly(cell, st.sampled_from(["nan", "-1", "2", "x", ""]))
    m = [[draw(cell) for _ in range(k)] for _ in range(k)]
    if draw(mostly(st.just(True), st.just(False))):
        for i in range(k):
            m[i][i] = "0"
            for j in range(i):
                m[i][j] = m[j][i]
    sep = draw(st.sampled_from([" ", ",", "\t"]))
    return "".join(sep.join(row) + "\n" for row in m)


@FUZZ
@given(text=matrix_texts(), stat=STAT)
def test_fuzz_analyze_matrix_text(text, stat):
    fuzz_main(["analyze", "--graph", "{dir}/g.matrix.txt", "--stat", stat,
               "--out", "{dir}/out/stat.txt"], {"g.matrix.txt": text})


MANIFESTS = mostly(
    st.fixed_dictionaries({"figure": mostly(VALID["figure"], JSON_VALUES),
                           "seed": mostly(st.integers(-1, 5), SCALARS)}),
    JSON_VALUES).map(json.dumps) | JUNK


@FUZZ
@given(manifest=MANIFESTS)
@example(manifest='{"figure": [], "seed": 0}')
def test_fuzz_reproduce_manifest(manifest):
    fuzz_main(["reproduce", "--from-manifest", "{dir}/m.json",
               "--outdir", "{dir}/out"], {"m.json": manifest})


@st.composite
def config_files(draw):
    keys = draw(st.sets(st.sampled_from(sorted(cli._CONFIG_KEYS))))
    if draw(st.integers(0, 3)) < 3:
        keys |= {("generator", "family"), ("generator", "n")}
    sections = {}
    for section, key in sorted(keys):
        sections.setdefault(section, []).append(
            f"{key} = {draw(values(key))}")
    # a key before any section, or a section given twice, is malformed
    head = draw(st.sampled_from(["", "", "", "n = 5\n", "[generator]\n"]))
    return head + "".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                          for name, lines in sections.items())


@FUZZ
@given(text=config_files())
def test_fuzz_simulate_config_file(text):
    fuzz_main(["simulate", "--config", "{dir}/c.ini", "--outdir", "{dir}/out"],
              {"c.ini": text})


# subcommand -> (flags it takes, well-formed starts); a drawn argv is one
# start or none, then flags with drawn values, at times an unknown one
SUBCOMMANDS = {
    "generate": (["--family", "--n", "--edge-prob", "--seed", "--prefix"],
                 [["--family", "--n"]]),
    "simulate": (["--graph", "--family", "--n", "--edge-prob", "--graph-seed",
                  "--model", "--initial", "--initial-vertices", "--max-loops",
                  "--seed", "--replications", "--fixed-graph", "--config",
                  "--prefix"],
                 [["--family", "--n"], ["--graph"], ["--config"]]),
    "analyze": (["--graph", "--stat"], [["--graph", "--stat"]]),
    "reproduce": (["--figure", "--seed", "--from-manifest"],
                  [["--figure", "--seed"], ["--from-manifest"]]),
}


@st.composite
def argvs(draw, command):
    flags, starts = SUBCOMMANDS[command]
    chosen = [*draw(st.sampled_from([*starts, *starts, []]))]
    chosen += draw(st.lists(st.sampled_from(flags), max_size=4))
    if draw(st.integers(0, 7)) == 7:
        chosen.append("--bogus")
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        if flag != "--fixed-graph":
            name = flag[2:].replace("-", "_")
            argv.append(draw(values(name)) if name in VALID else "x")
    return argv


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@FUZZ
@given(data=st.data())
def test_fuzz_argv(command, data):
    # analyze writes to --out, every other command to --outdir
    out = (["--out", "{dir}/out/stat.txt"] if command == "analyze"
           else ["--outdir", "{dir}/out"])
    fuzz_main([*data.draw(argvs(command)), *out])
