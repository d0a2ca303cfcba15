from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

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
    capsys.readouterr()
    for k in (1, 2, 5, 10, 20, 50):
        assert (tmp_path / f"grid_k{k}.trajectory.csv").exists()


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
])
def test_reproduce_bad_manifest_exit_1(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli(["reproduce", "--from-manifest", str(path),
                    "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_generate_scale_free_beyond_32_bit_draws_exit_1(tmp_path, capsys):
    assert run_cli(["generate", "--family", "scale-free", "--n",
                    str(2**31 + 2), "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "2147483649" in err
