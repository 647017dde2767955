import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssbm import ExperimentConfig, ModelParams, SolverConfig, run_sweep, sample_instance
from ssbm import cli, harness
from ssbm.cli import main
from ssbm.sdp import CERT_GAP


def test_generate_exports_the_drawn_instance(tmp_path):
    out = tmp_path / "g.txt"
    code = main(["generate", "--n", "40", "--a", "8", "--b", "3",
                 "--rho", "0.5", "--seed", "4", "--out", str(out)])
    assert code == 0
    g, rev = sample_instance(ModelParams(n=40, a=8, b=3, rho=0.5, seed=4))
    assert rev.m == 20
    # line for line: header, every edge in the graph's order, then L and R
    header, *edges, labels, reveal = out.read_text().splitlines()
    assert header == f"40 {g.num_edges}"
    pairs = np.array([ln.split() for ln in edges], dtype=np.int64).reshape(-1, 2)
    assert np.array_equal(pairs, np.column_stack([g.ei, g.ej]))
    assert labels.split() == ["L", *map(str, g.labels.values.tolist())]
    assert reveal.split() == ["R", *map(str, rev.values.tolist())]


def test_census_command_json(capsys):
    code = main(["census", "--n", "60", "--a", "7", "--b", "2",
                 "--rho", "0.4", "--seed", "1", "--t", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"overlap", "ties", "estimates"}
    assert len(payload["estimates"]) == 60


def test_payload_keys_and_order(capsys):
    # each subcommand's JSON report, key for key and in order
    model = ["--n", "60", "--a", "8", "--b", "2", "--seed", "2"]
    solution = ["value", "sweeps", "converged", "certified_rel_gap"]
    payloads = []
    for argv, keys in ((["census", "--rho", "0.4"] + model, ["overlap", "ties", "estimates"]),
                       (["sdp"] + model, solution + ["overlap_unrevealed"]),
                       (["csdp", "--rho", "0.2"] + model,
                        solution + ["margin00", "overlap_unrevealed", "test_decision"]),
                       (["csdp"] + model,
                        solution + ["margin00", "overlap_unrevealed", "test_decision"])):
        assert main(argv) == 0
        payloads.append(json.loads(capsys.readouterr().out))
        assert list(payloads[-1]) == keys
    # at rho = 0 nothing is aggregated: the row's margin00 column is empty
    assert payloads[2]["margin00"] is not None and payloads[3]["margin00"] is None


def test_python_dash_m_runs_the_cli():
    # `python -m ssbm` reaches the CLI without an install, exit codes included
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    args = [sys.executable, "-m", "ssbm", "census", "--n", "60", "--a", "7", "--b", "2",
            "--seed", "1", "--t", "1", "--rho"]
    ok = subprocess.run(args + ["0.4"], env=env, capture_output=True, text=True)
    assert ok.returncode == 0, ok.stderr
    assert len(json.loads(ok.stdout)["estimates"]) == 60
    everything_revealed = subprocess.run(args + ["1.0"], env=env, capture_output=True, text=True)
    assert everything_revealed.returncode == 1
    assert "nothing to estimate" in everything_revealed.stderr


def test_sdp_and_csdp_commands(capsys):
    code = main(["sdp", "--n", "60", "--a", "8", "--b", "2", "--rho", "0.2",
                 "--seed", "2"])
    assert code == 0
    sdp_payload = json.loads(capsys.readouterr().out)
    assert {"value", "sweeps", "converged", "certified_rel_gap",
            "overlap_unrevealed"} == set(sdp_payload)
    assert 0 <= sdp_payload["certified_rel_gap"] <= CERT_GAP

    code = main(["csdp", "--n", "60", "--a", "8", "--b", "2", "--rho", "0.2",
                 "--seed", "2"])
    assert code == 0
    csdp_payload = json.loads(capsys.readouterr().out)
    assert "margin00" in csdp_payload
    assert 0 <= csdp_payload["certified_rel_gap"] <= CERT_GAP
    assert csdp_payload["value"] <= sdp_payload["value"] + 1e-3 * 60 * 3


def test_csdp_command_reports_the_test_decision(capsys):
    # the paper's test needs a > b: at a = b, which the model takes, the
    # decision is null, as the row's test_decision column is empty
    argv = ["csdp", "--n", "80", "--rho", "0.25", "--seed", "3"]
    planted = _payload(capsys, argv + ["--a", "9", "--b", "2"])
    assert planted["test_decision"] in (0, 1)
    assert _payload(capsys, argv + ["--a", "4", "--b", "4"])["test_decision"] is None


def _run_commands():
    """The subcommands that run one instance: every one but generate and sweep."""
    (commands,) = [act for act in cli.build_parser()._actions if act.dest == "command"]
    return {name: p for name, p in commands.choices.items() if name not in ("generate", "sweep")}


def test_every_run_option_names_a_sweep_value():
    # a run reproduces a sweep row from values the row or its config holds, so
    # each option of census|sdp|csdp must name one: a records.csv column,
    # the truth_model column (--model), the config key t, or a solver setting
    # (a solver's own seed is derived from the instance seed, never set)
    assert {"n", "a", "b", "rho", "seed", "truth_model"} <= set(harness.RESULT_FIELDS)
    assert "t" in {f.name for f in dataclasses.fields(ExperimentConfig)}
    allowed = ({"n", "a", "b", "rho", "seed", "model", "t"}
               | {f.name for f in dataclasses.fields(SolverConfig)} - {"seed"})
    commands = _run_commands()
    assert set(commands) == {"census", "sdp", "csdp"}
    for name, parser in commands.items():
        dests = {act.dest for act in parser._actions if act.dest != "help"}
        assert dests <= allowed, (name, dests - allowed)


def test_usage_errors_exit_one(capsys):
    # main returns 1 for every argparse refusal (argparse itself exits 2)
    assert main(["census", "--n", "60"]) == 1  # missing --a/--b
    assert "the following arguments are required: --a, --b" in capsys.readouterr().err
    # bad parameter values are usage errors too (exit 1, no traceback)
    assert main(["census", "--n", "61", "--a", "7", "--b", "2"]) == 1
    assert main(["sdp", "--n", "40", "--a", "3", "--b", "5"]) == 1
    # the retired `oracles` and `test` subcommands are unknown choices
    for retired in ("oracles", "test"):
        assert main([retired, "--n", "40", "--a", "6", "--b", "2"]) == 1
        assert f"invalid choice: '{retired}'" in capsys.readouterr().err
    # the retired restart cap is no flag: each solve makes one start
    assert main(["sdp", "--n", "40", "--a", "6", "--b", "2", "--restarts", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --restarts 2" in captured.err
    # a report goes to stdout only
    for command in _run_commands():
        assert main([command, "--n", "40", "--a", "6", "--b", "2", "--out", "r.json"]) == 1
        assert "unrecognized arguments: --out r.json" in capsys.readouterr().err
    # and --help is a success
    assert main(["sweep", "--help"]) == 0
    assert "--config CONFIG" in capsys.readouterr().out


def test_sweep_with_config_file(tmp_path, capsys):
    cfg = {
        "kind": "detection-boxes",
        "params": {"n": [40], "a": [8.0], "b": [2.0], "rho": [0.25]},
        "reps": 1,
        "solver": {"tol": 1e-6, "max_sweeps": 2000, "seed": 0},
        "out_dir": str(tmp_path / "cfgout"),
        "seed": 9,
        "workers": 1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path)]) == 0
    out = tmp_path / "cfgout"
    rows = (out / "records.csv").read_text().splitlines()
    assert len(rows) == 2 + 4  # comment, header, 4 records
    assert capsys.readouterr().out == (f"wrote 4 records to {out / 'records.csv'}\n"
                                       f"summary: {out / 'summary.json'}\n")
    assert json.loads((out / "summary.json").read_text())["cells"]


def test_sweep_with_error_rows_exits_two(tmp_path, capsys, sweep_config):
    # at rho = 1 the census has nothing to estimate, so each replication fails
    out = tmp_path / "out"
    assert main(sweep_config(params={"rho": [0.5, 1.0]}, reps=2)) == 2
    err = capsys.readouterr().err
    assert "2 replication(s) failed" in err and "nothing to estimate" in err
    rows = (out / "records.csv").read_text().splitlines()
    assert sum(row.count(",error,") for row in rows) == 2


def test_sweep_missing_flags_is_usage_error(capsys):
    # the config file is the one way into a sweep
    for argv in (["sweep"], ["sweep", "--kind", "census-sweep"]):
        assert main(argv) == 1
        assert "the following arguments are required: --config" in capsys.readouterr().err


def test_sweep_config_refuses_every_other_flag(tmp_path, capsys, sweep_config):
    argv = sweep_config()
    for flags in (["--workers", "4"], ["--seed", "0"], ["--max-sweeps", "10", "--n", "60"],
                  ["--out", str(tmp_path / "out")]):
        assert main(argv + flags) == 1
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(argv) == 0


def test_config_keys_left_out_take_their_defaults(tmp_path, monkeypatch, sweep_config):
    # the JSON reader leaves every default to ExperimentConfig and SolverConfig
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return run_sweep(cfg)

    monkeypatch.setattr(cli, "run_sweep", capture)
    assert main(sweep_config()) == 0
    assert seen[0] == ExperimentConfig(kind="census-sweep", n=(40,), a=(6.0,), b=(2.0,),
                                       rho=(0.5,), solver=SolverConfig(),
                                       out_dir=str(tmp_path / "out"))
    assert (seen[0].reps, seen[0].seed, seen[0].t, seen[0].workers) == (1, 0, 1, 1)
    keys = {"reps": 2, "seed": 5, "t": 2, "workers": 1,
            "solver": {"tol": 1e-5, "max_sweeps": 300, "rank": 4}}
    assert main(sweep_config(**keys)) == 0
    assert seen[1] == dataclasses.replace(seen[0], reps=2, seed=5, t=2, solver=SolverConfig(
        tol=1e-5, max_sweeps=300, rank=4))


def test_sweep_refuses_a_bad_grid_before_creating_out_dir(tmp_path, capsys, sweep_config):
    # an odd n, and a phase grid whose every cell has b > a, are refused
    # before anything is written
    for keys, message in (({"params": {"n": [61]}}, "n must be a positive even integer, got 61"),
                          ({"kind": "phase-grid", "params": {"a": [1.0], "b": [2.0, 3.0]}},
                           "parameter grid contains no valid cell")):
        assert main(sweep_config(**keys)) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("shipped", _CONFIGS, ids=[p.name for p in _CONFIGS])
def test_shipped_configs_run(tmp_path, shipped):
    # each file in configs/ runs through `ssbm sweep --config`, with only its
    # n, replications, workers and out_dir made small
    cfg = json.loads(shipped.read_text())
    cfg["params"]["n"] = [40]
    cfg.update(reps=1, workers=1, out_dir=str(tmp_path / "out"))
    path = tmp_path / shipped.name
    path.write_text(json.dumps(cfg))
    # the census sweep's rho = 1 cell has nothing to estimate: its documented exit 2
    expected = 2 if shipped.name == "census-sweep.json" else 0
    assert main(["sweep", "--config", str(path)]) == expected
    assert (tmp_path / "out" / "records.csv").exists()


def test_sweep_malformed_config_is_usage_error(tmp_path):
    cfg = {"kind": "census-sweep", "params": {"n": 60, "a": [6.0], "b": [2.0], "rho": [0.5]},
           "out_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path)]) == 1
    # a config without its "kind", or a top-level list, is a usage error too
    cfg["params"]["n"] = [60]
    for bad in ({k: v for k, v in cfg.items() if k != "kind"}, [cfg]):
        path.write_text(json.dumps(bad))
        assert main(["sweep", "--config", str(path)]) == 1
    # and so is a count that is not an integer, or a grid n that is not one
    for bad in ({**cfg, "reps": "2"}, {**cfg, "solver": {"max_sweeps": "2"}},
                {**cfg, "params": {**cfg["params"], "n": [60.5]}}):
        path.write_text(json.dumps(bad))
        assert main(["sweep", "--config", str(path)]) == 1


def test_sdp_command_erm_model(tmp_path, monkeypatch, capsys):
    # the CLI's erm instance is the detection-boxes null drawn from the same seed
    drawn = []

    def recording(params):
        drawn.append(sample_instance(params))
        return drawn[-1]

    monkeypatch.setattr(harness, "sample_instance", recording)
    cfg = ExperimentConfig(kind="detection-boxes", n=(60,), a=(8.0,), b=(2.0,), rho=(0.25,),
                           solver=SolverConfig(), out_dir=str(tmp_path), seed=1)
    null_row = next(r for r in run_sweep(cfg).records if r.truth_model == "erm")
    sweep_null, _ = drawn[1]  # the planted instance first, then its null
    code = main(["sdp", "--n", "60", "--a", "8", "--b", "2", "--rho", "0.25",
                 "--seed", str(null_row.seed), "--model", "erm"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == null_row.sdp_value
    cli_null, _ = drawn[2]
    assert np.array_equal(cli_null.ei, sweep_null.ei)
    assert np.array_equal(cli_null.ej, sweep_null.ej)


@pytest.mark.parametrize("command", ["sdp", "csdp"])
@pytest.mark.parametrize("rates", [("2", "9"), ("50", "0")], ids=["a<b", "a/n>1"])
def test_erm_model_refuses_what_the_planted_model_refuses(capsys, command, rates):
    # the matched null is drawn only for planted rates that are valid
    argv = [command, "--n", "40", "--a", rates[0], "--b", rates[1]]
    messages = []
    for model in ("sbm", "erm"):
        assert main(argv + ["--model", model]) == 1
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1] and "ssbm: error:" in messages[0]


def _payload(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _model_argv(row):
    return ["--n", str(row.n), "--a", repr(row.a), "--b", repr(row.b),
            "--rho", repr(row.rho), "--seed", str(row.seed)]


@pytest.mark.parametrize("kind, grid", [
    ("detection-boxes", dict(a=(9.0, 5.0), b=(2.0,), rho=(0.25,))),
    ("phase-grid", dict(a=(6.0,), b=(1.0, 2.0), rho=(0.0, 0.25))),
    ("sandwich-audit", dict(a=(8.0, 5.0), b=(2.0,), rho=(0.0, 0.25))),
])
def test_cli_runs_reproduce_their_sweep_rows(tmp_path, capsys, kind, grid):
    # a row's n, a, b, rho, seed and model, with the sweep's solver flags,
    # make ssbm sdp|csdp print that row's value columns
    cfg = ExperimentConfig(kind=kind, n=(40,), **grid, reps=3,
                           solver=SolverConfig(), out_dir=str(tmp_path), seed=5)
    rows = [r for r in run_sweep(cfg).records if r.algorithm in ("sdp", "csdp")]
    assert len(rows) == 24 and {r.truth_model for r in rows} == (
        {"sbm", "erm"} if kind == "detection-boxes" else {"sbm"})
    for row in rows:
        argv = _model_argv(row) + ["--model", row.truth_model]
        payload = _payload(capsys, [row.algorithm] + argv)
        assert payload["overlap_unrevealed"] == row.overlap_unrevealed
        if row.algorithm == "sdp":
            assert payload["value"] == row.sdp_value
            continue
        assert (payload["value"], payload["margin00"], payload["test_decision"]) == (
            row.csdp_value, row.margin00, row.test_decision)


@pytest.mark.parametrize("t", [1, 2])
def test_census_runs_reproduce_their_sweep_rows(tmp_path, capsys, t):
    cfg = ExperimentConfig(kind="census-sweep", n=(200,), a=(5.0,), b=(2.0,), rho=(0.1, 0.5),
                           reps=2, solver=SolverConfig(), out_dir=str(tmp_path), seed=5, t=t)
    rows = run_sweep(cfg).records
    assert len(rows) == 4
    for row in rows:
        payload = _payload(capsys, ["census"] + _model_argv(row) + ["--t", str(t)])
        assert payload["overlap"] == row.overlap_unrevealed


def test_numeric_failures_exit_two(monkeypatch, capsys):
    from ssbm import NumericError

    def boom(self, params):
        raise NumericError("synthetic solver breakdown")

    # the draw sdp and csdp go through, as a sweep's rows do
    monkeypatch.setattr(harness._Draw, "instance", boom)
    for command in ("sdp", "csdp"):
        assert main([command, "--n", "40", "--a", "4", "--b", "1"]) == 2
        assert "synthetic solver breakdown" in capsys.readouterr().err


def test_other_failures_exit_two(monkeypatch, capsys):
    # neither a usage error nor a numeric one: the last handler's report
    def boom(self, params):
        raise RuntimeError("synthetic breakdown")

    monkeypatch.setattr(harness._Draw, "instance", boom)
    assert main(["sdp", "--n", "40", "--a", "4", "--b", "1"]) == 2
    assert capsys.readouterr().err == "ssbm: failure: synthetic breakdown\n"


def test_sweep_unwritable_out_dir_is_io_error(tmp_path, capsys, sweep_config):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(sweep_config(out_dir=str(blocker / "sub"))) == 1
    err = capsys.readouterr().err
    assert err.startswith("ssbm: error: [Errno") and str(blocker / "sub") in err
