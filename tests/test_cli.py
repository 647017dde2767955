import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssbm import read_instance
from ssbm import cli
from ssbm.cli import main
from ssbm.sdp import CERT_GAP


def test_generate_writes_readable_instance(tmp_path):
    out = tmp_path / "g.txt"
    code = main(["generate", "--n", "40", "--a", "8", "--b", "3",
                 "--rho", "0.5", "--seed", "4", "--out", str(out)])
    assert code == 0
    g, rev = read_instance(out)
    assert g.n == 40 and rev.m == 20
    assert np.all(g.ei < g.ej) and np.all(np.diff(g.ei * g.n + g.ej) > 0)


def test_census_command_json(tmp_path, capsys):
    code = main(["census", "--n", "60", "--a", "7", "--b", "2",
                 "--rho", "0.4", "--seed", "1", "--t", "1",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"overlap", "ties", "estimates"}
    assert len(payload["estimates"]) == 60
    on_disk = json.loads((tmp_path / "r.json").read_text())
    assert on_disk == payload


def test_payload_keys_and_order(capsys):
    # each subcommand's JSON report, key for key and in order
    model = ["--n", "60", "--a", "8", "--b", "2", "--seed", "2"]
    solve = model + ["--restarts", "1"]
    solution = ["value", "sweeps", "converged", "certified_rel_gap"]
    payloads = []
    for argv, keys in ((["census", "--rho", "0.4"] + model, ["overlap", "ties", "estimates"]),
                       (["sdp"] + solve, solution + ["overlap_unrevealed"]),
                       (["csdp", "--rho", "0.2"] + solve,
                        solution + ["margin00", "overlap_unrevealed"]),
                       (["csdp"] + solve, solution + ["margin00", "overlap_unrevealed"]),
                       (["test", "--rho", "0.25"] + solve,
                        ["statistic", "threshold", "decision", "delta", "rho0", "model"])):
        assert main(argv) == 0
        payloads.append(json.loads(capsys.readouterr().out))
        assert list(payloads[-1]) == keys
    assert payloads[3]["margin00"] == 0.0  # at rho = 0 nothing is aggregated
    assert payloads[4]["delta"] == 6 / 40 and payloads[4]["model"] == "sbm"


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
                 "--seed", "2", "--restarts", "1"])
    assert code == 0
    sdp_payload = json.loads(capsys.readouterr().out)
    assert {"value", "sweeps", "converged", "certified_rel_gap",
            "overlap_unrevealed"} == set(sdp_payload)
    assert 0 <= sdp_payload["certified_rel_gap"] <= CERT_GAP

    code = main(["csdp", "--n", "60", "--a", "8", "--b", "2", "--rho", "0.2",
                 "--seed", "2", "--restarts", "1"])
    assert code == 0
    csdp_payload = json.loads(capsys.readouterr().out)
    assert "margin00" in csdp_payload
    assert 0 <= csdp_payload["certified_rel_gap"] <= CERT_GAP
    assert csdp_payload["value"] <= sdp_payload["value"] + 1e-3 * 60 * 3


def test_test_command_reports_decision(capsys):
    code = main(["test", "--n", "80", "--a", "9", "--b", "2", "--rho", "0.25",
                 "--seed", "3", "--restarts", "1", "--model", "sbm"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"] == 80 * (3.5 - 7 / 40)
    assert payload["decision"] in (0, 1)
    assert payload["model"] == "sbm"
    # a margin that makes the threshold NaN or non-positive is a usage error
    assert main(["test", "--n", "80", "--a", "9", "--b", "2", "--rho", "0.25",
                 "--restarts", "1", "--delta", "nan"]) == 1


def test_test_command_checks_the_margin_before_solving(monkeypatch, capsys):
    # an invalid margin exits 1 before any sample or solve is paid for
    def refuse(*args, **kwargs):
        raise RuntimeError("solve_csdp ran")

    monkeypatch.setattr(cli, "solve_csdp", refuse)
    assert main(["test", "--n", "2000", "--a", "9", "--b", "2", "--rho", "0.25",
                 "--restarts", "1", "--delta", "nan"]) == 1
    assert "margin delta must lie in" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "60"])  # missing --a/--b
    assert exc.value.code == 1
    # bad parameter values are usage errors too (exit 1, no traceback)
    assert main(["census", "--n", "61", "--a", "7", "--b", "2"]) == 1
    assert main(["sdp", "--n", "40", "--a", "3", "--b", "5"]) == 1
    # the retired `oracles` subcommand is an unknown choice
    with pytest.raises(SystemExit) as exc:
        main(["oracles"])
    assert exc.value.code == 1


def test_sweep_with_flags(tmp_path, capsys):
    out = tmp_path / "sweepout"
    code = main(["sweep", "--kind", "census-sweep", "--n", "60", "--a", "6",
                 "--b", "2", "--rho", "0.3", "0.6", "--reps", "2",
                 "--seed", "5", "--out", str(out), "--restarts", "1"])
    assert code == 0
    assert (out / "records.csv").exists()
    assert (out / "summary.json").exists()


def test_sweep_with_config_file(tmp_path):
    cfg = {
        "kind": "detection-boxes",
        "params": {"n": [40], "a": [8.0], "b": [2.0], "rho": [0.25]},
        "reps": 1,
        "solver": {"restarts": 1, "tol": 1e-6, "max_sweeps": 2000, "seed": 0},
        "out_dir": str(tmp_path / "cfgout"),
        "seed": 9,
        "workers": 1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path)]) == 0
    rows = (tmp_path / "cfgout" / "records.csv").read_text().splitlines()
    assert len(rows) == 2 + 4  # comment, header, 4 records


def test_sweep_with_error_rows_exits_two(tmp_path, capsys):
    # at rho = 1 the census has nothing to estimate, so each replication fails
    out = tmp_path / "errout"
    code = main(["sweep", "--kind", "census-sweep", "--n", "40", "--a", "6", "--b", "2",
                 "--rho", "0.5", "1.0", "--reps", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "2 replication(s) failed" in err and "nothing to estimate" in err
    rows = (out / "records.csv").read_text().splitlines()
    assert sum(row.count(",error,") for row in rows) == 2


def test_sweep_missing_flags_is_usage_error():
    assert main(["sweep", "--kind", "census-sweep"]) == 1


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
    for bad in ({**cfg, "reps": "2"}, {**cfg, "solver": {"restarts": "2"}},
                {**cfg, "params": {**cfg["params"], "n": [60.5]}}):
        path.write_text(json.dumps(bad))
        assert main(["sweep", "--config", str(path)]) == 1


def test_sdp_command_erm_model(capsys):
    code = main(["sdp", "--n", "60", "--a", "8", "--b", "2", "--seed", "1",
                 "--restarts", "1", "--model", "erm"])
    assert code == 0
    assert "value" in json.loads(capsys.readouterr().out)


def test_numeric_failures_exit_two(monkeypatch, capsys):
    import ssbm.cli as cli
    from ssbm import NumericError

    def boom(params):
        raise NumericError("synthetic solver breakdown")

    monkeypatch.setattr(cli, "sample_instance", boom)
    code = main(["sdp", "--n", "40", "--a", "4", "--b", "1"])
    assert code == 2


def test_sweep_unwritable_out_dir_is_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["sweep", "--kind", "census-sweep", "--n", "40", "--a", "6",
                 "--b", "2", "--rho", "0.5", "--reps", "1",
                 "--out", str(blocker / "sub")])
    assert code == 1
