"""The benchmark's own workload configs run through the package.

``bench/run.py`` builds each workload's sweep config in ``make_config`` and
checks every pass with ``check_passes``.  This test imports the script
(without writing bytecode next to it) and runs one pass of every workload
through those two functions, so a change to the config loader or to the
sweep's row accounting that would break the benchmark fails here first.
"""

import importlib.util
import pathlib
import sys

import pytest

from ssbm import ExperimentConfig
from ssbm.harness import run_sweep

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` as a module, with ``bench/`` on the path for its
    ``calibrate`` import and in ``sys.modules`` for its dataclasses."""
    sys.path.insert(0, str(_BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench_run", _BENCH / "run.py")
    module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(_BENCH))
        del sys.modules["bench_run"]


def test_every_workload_config_runs_one_accounted_pass(bench_run, tmp_path):
    assert sorted(bench_run.WORKLOADS) == ["census-t1-n3000", "census-t2-n3000", "detect-n200"]
    for workload, spec in bench_run.WORKLOADS.items():
        cfg = ExperimentConfig.from_json(bench_run.make_config(workload, 0, tmp_path / workload))
        assert cfg.kind == spec["kind"] and cfg.workers == 1
        result = run_sweep(cfg)
        gate = bench_run.Gate()
        one = bench_run.Pass(cfg, result, wall=0.0, cpu=0.0, calibration=0.0)
        errors, unexpected = bench_run.check_passes(gate, workload, spec["kind"], [one])
        assert gate.passed, gate.checks
        assert unexpected == 0
        # the census grids' rho = 1 cells are the only error rows
        assert errors == (cfg.reps if spec["kind"] == "census-sweep" else 0)
