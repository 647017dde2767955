"""Bad input fails loudly: the census depth, the size cap of a parameter set,
the seed range every config and tie coin shares, the number rule, and the
size and index shapes of the graph and operator types, and a sweep's output
directory."""

import json

import numpy as np
import pytest

from ssbm import (Graph, Labels, MatrixOperator, ModelParams, census_estimate,
                  centered_adjacency, estimate_unrevealed, predict_accuracy_erf,
                  sample_instance, snr, solve_csdp)
from ssbm.census import margins_at_depth
from ssbm.cli import main
from ssbm.harness import ExperimentConfig
from ssbm.sdp import SolverConfig


def _sweep(**over):
    """A census sweep config, with the fields ``over`` in place of its own."""
    fields = dict(n=(10,), a=(4.0,), b=(1.0,), rho=(0.5,), reps=1, solver=SolverConfig(),
                  out_dir="out", seed=0)
    return ExperimentConfig(kind="census-sweep", **{**fields, **over})


def test_census_depth_must_be_an_integer_of_at_least_one():
    g, rev = sample_instance(ModelParams(n=200, a=5, b=2, rho=0.25, seed=3))
    unrev = rev.unrevealed_set
    for t in (1.5, 2.0, 2.5, True, "2"):
        with pytest.raises(ValueError, match="depth t must be an integer"):
            census_estimate(g, rev, t=t)
        with pytest.raises(ValueError, match="depth t must be an integer"):
            margins_at_depth(g, rev.values, t, unrev)
        with pytest.raises(ValueError, match="depth t must be an integer"):
            predict_accuracy_erf(5, 2, 0.5, t)
        with pytest.raises(ValueError, match="depth t must be an integer"):
            _sweep(t=t)
    for t in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="depth t must be >= 1"):
            census_estimate(g, rev, t=t)
        with pytest.raises(ValueError, match="depth t must be >= 1"):
            predict_accuracy_erf(5, 2, 0.5, t)
        with pytest.raises(ValueError, match="depth t must be >= 1"):
            _sweep(t=t)
    # a numpy integer is a depth like any other
    for t in (1, 2, 3):
        assert np.array_equal(census_estimate(g, rev, t=np.int64(t), seed=7).estimates,
                              census_estimate(g, rev, t=t, seed=7).estimates)
        assert predict_accuracy_erf(5, 2, 0.5, np.int32(t)) == predict_accuracy_erf(5, 2, 0.5, t)


def test_params_cap_n_at_2_31(tmp_path):
    # objects only: nothing is sampled at these sizes
    for n in ((1 << 31) + 2, (1 << 32) + 2):
        with pytest.raises(ValueError, match=r"vertex count must be at most 2\*\*31"):
            ModelParams(n=n, a=1, b=1)
    assert ModelParams(n=1 << 31, a=1, b=1).n == 1 << 31
    cfg = ExperimentConfig(kind="census-sweep", n=(1 << 32,), a=(5.0,), b=(2.0,), rho=(0.5,),
                           reps=1, solver=SolverConfig(), out_dir=str(tmp_path), seed=0)
    with pytest.raises(ValueError, match=r"vertex count must be at most 2\*\*31"):
        cfg.cells()


def _configs(seed, tmp_path):
    yield lambda: ModelParams(n=10, a=4, b=1, seed=seed)
    yield lambda: SolverConfig(seed=seed)
    yield lambda: ExperimentConfig(kind="census-sweep", n=(10,), a=(4.0,), b=(1.0,), rho=(0.5,),
                                   reps=1, solver=SolverConfig(), out_dir=str(tmp_path),
                                   seed=seed)


def _estimators(seed):
    """Both estimators' tie coins, on an instance with a reveal to anchor them,
    and the CSDP estimate of an instance with nothing revealed, whose
    unsupervised rounding draws no coin but takes the seed all the same."""
    g, rev = sample_instance(ModelParams(n=40, a=5, b=2, rho=0.25, seed=3))
    sol = solve_csdp(centered_adjacency(g, 3.5), rev, SolverConfig())
    yield lambda: census_estimate(g, rev, seed=seed)
    yield lambda: estimate_unrevealed(sol, rev, g.labels, seed=seed)
    g0, rev0 = sample_instance(ModelParams(n=40, a=5, b=2, rho=0.0, seed=3))
    sol0 = solve_csdp(centered_adjacency(g0, 3.5), rev0, SolverConfig())
    assert sol0.aggregated is None
    yield lambda: estimate_unrevealed(sol0, rev0, g0.labels, seed=seed)


def test_every_config_takes_seeds_in_0_to_2_64_only(tmp_path, capsys, sweep_config):
    # outside the range a seed would fold onto another: -1 onto 2**64 - 1
    for seed in (-1, 1 << 64, (1 << 64) + 5, np.int64(-1)):
        for make in (*_configs(seed, tmp_path), *_estimators(seed)):
            with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
                make()
    for seed in (1.5, True, "5"):
        for make in (*_configs(seed, tmp_path), *_estimators(seed)):
            with pytest.raises(ValueError, match="seed must be an integer"):
                make()
    for seed in (0, (1 << 64) - 1, np.uint64((1 << 64) - 1), np.int64(5)):
        for make in _configs(seed, tmp_path):
            assert make().seed == seed
        for make in _estimators(seed):
            assert make().estimates.size == 40
    assert main(sweep_config(seed=-1)) == 1
    assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_counts_are_held_to_their_floors():
    # one rule, model._require_int with a floor: "<name> must be >= <floor>"
    for field, floor in (("reps", 1), ("workers", 1)):
        for value in (floor - 1, -1, np.int64(floor - 1)):
            with pytest.raises(ValueError, match=f"^{field} must be >= {floor}$"):
                _sweep(**{field: value})
        assert getattr(_sweep(**{field: np.int32(floor)}), field) == floor
    for field, floor in (("max_sweeps", 1), ("rank", 2)):
        for value in (floor - 1, -1, np.int64(floor - 1)):
            with pytest.raises(ValueError, match=f"^{field} must be >= {floor}$"):
                SolverConfig(**{field: value})
        assert getattr(SolverConfig(**{field: np.int32(floor)}), field) == floor
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 2.0$"):
            SolverConfig(**{field: 2.0})
    assert SolverConfig(rank=None).rank is None


def test_out_dir_must_be_a_path(tmp_path, capsys):
    # a config's out_dir of null or 7 once reached os.makedirs and exited 2
    for out_dir in (None, 7):
        with pytest.raises(ValueError, match=f"^out_dir must be a path, got {out_dir}$"):
            _sweep(out_dir=out_dir)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "census-sweep", "out_dir": out_dir,
                                    "params": {"n": [10], "a": [4.0], "b": [1.0],
                                               "rho": [0.5]}}))
        assert main(["sweep", "--config", str(path)]) == 1
        assert "out_dir must be a path" in capsys.readouterr().err
    assert _sweep(out_dir=tmp_path).out_dir == tmp_path


def test_graph_and_operator_take_integer_sizes_and_vector_indices():
    labels = Labels([1, -1, 1, -1])
    for n in (4.0, "4", True):
        with pytest.raises(ValueError, match="n must be an integer"):
            Graph(n, [0], [1], labels)
    for dim in (3.0, "3", True):
        with pytest.raises(ValueError, match="dim must be an integer"):
            MatrixOperator(dim, [0], [1], [1.0])
    for r, c, w in (([[0, 1]], [[1, 2]], [[1.0, 2.0]]), ([[0], [1]], [[1], [2]], [[1.0], [2.0]]),
                    (0, 1, 1.0)):
        with pytest.raises(ValueError, match="rows/cols/weights must be vectors"):
            MatrixOperator(3, r, c, w)
    # numpy integers stay valid sizes
    assert Graph(np.int64(4), [0], [1], labels).n == 4
    assert MatrixOperator(np.int32(3), [0], [1], [1.0]).to_dense()[0, 1] == 1.0


def test_numbers_are_checked_before_they_are_compared():
    # each of these once raised a bare TypeError from a comparison
    g, _ = sample_instance(ModelParams(n=10, a=4, b=1))
    for call, match in ((lambda: ModelParams(n=200, a="5", b=2), "a must be a number"),
                        (lambda: ModelParams(n=200, a=5, b=None), "b must be a number"),
                        (lambda: ModelParams(n=200, a=5, b=2, rho="0.5"), "rho must be a number"),
                        (lambda: predict_accuracy_erf(5, 2, "0.5"), "rho must be a number"),
                        (lambda: snr("5", 2), "a must be a number"),
                        (lambda: centered_adjacency(g, "2"), "average degree d must be a number")):
        with pytest.raises(ValueError, match=match):
            call()


def test_tolerance_takes_any_real_number_and_grid_errors_name_the_value():
    # a numpy float is a tolerance like any other, stored as a Python float
    cfg = SolverConfig(tol=np.float32(1e-6))
    assert type(cfg.tol) is float and cfg.tol == float(np.float32(1e-6))
    for tol in ("1e-6", True, None):
        with pytest.raises(ValueError, match="tol must be a number"):
            SolverConfig(tol=tol)
    # a refused grid value is named in the error
    for key, value, match in (("n", 200.5, "n values must be an integer, got 200.5"),
                              ("a", True, "a values must be a number, got True"),
                              ("rho", "0.5", "rho values must be a number, got '0.5'")):
        with pytest.raises(ValueError, match=match):
            _sweep(**{key: (value,)})
