import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ssbm
from ssbm import (ExperimentConfig, ResultRecord, SolverConfig,
                  best_threshold_accuracy, run_sweep, snr, summarize)
from ssbm.harness import RESULT_FIELDS, read_csv, write_csv


def _cfg(tmp_path, **over):
    base = dict(
        kind="census-sweep", n=(60,), a=(6.0,), b=(2.0,), rho=(0.3, 0.6),
        reps=3, solver=SolverConfig(restarts=1, seed=0), out_dir=str(tmp_path / "out"),
        seed=11, t=1, workers=1,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_validation(tmp_path):
    # the exact oracles are test code (tests/oracles.py), never a sweep kind
    for kind in ("nonsense", "oracle-suite"):
        with pytest.raises(ValueError):
            _cfg(tmp_path, kind=kind)
    with pytest.raises(ValueError):
        _cfg(tmp_path, reps=0)
    with pytest.raises(ValueError):
        _cfg(tmp_path, n=())
    # b > a cells break non-phase-grid kinds at cell expansion
    bad = _cfg(tmp_path, a=(3.0,), b=(5.0,))
    with pytest.raises(ValueError):
        bad.cells()
    grid = _cfg(tmp_path, kind="phase-grid", a=(3.0, 6.0), b=(4.0,))
    assert grid.cells() == [(60, 6.0, 4.0, 0.3), (60, 6.0, 4.0, 0.6)]
    # phase-grid skips only b > a: an odd n or a rho outside [0, 1] still raises
    for over, match in (({"n": (60, 61)}, "even"), ({"rho": (0.2, 1.5)}, "rho")):
        with pytest.raises(ValueError, match=match):
            _cfg(tmp_path, kind="phase-grid", a=(3.0, 6.0), b=(4.0,), **over).cells()
    # an unknown solver setting is a config error, not a crash
    good = {"kind": "census-sweep", "params": {"n": [60], "a": [6.0], "b": [2.0], "rho": [0.3, 0.6]},
            "reps": 3, "solver": {"restarts": 1, "seed": 0}, "out_dir": str(tmp_path / "out"),
            "seed": 11, "t": 1, "workers": 1}
    assert ExperimentConfig.from_json(json.dumps(good)) == _cfg(tmp_path)
    raw = {**good, "solver": {"restarts": 1, "max_sweep": 10}}
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(json.dumps(raw))
    # and so is a misspelt top-level or params key, which would otherwise run
    # with the default in its place
    raw["solver"] = {}
    for key, value, name in (("rep", 50, "rep"), ("worker", 4, "worker"),
                             ("params", {**raw["params"], "rhos": [0.9]}, "rhos")):
        with pytest.raises(ValueError, match=f"unknown .*: {name}$"):
            ExperimentConfig.from_json(json.dumps({**raw, key: value}))
    # so are a scalar where a parameter list belongs and a non-object solver
    for key, value in (("params", {**raw["params"], "n": 3000}), ("solver", None)):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(json.dumps({**raw, "solver": {}, key: value}))
    # and a count that is not an integer, or a tolerance that is not a number
    for key, value in (("reps", "2"), ("solver", {"restarts": "2"}), ("solver", {"tol": "1e-6"})):
        with pytest.raises(ValueError, match="must be an integer|must be a number"):
            ExperimentConfig.from_json(json.dumps({**raw, "solver": {}, key: value}))
    # grid values are checked, not coerced: n = 200.5 would sweep n = 200
    for key, value in (("n", [200.5]), ("n", ["300"]), ("rho", ["0.5"]), ("a", [True])):
        with pytest.raises(ValueError, match=f"{key} values must be"):
            ExperimentConfig.from_json(json.dumps({**raw, "solver": {},
                                                   "params": {**raw["params"], key: value}}))
    # and a config without its required keys, or one that is not an object
    for bad in ({k: v for k, v in good.items() if k not in ("kind", "out_dir")}, [good]):
        with pytest.raises(ValueError, match="kind, out_dir|JSON object"):
            ExperimentConfig.from_json(json.dumps(bad))


def test_census_sweep_records_and_summary(tmp_path):
    cfg = _cfg(tmp_path)
    result = run_sweep(cfg)
    assert len(result.records) == 2 * 3  # cells x reps
    for rec in result.records:
        assert rec.algorithm == "census-1"
        assert rec.truth_model == "sbm"
        assert 0.0 <= rec.overlap_unrevealed <= 1.0
        assert rec.snr == snr(rec.a, rec.b)
    cells = result.summary["cells"]
    assert len(cells) == 2
    for cell in cells:
        assert "overlap_lower_curve" in cell["reference"]
        assert "erf_accuracy" in cell["reference"]
        grp = cell["groups"][0]
        assert grp["count"] == 3
        assert "overlap_unrevealed" in grp
    assert (tmp_path / "out" / "records.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out" / "figure.svg").exists()
    svg = (tmp_path / "out" / "figure.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<polyline") == 2


def test_census_sweep_at_depth_two_draws_no_t1_lower_curve(tmp_path):
    # the lower curve bounds the t = 1 census only: a t = 2 figure draws the data alone
    result = run_sweep(_cfg(tmp_path, t=2))
    for cell in result.summary["cells"]:
        assert "overlap_lower_curve" not in cell["reference"]
        assert "erf_accuracy" in cell["reference"]
    svg = (tmp_path / "out" / "figure.svg").read_text()
    assert svg.count("<polyline") == 1


def test_csv_round_trip(tmp_path):
    result = run_sweep(_cfg(tmp_path))
    back = read_csv(tmp_path / "out" / "records.csv")
    assert back == result.records


def test_result_fields_pin_the_csv_columns():
    # the columns are ResultRecord's fields in order, so reordering the
    # fields would reorder every records.csv unseen
    assert RESULT_FIELDS == (
        "seed", "rep", "n", "a", "b", "rho", "snr", "algorithm",
        "overlap_unrevealed", "sdp_value", "csdp_value", "margin00",
        "test_decision", "truth_model", "runtime_ms",
    )


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e-300])


@st.composite
def _records(draw):
    a = draw(st.floats(0, 1e100, exclude_min=True) | st.sampled_from([1e-300]))
    b = draw(st.sampled_from([-0.0]) | st.floats(0, 1).map(lambda frac: frac * a))
    values = dict(overlap_unrevealed=st.floats(0, 1) | st.sampled_from([-0.0, 1e-300]),
                  sdp_value=_FINITE, csdp_value=_FINITE, margin00=_FINITE,
                  test_decision=st.integers(0, 1))
    error = draw(st.booleans())
    return ResultRecord(
        seed=draw(st.integers(0, 2**64 - 1)), rep=draw(st.integers(0, 10**6)),
        n=draw(st.integers(2, 10**9)), a=a, b=b, rho=draw(_FINITE), snr=snr(a, b),
        algorithm="error" if error else draw(st.sampled_from(["census-1", "census-2", "sdp", "csdp"])),
        truth_model=draw(st.sampled_from(["sbm", "erm"])), runtime_ms=draw(_FINITE),
        **{} if error else {name: draw(st.none() | kind) for name, kind in values.items()})


@given(st.lists(_records(), max_size=6))
def test_read_csv_inverts_write_csv(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        write_csv(path, records)
        back = read_csv(path)
    assert back == records
    # equality forgives -0.0 for 0.0 and 1.0 for 1; the written rows do not
    assert [r.csv_row() for r in back] == [r.csv_row() for r in records]


def test_read_csv_names_the_malformed_line(tmp_path):
    run_sweep(_cfg(tmp_path))
    lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    path = tmp_path / "bad.csv"
    cases = (
        (lines[:1], "end of file: expected the CSV header"),  # comment line only
        (lines[:3] + [lines[3].rsplit(",", 2)[0]], "line 4: 13 fields, expected 15"),  # cut off
        (lines[:2] + [lines[2] + ",7"], "line 3: 16 fields, expected 15"),  # one field too many
    )
    for text, match in cases:
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=match):
            read_csv(path)


def test_csv_schema_and_snr_recompute(tmp_path):
    result = run_sweep(_cfg(tmp_path))
    lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    assert lines[0].startswith("# created ")
    assert lines[1] == ",".join(RESULT_FIELDS)
    for ln in lines[2:]:
        parts = dict(zip(RESULT_FIELDS, ln.split(",")))
        n, a, b = int(parts["n"]), float(parts["a"]), float(parts["b"])
        assert float(parts["snr"]) == snr(a, b)


def _strip_volatile(path):
    lines = path.read_text().splitlines()
    rt_idx = RESULT_FIELDS.index("runtime_ms")
    out = []
    for ln in lines[1:]:  # drop timestamp comment
        parts = ln.split(",")
        if len(parts) == len(RESULT_FIELDS) and parts[0] != "seed":
            parts[rt_idx] = ""
        out.append(",".join(parts))
    return "\n".join(out)


def test_reproducibility_byte_identical_modulo_volatile(tmp_path):
    r1 = run_sweep(_cfg(tmp_path / "a"))
    r2 = run_sweep(_cfg(tmp_path / "b"))
    text1 = _strip_volatile(tmp_path / "a" / "out" / "records.csv")
    text2 = _strip_volatile(tmp_path / "b" / "out" / "records.csv")
    assert text1 == text2


def test_sweep_ignores_the_solver_seed(tmp_path):
    # every solve, the matched null's included, seeds from the master seed
    for name, seed in (("a", 0), ("b", 12345)):
        run_sweep(_cfg(tmp_path / name, kind="detection-boxes", rho=(0.25,), reps=2,
                       solver=SolverConfig(restarts=1, seed=seed)))
    text1 = _strip_volatile(tmp_path / "a" / "out" / "records.csv")
    text2 = _strip_volatile(tmp_path / "b" / "out" / "records.csv")
    assert text1 == text2


def test_parallel_matches_serial(tmp_path):
    serial = run_sweep(_cfg(tmp_path / "s", kind="detection-boxes",
                            rho=(0.25,), reps=2, workers=1))
    parallel = run_sweep(_cfg(tmp_path / "p", kind="detection-boxes",
                              rho=(0.25,), reps=2, workers=3))
    strip = lambda recs: [tuple(getattr(r, f) for f in RESULT_FIELDS if f != "runtime_ms")
                          for r in recs]
    assert strip(serial.records) == strip(parallel.records)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_python(code, **preset):
    """stdout of a fresh interpreter running code, with none of the BLAS
    thread variables set apart from preset."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env, timeout=120).stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_defaults_to_one_blas_thread():
    # BLAS fixes its thread count when numpy loads, so `import ssbm` sets it first
    out = _run_python("import os, ssbm\n"
                      f"print(*(os.environ[v] for v in {_BLAS_VARS!r}))\n"
                      "print(len(os.listdir('/proc/self/task')))")
    assert out == ["1", "1", "1", "1"]


def test_import_keeps_a_preset_blas_thread_count():
    out = _run_python("import os, ssbm\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
                      OPENBLAS_NUM_THREADS="2")
    assert out == ["2"]


def test_public_names_resolve_and_star_import_runs():
    # a name left in __all__ after its definition moved breaks `import *`
    assert len(set(ssbm.__all__)) == len(ssbm.__all__)
    assert all(hasattr(ssbm, name) for name in ssbm.__all__)
    namespace = {}
    exec("from ssbm import *", namespace)
    assert set(ssbm.__all__) <= namespace.keys()


def test_spawned_sweep_workers_inherit_one_blas_thread():
    out = _run_python("import multiprocessing, os, ssbm\n"
                      "from concurrent.futures import ProcessPoolExecutor\n"
                      "spawn = multiprocessing.get_context('spawn')\n"
                      "with ProcessPoolExecutor(1, mp_context=spawn) as pool:\n"
                      f"    print(*pool.map(os.getenv, {_BLAS_VARS!r}))")
    assert out == ["1", "1", "1"]


def test_detection_sweep_shape(tmp_path):
    result = run_sweep(_cfg(tmp_path, kind="detection-boxes", rho=(0.25,), reps=2))
    # per rep: sdp + csdp rows for sbm and erm
    assert len(result.records) == 2 * 4
    algos = {(r.algorithm, r.truth_model) for r in result.records}
    assert algos == {("sdp", "sbm"), ("csdp", "sbm"), ("sdp", "erm"), ("csdp", "erm")}
    cell = result.summary["cells"][0]
    assert "detection" in cell
    det = cell["detection"]
    assert "csdp" in det and "sdp" in det
    assert det["threshold"] == 60 * ((6 - 2) / 2 - (6 - 2) / 40)
    # rho0 = 1 - 4 / (30 * 5) is far above rho = 0.25: decisions unproven
    assert det["rho0"] == 1 - 4 / 150 and det["test_proven"] is False
    assert (tmp_path / "out" / "figure.svg").exists()
    for rec in result.records:
        if rec.algorithm == "csdp" and rec.truth_model == "sbm":
            assert rec.margin00 is not None
            assert rec.test_decision in (0, 1)


def test_unsupervised_cell_sdp_equals_csdp(tmp_path, monkeypatch):
    # with nothing revealed the csdp row reuses the sdp solve and its rounding
    import ssbm.csdp
    import ssbm.harness

    dims = []
    real = ssbm.harness.solve_elliptope

    def counting(M, cfg=None):
        dims.append(M.dim)
        return real(M, cfg)

    monkeypatch.setattr(ssbm.harness, "solve_elliptope", counting)
    monkeypatch.setattr(ssbm.csdp, "solve_elliptope", counting)
    result = run_sweep(_cfg(tmp_path, kind="phase-grid", rho=(0.0, 0.2), reps=2))
    # two reps at rho = 0 solve once each; two at rho = 0.2 solve SDP and CSDP
    assert sorted(dims) == [49] * 2 + [60] * 4
    rows = {(r.rho, r.rep, r.algorithm): r for r in result.records}
    for rep in range(2):
        sdp_row, csdp_row = rows[0.0, rep, "sdp"], rows[0.0, rep, "csdp"]
        assert csdp_row.csdp_value == sdp_row.sdp_value  # bit-identical degenerate cell
        assert csdp_row.overlap_unrevealed == sdp_row.overlap_unrevealed
        assert csdp_row.margin00 is None


def test_sandwich_audit_sweep(tmp_path):
    result = run_sweep(_cfg(tmp_path, kind="sandwich-audit", rho=(0.3,), reps=2))
    assert len(result.records) == 2
    assert all(r.test_decision == 1 for r in result.records)  # sandwich holds
    assert "sandwich" in result.summary
    assert len(result.summary["sandwich"]) == 2
    assert {"lower", "mid", "upper", "margin00", "holds"} <= set(result.summary["sandwich"][0])


def test_summarize_conventions():
    rec = ResultRecord(seed=1, rep=0, n=10, a=4, b=1, rho=0.2, snr=snr(4, 1),
                       algorithm="census-1", overlap_unrevealed=0.5,
                       sdp_value=None, csdp_value=None, margin00=None,
                       test_decision=None, truth_model="sbm", runtime_ms=1.0)
    summary = summarize([rec])
    grp = summary["cells"][0]["groups"][0]
    assert grp["overlap_unrevealed"]["stderr"] == 0.0
    assert grp["overlap_unrevealed"]["mean"] == 0.5
    # every float | None column is rolled up, in field order; an int column is not
    full = dataclasses.replace(rec, sdp_value=1.0, csdp_value=1.0, margin00=1.0, test_decision=1)
    grp = summarize([full])["cells"][0]["groups"][0]
    assert list(grp) == ["algorithm", "truth_model", "count", "overlap_unrevealed", "sdp_value",
                         "csdp_value", "margin00", "decision_rate"]
    with pytest.raises(ValueError):
        summarize([])


def test_record_validation():
    with pytest.raises(ValueError):
        ResultRecord(seed=1, rep=0, n=10, a=4, b=1, rho=0.2, snr=0.123,
                     algorithm="census-1", overlap_unrevealed=0.5,
                     sdp_value=None, csdp_value=None, margin00=None,
                     test_decision=None, truth_model="sbm", runtime_ms=1.0)
    with pytest.raises(ValueError):
        ResultRecord(seed=1, rep=0, n=10, a=4, b=1, rho=0.2, snr=snr(4, 1),
                     algorithm="census-1", overlap_unrevealed=1.5,
                     sdp_value=None, csdp_value=None, margin00=None,
                     test_decision=None, truth_model="sbm", runtime_ms=1.0)


def test_best_threshold_accuracy():
    assert best_threshold_accuracy([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert best_threshold_accuracy([1.0], [1.0]) == 0.5
    assert abs(best_threshold_accuracy([1.0, 2.0, 3.0], [0.5, 1.5, 2.5]) - 4 / 6) < 1e-12
    with pytest.raises(ValueError):
        best_threshold_accuracy([], [1.0])


def test_shipped_configs_parse():
    import pathlib
    cfg_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    names = {p.name for p in cfg_dir.glob("*.json")}
    assert {"census-sweep.json", "detection-boxes.json", "phase-grid.json"} <= names
    for path in sorted(cfg_dir.glob("*.json")):
        cfg = ExperimentConfig.from_json(path.read_text())
        assert cfg.cells()
    grid = ExperimentConfig.from_json((cfg_dir / "phase-grid.json").read_text())
    assert all(b <= a for _, a, b, _ in grid.cells())
