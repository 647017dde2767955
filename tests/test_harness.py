import dataclasses
import itertools
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
from ssbm import (ExperimentConfig, ModelParams, ResultRecord, SolverConfig,
                  best_threshold_accuracy, census_estimate, centered_adjacency,
                  detection_test, estimate_unrevealed, round_leading_eigvec, run_sweep,
                  snr, solve_csdp, solve_elliptope, summarize)
from ssbm.census import overlap
from ssbm.cli import main
from ssbm.harness import RESULT_FIELDS, _stats, read_csv, write_csv
from ssbm.model import sample_instance
from ssbm.rng import derive_key


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
    # the constructor refuses an axis that is not a list (a scalar, or a
    # string it would iterate) and a solver that is not a SolverConfig
    for over, match in (({"n": 200}, "n values must be a list"),
                        ({"rho": "0.3"}, "rho values must be a list"),
                        ({"solver": {"restarts": 1}}, "solver must be a SolverConfig")):
        with pytest.raises(ValueError, match=match):
            _cfg(tmp_path, **over)
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


def test_config_refuses_a_repeated_grid_value(tmp_path, capsys, sweep_config):
    # a repeated value would rerun its cells on the same seeds, and summarize
    # would merge the copies into one cell of twice the count
    for name, values in (("n", (60, 60)), ("a", (6.0, 6.0)), ("b", (2.0, 2.0)),
                         ("rho", (0.25, 0.25)), ("rho", (0.25, 0.5, 0.25))):
        with pytest.raises(ValueError, match=f"^{name} values must be distinct$"):
            _cfg(tmp_path, **{name: values})
    raw = {"kind": "census-sweep", "out_dir": str(tmp_path / "out"),
           "params": {"n": [60], "a": [6.0], "b": [2.0], "rho": [0.3, 0.3]}}
    with pytest.raises(ValueError, match="^rho values must be distinct$"):
        ExperimentConfig.from_json(json.dumps(raw))
    # equal once cast: a = 6 and a = 6.0 are one cell
    with pytest.raises(ValueError, match="^a values must be distinct$"):
        _cfg(tmp_path, a=(6, 6.0))
    assert main(sweep_config(params={"rho": [0.25, 0.25]}, reps=3)) == 1
    assert "rho values must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
        # the paper's asymptotic curve is no bound at finite degree, so no cell reports it
        assert list(cell["reference"]) == ["erf_accuracy"]
        grp = cell["groups"][0]
        assert grp["count"] == 3
        assert "overlap_unrevealed" in grp
    assert (tmp_path / "out" / "records.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out" / "figure.svg").exists()
    svg = (tmp_path / "out" / "figure.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<polyline") == 1


def test_census_sweep_samples_nothing_for_a_rho_one_cell(tmp_path, monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return sample_instance(p)

    monkeypatch.setattr(ssbm.harness, "sample_instance", counting)
    res = run_sweep(_cfg(tmp_path, rho=(0.5, 1.0), reps=2))
    assert [p.rho for p in calls] == [0.5, 0.5]
    refusal = "all vertices are revealed; nothing to estimate"
    assert res.summary["errors"] == [{"type": "error", "cell": 1, "rep": rep, "error": refusal}
                                     for rep in range(2)]
    errors = [r for r in res.records if r.algorithm == "error"]
    assert [(r.rho, r.rep, r.seed, r.runtime_ms, r.truth_model) for r in errors] == [
        (1.0, rep, derive_key(11, "sweep", 0, rep), 0.0, "sbm") for rep in range(2)]
    assert all(getattr(r, f) is None for r in errors
               for f in ("overlap_unrevealed", "sdp_value", "csdp_value", "margin00",
                         "test_decision"))


def test_summary_lists_cells_in_grid_order(tmp_path):
    # an error's cell indexes cfg.cells(), and so the summary's cells, on any grid
    res = run_sweep(_cfg(tmp_path / "rho", rho=(1.0, 0.5), reps=2))
    assert [e["cell"] for e in res.summary["errors"]] == [0, 0]
    assert all(res.summary["cells"][e["cell"]]["cell"]["rho"] == 1.0
               for e in res.summary["errors"])
    res = run_sweep(_cfg(tmp_path / "a", a=(9.0, 5.0), rho=(0.3,), reps=1))
    assert [cell["cell"]["a"] for cell in res.summary["cells"]] == [9.0, 5.0]


def test_census_figure_draws_one_line_per_group(tmp_path):
    # two (n, a, b) groups are two data lines, each rising in rho, though
    # the grid lists rho descending
    run_sweep(_cfg(tmp_path, a=(6.0, 12.0), rho=(0.6, 0.3), reps=1))
    svg = (tmp_path / "out" / "figure.svg").read_text()
    data = [ln for ln in svg.splitlines() if ln.startswith("<polyline")]
    assert len(data) == 2 and all('stroke="#1f66b0"' in ln for ln in data)
    for ln in data:
        xs = [float(pt.split(",")[0]) for pt in ln.split('points="')[1].split('"')[0].split()]
        assert len(xs) == 2 and xs[0] < xs[1]
    # each data line is labelled with its group, at the line's last point
    labels = [ln for ln in svg.splitlines() if ln.startswith("<text") and 'fill="#1f66b0"' in ln]
    assert [ln.split(">")[1].split("<")[0] for ln in labels] == ["n=60 a=6 b=2", "n=60 a=12 b=2"]
    for ln, line in zip(labels, data):
        last = line.split('points="')[1].split('"')[0].split()[-1]
        assert f'x="{last.split(",")[0]}"' in ln


def test_boxes_figure_labels_each_box_with_its_cell(tmp_path):
    # two n by two rho: 16 boxes, each label naming its group and its whole cell
    run_sweep(_cfg(tmp_path, kind="detection-boxes", n=(40, 60), a=(9.0,), rho=(0.1, 0.25),
                   reps=2))
    svg = (tmp_path / "out" / "figure.svg").read_text()
    labels = [ln for ln in svg.splitlines() if "<tspan" in ln]
    texts = {" ".join(part.rsplit(">", 1)[1] for part in ln.split("</tspan>")[:-1])
             for ln in labels}
    assert len(labels) == len(texts) == 16
    for n, rho in itertools.product((40, 60), (0.1, 0.25)):
        assert sum(f"n={n} rho={rho:g}" in text for text in texts) == 4


def test_boxes_figure_of_a_sweep_whose_every_cell_fails(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic CSDP breakdown")

    monkeypatch.setattr(ssbm.harness, "solve_csdp", boom)
    result = run_sweep(_cfg(tmp_path, kind="detection-boxes", a=(9.0,), rho=(0.25,), reps=2))
    assert [r.algorithm for r in result.records] == ["error"] * 2
    svg = (tmp_path / "out" / "figure.svg").read_text()
    assert ">no solver values</text>" in svg and "<rect x=" not in svg


def test_a_kind_that_draws_no_figure_removes_a_stale_one(tmp_path):
    # a phase grid run into a census sweep's out_dir leaves no census figure
    # beside its own records, and a rerun finds nothing to remove
    figure = tmp_path / "out" / "figure.svg"
    run_sweep(_cfg(tmp_path))
    assert figure.exists()
    for _ in range(2):
        result = run_sweep(_cfg(tmp_path, kind="phase-grid", rho=(0.0,), reps=1))
        assert not figure.exists()
        assert read_csv(result.csv_path) == result.records


def test_csv_round_trip(tmp_path):
    result = run_sweep(_cfg(tmp_path))
    back = read_csv(tmp_path / "out" / "records.csv")
    assert back == result.records


def test_records_survive_a_failing_summary(tmp_path, monkeypatch):
    # records.csv is written before the summary, so a summary that raises
    # loses no replication
    expected = run_sweep(_cfg(tmp_path / "ok")).records

    def failing(records, t=1):
        raise OverflowError("summary failed")

    monkeypatch.setattr(ssbm.harness, "summarize", failing)
    with pytest.raises(OverflowError, match="summary failed"):
        run_sweep(_cfg(tmp_path))
    back = read_csv(tmp_path / "out" / "records.csv")
    assert not (tmp_path / "out" / "summary.json").exists()
    assert len(back) == len(expected) == 6
    assert ([dataclasses.replace(r, runtime_ms=0.0) for r in back]
            == [dataclasses.replace(r, runtime_ms=0.0) for r in expected])


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
        path, again = os.path.join(tmp, "records.csv"), os.path.join(tmp, "again.csv")
        write_csv(path, records)
        back = read_csv(path)
        write_csv(again, back)
        with open(path, "rb") as fh, open(again, "rb") as fh_again:
            first, second = fh.read(), fh_again.read()
    assert back == records
    # equality forgives -0.0 for 0.0 and 1.0 for 1; the written bytes do
    # not (the first line is the creation timestamp)
    assert first.split(b"\n", 1)[1] == second.split(b"\n", 1)[1]


def test_read_csv_names_the_malformed_line(tmp_path):
    run_sweep(_cfg(tmp_path))
    lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    path = tmp_path / "bad.csv"
    cases = (
        (lines[:1], "end of file: expected the CSV header"),  # comment line only
        (lines[:1] + lines[2:], "line 2: expected the CSV header"),  # a row where the header goes
        (lines[:3] + [lines[3].rsplit(",", 2)[0]], "line 4: 13 fields, expected 15"),  # cut off
        (lines[:2] + [lines[2] + ",7"], "line 3: 16 fields, expected 15"),  # one field too many
        # a stray quote runs to the end of its own line, not into the next
        (lines[:3] + ['"' + lines[3]] + lines[4:], "line 4: 1 fields, expected 15"),
        # a column over the csv module's field size limit
        (lines[:2] + ["7" * 200_000], "line 3: field larger than field limit"),
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
    # with nothing revealed the csdp row reuses the sdp solve, and the
    # estimator scores every csdp row, the rho = 0 ones too
    import ssbm.csdp
    import ssbm.harness

    dims, scored = [], []
    real, real_estimate = ssbm.harness.solve_elliptope, ssbm.harness.estimate_unrevealed

    def counting(M, cfg=None):
        dims.append(M.dim)
        return real(M, cfg)

    def counting_estimate(sol, rev, labels, seed=0):
        scored.append(rev.m)
        return real_estimate(sol, rev, labels, seed=seed)

    monkeypatch.setattr(ssbm.harness, "solve_elliptope", counting)
    monkeypatch.setattr(ssbm.csdp, "solve_elliptope", counting)
    monkeypatch.setattr(ssbm.harness, "estimate_unrevealed", counting_estimate)
    result = run_sweep(_cfg(tmp_path, kind="phase-grid", rho=(0.0, 0.2), reps=2))
    # each rep solves one SDP, which both rho cells share, and a CSDP at rho = 0.2
    assert sorted(dims) == [49] * 2 + [60] * 2
    assert len(scored) == 4 and scored.count(0) == 2  # 2 reps x 2 rho cells
    rows = {(r.rho, r.rep, r.algorithm): r for r in result.records}
    for rep in range(2):
        sdp_row, csdp_row = rows[0.0, rep, "sdp"], rows[0.0, rep, "csdp"]
        assert csdp_row.csdp_value == sdp_row.sdp_value  # bit-identical degenerate cell
        assert csdp_row.overlap_unrevealed == sdp_row.overlap_unrevealed
        assert csdp_row.margin00 is None


def _recomputed(row, cfg):
    """What ``row`` holds, rebuilt from its own seed, one cell at a time:
    sample_instance(ModelParams(n, a, b, rho, seed=row.seed)) (its matched
    null for an erm row) and that row's estimator."""
    p = ModelParams(n=row.n, a=row.a, b=row.b, rho=row.rho, seed=row.seed)
    g, rev = sample_instance(p.null(row.seed) if row.truth_model == "erm" else p)
    if row.algorithm.startswith("census"):
        return dict(overlap_unrevealed=census_estimate(g, rev, t=cfg.t, seed=row.seed).overlap)
    M = centered_adjacency(g, p.d)
    solver = cfg.solver.for_instance(row.seed)
    sol = solve_elliptope(M, solver)
    sdp = dict(overlap_unrevealed=overlap(round_leading_eigvec(sol), g.labels, rev),
               sdp_value=sol.value)
    if row.algorithm == "sdp":
        return sdp
    if rev.m == 0:
        value, got = sol.value, dict(overlap_unrevealed=sdp["overlap_unrevealed"], margin00=None)
    else:
        csol = solve_csdp(M, rev, solver)
        value = csol.value
        got = dict(overlap_unrevealed=estimate_unrevealed(csol, rev, g.labels,
                                                          seed=row.seed).overlap,
                   margin00=csol.margin00)
    return dict(got, csdp_value=value,
                test_decision=detection_test(value, p.n, p.a, p.b).decision)


@pytest.mark.parametrize("over", [
    dict(kind="census-sweep", rho=(0.1, 0.5, 0.9), t=1),
    dict(kind="census-sweep", rho=(0.1, 0.5, 0.9), t=2),
    dict(kind="phase-grid", n=(40,), b=(1.0, 2.0), rho=(0.0, 0.25)),
    dict(kind="detection-boxes", n=(40,), rho=(0.1, 0.25)),
    dict(kind="sandwich-audit", rho=(0.0, 0.25)),
], ids=["census-t1", "census-t2", "phase-grid", "detection-boxes", "sandwich-audit"])
def test_multi_rho_rows_equal_their_per_cell_instances(tmp_path, over):
    # the cells of one (n, a, b, rep) share the seed of the group's first
    # cell, and each row is what that seed's instance and estimator give
    cfg = _cfg(tmp_path, **{"reps": 2, **over})
    cells = cfg.cells()
    records = run_sweep(cfg).records
    per_cell = len(records) // (len(cells) * cfg.reps)
    for k, row in enumerate(records):
        ci, rep = divmod(k // per_cell, cfg.reps)
        ci0 = ci - ci % len(cfg.rho)
        key = ("sweep", ci0, rep) + (("erm",) if row.truth_model == "erm" else ())
        assert (row.n, row.a, row.b, row.rho, row.rep) == (*cells[ci], rep)
        assert row.seed == derive_key(cfg.seed, *key)
        got = _recomputed(row, cfg)
        assert {f: getattr(row, f) for f in got} == got


def test_census_sweep_draws_one_graph_per_group_and_rep(tmp_path, monkeypatch):
    import ssbm.model

    graphs = []
    real = ssbm.model.sample_graph

    def counting(p):
        graphs.append((p.a, p.rho))
        return real(p)

    monkeypatch.setattr(ssbm.model, "sample_graph", counting)
    # two (n, a, b) groups of four rho cells, three of which draw
    res = run_sweep(_cfg(tmp_path, a=(6.0, 8.0), rho=(0.2, 0.5, 0.8, 1.0), reps=3))
    assert graphs == [(6.0, 0.2)] * 3 + [(8.0, 0.2)] * 3
    assert sum(r.algorithm == "census-1" for r in res.records) == 2 * 3 * 3


@pytest.mark.parametrize("kind", ["phase-grid", "sandwich-audit"])
def test_sweep_solves_one_sdp_per_group_and_rep(tmp_path, monkeypatch, kind):
    import ssbm.csdp
    import ssbm.harness

    solves = []
    real = ssbm.harness.solve_elliptope

    def counting(M, cfg=None):
        solves.append(M.dim)
        return real(M, cfg)

    csdp_solves = []
    real_csdp = ssbm.harness.solve_csdp

    def counting_csdp(M, rev, cfg=None):
        csdp_solves.append(rev.m)
        return real_csdp(M, rev, cfg)

    for module in (ssbm.harness, ssbm.csdp):
        monkeypatch.setattr(module, "solve_elliptope", counting)
    monkeypatch.setattr(ssbm.harness, "solve_csdp", counting_csdp)
    res = run_sweep(_cfg(tmp_path, kind=kind, b=(1.0, 2.0), rho=(0.1, 0.25), reps=2))
    # the full-dimension (n = 60) solves; every other one reads a reveal
    assert solves.count(60) == 2 * 2
    # one CSDP solve per (cell, rep), the csdp row's, which the audit reuses:
    # besides it the audit solves only its unrevealed block
    assert sorted(csdp_solves) == [6] * 4 + [14] * 4
    assert len(solves) == 2 * 2 + 8 * (2 if kind == "sandwich-audit" else 1)
    # the rows of one (group, rep) carry that one solve's value
    for (a, b, rep), rows in itertools.groupby(
            sorted((r for r in res.records if r.sdp_value is not None),
                   key=lambda r: (r.a, r.b, r.rep, r.rho)), key=lambda r: (r.a, r.b, r.rep)):
        assert len({r.sdp_value for r in rows}) == 1


@pytest.mark.parametrize("over", [
    dict(kind="phase-grid", b=(1.0, 2.0), rho=(0.0, 0.25), reps=2),
    dict(kind="census-sweep", t=2, rho=(0.2, 0.5, 1.0), reps=3),
], ids=["phase-grid", "census-t2"])
def test_multi_rho_records_equal_at_any_worker_count(tmp_path, over):
    strip = lambda recs: [dataclasses.replace(r, runtime_ms=0.0) for r in recs]
    serial = run_sweep(_cfg(tmp_path / "s", workers=1, **over))
    parallel = run_sweep(_cfg(tmp_path / "p", workers=3, **over))
    assert strip(serial.records) == strip(parallel.records)
    assert serial.summary == parallel.summary


@pytest.mark.parametrize("kind, name", [("census-sweep", "census_estimate"),
                                        ("phase-grid", "solve_csdp")])
def test_a_failing_rho_cell_leaves_its_group_rows(tmp_path, monkeypatch, kind, name):
    import ssbm.harness

    over = dict(kind=kind, a=(6.0, 8.0), rho=(0.2, 0.5, 0.8), reps=2)
    expected = run_sweep(_cfg(tmp_path / "ok", **over)).records
    real = getattr(ssbm.harness, name)

    def failing_at_half(*args, **kwargs):
        if args[1].m == 30:  # rho = 0.5 at n = 60
            raise ValueError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(ssbm.harness, name, failing_at_half)
    res = run_sweep(_cfg(tmp_path / "bad", **over))
    # only the rho = 0.5 cells, indices 1 and 4, turn into one error row per rep
    assert res.summary["errors"] == [{"type": "error", "cell": ci, "rep": rep,
                                      "error": "synthetic failure"}
                                     for ci in (1, 4) for rep in range(2)]
    # the cell index is the summary's, which the benchmark reads the rho of
    assert all(res.summary["cells"][e["cell"]]["cell"]["rho"] == 0.5
               for e in res.summary["errors"])
    strip = lambda recs: [dataclasses.replace(r, runtime_ms=0.0) for r in recs]
    errors = [r for r in res.records if r.algorithm == "error"]
    assert [(r.a, r.rho, r.rep) for r in errors] == [(a, 0.5, rep) for a in (6.0, 8.0)
                                                    for rep in range(2)]
    assert strip(r for r in res.records if r.rho != 0.5) == strip(
        r for r in expected if r.rho != 0.5)


def test_sandwich_audit_sweep(tmp_path):
    result = run_sweep(_cfg(tmp_path, kind="sandwich-audit", rho=(0.3,), reps=2))
    # the rows are the solver pair's, and the audit lives in the summary alone
    rows = result.records
    assert [r.algorithm for r in rows] == ["sdp", "csdp"] * 2
    audits = result.summary["sandwich"]
    assert [(e["cell"], e["rep"]) for e in audits] == [(0, 0), (0, 1)]
    assert all(e["holds"] for e in audits)
    assert {"lower", "mid", "upper", "margin00", "holds"} <= set(audits[0])
    # its upper and middle programs are the solves behind the rep's two rows
    for rep, e in enumerate(audits):
        sdp_row, csdp_row = rows[2 * rep:2 * rep + 2]
        assert (e["upper"], e["mid"], e["margin00"]) == (
            sdp_row.sdp_value, csdp_row.csdp_value, csdp_row.margin00)


def test_sandwich_audit_writes_the_phase_grid_rows(tmp_path):
    # on a grid with b <= a the two kinds write the same records and cells;
    # the audit adds only its summary section
    over = dict(b=(1.0, 2.0), rho=(0.0, 0.25, 1.0), reps=2)
    audit = run_sweep(_cfg(tmp_path / "audit", kind="sandwich-audit", **over))
    grid = run_sweep(_cfg(tmp_path / "grid", kind="phase-grid", **over))
    strip = lambda recs: [dataclasses.replace(r, runtime_ms=0.0) for r in recs]
    assert len(audit.records) == 2 * 3 * 2 * 2
    assert strip(audit.records) == strip(grid.records)
    assert audit.summary.pop("sandwich") and audit.summary == grid.summary


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


_SUMMARY_VALUES = (st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])
                   | st.floats())


@given(st.lists(_SUMMARY_VALUES, min_size=1, max_size=12))
def test_five_number_summary_equals_numpy_percentile(values):
    # repr tells NaN from a number and -0.0 from 0.0, which == does not
    with np.errstate(all="ignore"):
        stats = _stats(values)
        expected = np.percentile(values, [0, 25, 50, 75, 100])
    got = [stats[k] for k in ("min", "q1", "median", "q3", "max")]
    assert list(map(repr, got)) == [repr(float(q)) for q in expected]


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
