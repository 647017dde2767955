"""Experiment harness: seeded Monte Carlo sweeps, statistics, figure data.

A sweep walks the cartesian grid of model parameters, runs ``reps``
replications per cell (optionally across worker processes), and emits one CSV
row per (cell, rep, algorithm) plus a JSON summary with per-cell statistics
and reference curves.  Rows carry the cell's nominal (a, b) even for the
matched-degree null model; the truth_model column says which generative law
produced the graph.
"""

from __future__ import annotations

import dataclasses
import datetime
import itertools
import json
import math
import numbers
import os
import time
import typing
from dataclasses import dataclass

import numpy as np

from .census import census_estimate, overlap, overlap_lower_curve, predict_accuracy_erf
from .csdp import detection_test, estimate_unrevealed, sandwich_check, solve_csdp
from .model import ModelParams, centered_adjacency, sample_instance, snr
from .rng import derive_key
from .sdp import SolverConfig, require_ints, round_leading_eigvec, solve_elliptope

SWEEP_KINDS = ("census-sweep", "phase-grid", "detection-boxes", "sandwich-audit")


@dataclass(frozen=True, kw_only=True)
class ResultRecord:
    """One measurement row, and the records.csv schema: the columns are the
    fields in this order.  The optional value columns default to None, for
    the rows they do not apply to."""

    seed: int
    rep: int
    n: int
    a: float
    b: float
    rho: float
    snr: float
    algorithm: str
    overlap_unrevealed: float | None = None
    sdp_value: float | None = None
    csdp_value: float | None = None
    margin00: float | None = None
    test_decision: int | None = None
    truth_model: str
    runtime_ms: float

    def __post_init__(self):
        if self.overlap_unrevealed is not None and not (-1e-12 <= self.overlap_unrevealed <= 1 + 1e-12):
            raise ValueError("overlap must lie in [0, 1]")
        if abs(self.snr - snr(self.a, self.b)) > 1e-12:
            raise ValueError("snr column disagrees with (a, b)")

    def csv_row(self) -> str:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)
        return ",".join(fmt(getattr(self, f)) for f in RESULT_FIELDS)


RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(ResultRecord))


def _parser(hint):
    """The parser of a column annotated ``hint``; where the annotation
    allows None (``float | None``), an empty column reads as None."""
    kinds = typing.get_args(hint)
    if not kinds:
        return hint
    return lambda text: None if text == "" else kinds[0](text)


_HINTS = typing.get_type_hints(ResultRecord)
_PARSERS = tuple(_parser(_HINTS[name]) for name in RESULT_FIELDS)
# the columns summarize() rolls up into statistics, in field order
_VALUE_FIELDS = tuple(name for name in RESULT_FIELDS if _HINTS[name] == float | None)


def write_csv(path, records: list[ResultRecord]) -> None:
    """Rows in the declared field order; the leading comment line carries the
    creation timestamp and is outside the determinism contract."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w") as fh:
        fh.write(f"# created {stamp}\n")
        fh.write(",".join(RESULT_FIELDS) + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def read_csv(path) -> list[ResultRecord]:
    """Records from a file written by :func:`write_csv`, each column parsed
    by the type of its field.  A file without the header, or a row that is
    cut short, overlong or unparsable, raises ValueError naming its line."""
    with open(path) as fh:
        lines = [(no, ln) for no, ln in enumerate(fh.read().splitlines(), 1)
                 if ln and not ln.startswith("#")]
    if not lines or tuple(lines[0][1].split(",")) != RESULT_FIELDS:
        where = f"line {lines[0][0]}" if lines else "end of file"
        raise ValueError(f"{path}, {where}: expected the CSV header")
    records = []
    for no, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != len(RESULT_FIELDS):
                raise ValueError(f"{len(parts)} fields, expected {len(RESULT_FIELDS)}")
            records.append(ResultRecord(**{
                name: parse(text) for name, parse, text in zip(RESULT_FIELDS, _PARSERS, parts)}))
        except ValueError as err:
            raise ValueError(f"{path}, line {no}: {err}") from err
    return records


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep: kind, parameter grid (cartesian product of the lists),
    replications per cell, solver settings, output directory, master seed.
    A sweep ignores ``solver.seed``: each solve's seed derives from the
    master seed, cell and replication (the matched-null graph's too)."""

    kind: str
    n: tuple[int, ...]
    a: tuple[float, ...]
    b: tuple[float, ...]
    rho: tuple[float, ...]
    reps: int
    solver: SolverConfig
    out_dir: str
    seed: int
    t: int = 1
    workers: int = 1

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        require_ints(self, ("reps", "seed", "t", "workers"))
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.t < 1 or self.workers < 1:
            raise ValueError("t and workers must be >= 1")
        # checked, not coerced: int() would sweep n = 200 for n = 200.5
        for name in ("n", "a", "b", "rho"):
            kind = numbers.Integral if name == "n" else numbers.Real
            bad = [v for v in getattr(self, name) if isinstance(v, bool) or not isinstance(v, kind)]
            if bad:
                raise ValueError(f"{name} values must be {kind.__name__.lower()} numbers, got {bad[0]!r}")
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        object.__setattr__(self, "rho", tuple(float(v) for v in self.rho))
        if not (self.n and self.a and self.b and self.rho):
            raise ValueError("parameter grid must be non-empty")

    def cells(self) -> list[tuple[int, float, float, float]]:
        """Grid cells (n, a, b, rho).  The phase-grid kind skips its b > a
        combinations; every other invalid cell raises ValueError."""
        out = []
        for n, a, b, rho in itertools.product(self.n, self.a, self.b, self.rho):
            if self.kind == "phase-grid" and b > a:
                continue
            ModelParams(n=n, a=a, b=b, rho=rho)
            snr(a, b)
            out.append((n, a, b, rho))
        if not out:
            raise ValueError("parameter grid contains no valid cell")
        return out

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("a config must be a JSON object")
        missing = sorted({"kind", "out_dir"} - set(raw))
        if missing:
            raise ValueError(f"config lacks required keys: {', '.join(missing)}")
        params = raw.get("params", {})
        solver = raw.get("solver", {})
        if not (isinstance(params, dict) and isinstance(solver, dict)):
            raise ValueError("'params' and 'solver' must be JSON objects")
        grid = {key: params.get(key, []) for key in ("n", "a", "b", "rho")}
        bad = sorted(key for key, values in grid.items() if not isinstance(values, list))
        if bad:
            raise ValueError(f"params must be lists: {', '.join(bad)}")
        # a misspelt key would otherwise fall back to its default unseen
        top = {f.name for f in dataclasses.fields(cls)} - set(grid) | {"params"}
        solver_keys = {f.name for f in dataclasses.fields(SolverConfig)}
        for what, given, known in (("config keys", raw, top), ("params", params, grid),
                                   ("solver settings", solver, solver_keys)):
            unknown = sorted(given.keys() - known)
            if unknown:
                raise ValueError(f"unknown {what}: {', '.join(unknown)}")
        return cls(
            kind=raw["kind"],
            **{key: tuple(values) for key, values in grid.items()},
            reps=raw.get("reps", 1),
            solver=SolverConfig(**solver),
            out_dir=raw["out_dir"],
            seed=raw.get("seed", 0),
            t=raw.get("t", 1),
            workers=raw.get("workers", 1),
        )


def _cell_task(cfg: ExperimentConfig, ci: int, cell, rep: int):
    """All records (and summary extras) for one (cell, rep) replication.

    A failing replication (e.g. the census has nothing to estimate at
    rho = 1) is recorded as a single 'error' row and the sweep continues.
    """
    n, a, b, rho = cell
    iseed = derive_key(cfg.seed, "sweep", ci, rep)
    base = dict(rep=rep, n=n, a=a, b=b, rho=rho, snr=snr(a, b))
    try:
        return _cell_task_inner(cfg, ci, cell, rep, iseed, base)
    except Exception as exc:
        row = ResultRecord(seed=iseed, algorithm="error", truth_model="sbm",
                           runtime_ms=0.0, **base)
        return [row], {"type": "error", "cell": ci, "rep": rep, "error": str(exc)}


def _cell_task_inner(cfg: ExperimentConfig, ci: int, cell, rep: int, iseed: int, base: dict):
    p = ModelParams(*cell, seed=iseed)
    solver = dataclasses.replace(cfg.solver, seed=derive_key(iseed, "solver"))
    records, extras = [], None
    g, rev = sample_instance(p)

    if cfg.kind == "census-sweep":
        t0 = time.perf_counter()
        report = census_estimate(g, rev, t=cfg.t, seed=iseed)
        records.append(ResultRecord(
            seed=iseed, algorithm=f"census-{cfg.t}", overlap_unrevealed=report.overlap,
            truth_model="sbm", runtime_ms=(time.perf_counter() - t0) * 1e3, **base))

    elif cfg.kind == "phase-grid":
        records.extend(_solve_pair(g, rev, p, iseed, base, solver, "sbm"))

    elif cfg.kind == "detection-boxes":
        records.extend(_solve_pair(g, rev, p, iseed, base, solver, "sbm"))
        nseed = derive_key(cfg.seed, "sweep", ci, rep, "erm")
        g0, rev0 = sample_instance(dataclasses.replace(p, a=p.d, b=p.d, seed=nseed))
        nsolver = dataclasses.replace(cfg.solver, seed=derive_key(nseed, "solver"))
        records.extend(_solve_pair(g0, rev0, p, nseed, base, nsolver, "erm"))

    elif cfg.kind == "sandwich-audit":
        t0 = time.perf_counter()
        report = sandwich_check(g, rev, p.d, solver)
        records.append(ResultRecord(
            seed=iseed, algorithm="csdp", sdp_value=report.upper, csdp_value=report.mid,
            margin00=report.margin00, test_decision=int(report.holds), truth_model="sbm",
            runtime_ms=(time.perf_counter() - t0) * 1e3, **base))
        extras = {"type": "sandwich", "cell": ci, "rep": rep, **dataclasses.asdict(report)}

    else:
        raise ValueError(f"kind {cfg.kind!r} has no per-cell task")
    return records, extras


def _solve_pair(g, rev, p, iseed, base, solver, truth_model):
    """Unsupervised SDP and constrained CSDP rows for one instance of a cell
    whose parameters are ``p``."""
    M = centered_adjacency(g, p.d)
    out = []

    t0 = time.perf_counter()
    sdp_sol = solve_elliptope(M, solver)
    est = round_leading_eigvec(sdp_sol)
    out.append(ResultRecord(
        seed=iseed, algorithm="sdp", overlap_unrevealed=overlap(est, g.labels, rev),
        sdp_value=sdp_sol.value, truth_model=truth_model,
        runtime_ms=(time.perf_counter() - t0) * 1e3, **base))

    t0 = time.perf_counter()
    if rev.m == 0:
        # nothing revealed: solve_csdp would repeat this SDP solve bit for bit
        # and round it the same way, so the csdp row reuses both
        value, overlap_csdp, margin00 = sdp_sol.value, out[0].overlap_unrevealed, None
    else:
        csol = solve_csdp(M, rev, solver)
        value, margin00 = csol.value, csol.margin00
        overlap_csdp = estimate_unrevealed(csol, rev, g.labels, seed=iseed).overlap
    decision = detection_test(value, p.n, p.a, p.b).decision if p.a > p.b else None
    out.append(ResultRecord(
        seed=iseed, algorithm="csdp", overlap_unrevealed=overlap_csdp,
        csdp_value=value, margin00=margin00, test_decision=decision,
        truth_model=truth_model, runtime_ms=(time.perf_counter() - t0) * 1e3, **base))
    return out


@dataclass(frozen=True)
class SweepResult:
    records: list
    summary: dict
    csv_path: str
    summary_path: str


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Execute a sweep and write records.csv + summary.json (+ figure SVG).

    Deterministic: every (cell, rep) task derives its seeds from
    (cfg.seed, cell index, rep index), so any worker count yields the same
    records, serialized in (cell, rep) order.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "records.csv")
    summary_path = os.path.join(cfg.out_dir, "summary.json")

    cells = cfg.cells()
    tasks = [(ci, cell, rep) for ci, cell in enumerate(cells) for rep in range(cfg.reps)]
    if cfg.workers > 1:
        # imported here: a run at workers = 1, and every worker process,
        # needs no process pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=cfg.workers, mp_context=spawn) as pool:
            results = list(pool.map(_cell_task, itertools.repeat(cfg), *zip(*tasks),
                                    chunksize=1))
    else:
        results = [_cell_task(cfg, ci, cell, rep) for ci, cell, rep in tasks]

    records, extras = [], []
    for recs, extra in results:
        records.extend(recs)
        if extra is not None:
            extras.append(extra)

    summary = summarize(records, t=cfg.t)
    sandwich_extras = [e for e in extras if e.get("type") == "sandwich"]
    error_extras = [e for e in extras if e.get("type") == "error"]
    if sandwich_extras:
        summary["sandwich"] = sandwich_extras
    if error_extras:
        summary["errors"] = error_extras
    write_csv(csv_path, records)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    svg = _figure_svg(cfg, summary)
    if svg is not None:
        with open(os.path.join(cfg.out_dir, "figure.svg"), "w") as fh:
            fh.write(svg)
    return SweepResult(records, summary, csv_path, summary_path)


def _stats(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    qs = np.percentile(arr, [0, 25, 50, 75, 100])
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "stderr": float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0,
        "min": float(qs[0]), "q1": float(qs[1]), "median": float(qs[2]),
        "q3": float(qs[3]), "max": float(qs[4]),
    }


def best_threshold_accuracy(positive: list[float], negative: list[float]) -> float:
    """Best achievable accuracy of the rule 'declare positive iff value >= t'."""
    if not positive or not negative:
        raise ValueError("both samples must be non-empty")
    pos, neg = np.sort(positive), np.sort(negative)
    # every rule is 'value >= c' for a sample value c, or declares nothing
    cuts = np.concatenate([pos, neg])
    hits = pos.size - np.searchsorted(pos, cuts) + np.searchsorted(neg, cuts)
    return max(int(hits.max()), neg.size) / (pos.size + neg.size)


def summarize(records: list[ResultRecord], t: int = 1) -> dict:
    """Per-cell statistics over every value column each group carries: the
    ``float | None`` fields of :class:`ResultRecord`, in field order.

    Each cell with a + b > 0 carries the depth-t erf accuracy as a reference,
    and at t = 1 also the overlap lower curve, a bound for t = 1 only.
    Detection cells (both truth models present) additionally report the
    separation score min(SBM) - max(ERM) and the best-threshold accuracy for
    each solver statistic, plus the test threshold, rho0 and ``test_proven``
    (rho > rho0, the range in which the test's decisions are proven).
    """
    if not records:
        raise ValueError("cannot summarize an empty record set")
    cells: dict[tuple, dict] = {}
    for rec in records:
        cells.setdefault((rec.n, rec.a, rec.b, rec.rho), {}). \
            setdefault((rec.algorithm, rec.truth_model), []).append(rec)

    out_cells = []
    for (n, a, b, rho), groups in sorted(cells.items()):
        entry = {
            "cell": {"n": n, "a": a, "b": b, "rho": rho},
            "snr": snr(a, b),
            "groups": [],
        }
        if a + b > 0:
            reference = {"overlap_lower_curve": overlap_lower_curve(a, b, rho)} if t == 1 else {}
            reference["erf_accuracy"] = predict_accuracy_erf(a, b, rho, t)
            entry["reference"] = reference
        for (algorithm, truth_model), recs in sorted(groups.items()):
            gstat = {"algorithm": algorithm, "truth_model": truth_model, "count": len(recs)}
            for field in _VALUE_FIELDS:
                values = [getattr(r, field) for r in recs if getattr(r, field) is not None]
                if values:
                    gstat[field] = _stats(values)
            decisions = [r.test_decision for r in recs if r.test_decision is not None]
            if decisions:
                gstat["decision_rate"] = sum(decisions) / len(decisions)
            entry["groups"].append(gstat)

        detection = {}
        for algorithm, field in (("sdp", "sdp_value"), ("csdp", "csdp_value")):
            sbm = [getattr(r, field) for r in groups.get((algorithm, "sbm"), [])
                   if getattr(r, field) is not None]
            erm = [getattr(r, field) for r in groups.get((algorithm, "erm"), [])
                   if getattr(r, field) is not None]
            if sbm and erm:
                detection[algorithm] = {
                    "separation": min(sbm) - max(erm),
                    "best_threshold_accuracy": best_threshold_accuracy(sbm, erm),
                }
        if detection:
            if a > b:
                probe = detection_test(0.0, n, a, b)
                detection["threshold"] = probe.threshold
                detection["rho0"] = probe.rho0
                detection["test_proven"] = rho > probe.rho0
            entry["detection"] = detection
        out_cells.append(entry)
    return {"cells": out_cells}


# ---------------------------------------------------------------- figures --

def _svg_header(w, h, title):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n<rect width="{w}" height="{h}" fill="white"/>\n'
            f'<text x="{w/2}" y="18" text-anchor="middle" font-size="14">{title}</text>\n')


def _figure_svg(cfg: ExperimentConfig, summary) -> str | None:
    if cfg.kind == "census-sweep":
        return _census_svg(summary, cfg.t)
    if cfg.kind == "detection-boxes":
        return _boxes_svg(summary)
    return None


def _census_svg(summary, t) -> str:
    pts, ref = [], []
    for cell in summary["cells"]:
        rho = cell["cell"]["rho"]
        for grp in cell["groups"]:
            if grp["algorithm"].startswith("census") and "overlap_unrevealed" in grp:
                pts.append((rho, grp["overlap_unrevealed"]["mean"]))
        if "overlap_lower_curve" in cell.get("reference", {}):
            ref.append((rho, cell["reference"]["overlap_lower_curve"]))
    pts.sort()
    ref.sort()
    w, h, pad = 480, 320, 46

    def xmap(rho):
        return pad + rho * (w - 2 * pad)

    def ymap(v):
        return h - pad - v * (h - 2 * pad)

    def path(seq, color, dash=""):
        d = " ".join(f"{xmap(x):.1f},{ymap(y):.1f}" for x, y in seq)
        return f'<polyline points="{d}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>\n'

    svg = _svg_header(w, h, f"census t={t}: mean unrevealed overlap vs reveal ratio")
    svg += f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>\n'
    svg += f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>\n'
    if pts:
        svg += path(pts, "#1f66b0")
        svg += "".join(f'<circle cx="{xmap(x):.1f}" cy="{ymap(y):.1f}" r="2.5" fill="#1f66b0"/>\n'
                       for x, y in pts)
    if ref:
        svg += path(ref, "#8043a3", dash=' stroke-dasharray="6 4"')
    return svg + "</svg>\n"


def _boxes_svg(summary) -> str:
    boxes = []
    for cell in summary["cells"]:
        tag = f'a={cell["cell"]["a"]:g},b={cell["cell"]["b"]:g}'
        for grp in cell["groups"]:
            field = "sdp_value" if grp["algorithm"] == "sdp" else "csdp_value"
            if field in grp:
                boxes.append((f'{tag} {grp["algorithm"]}/{grp["truth_model"]}', grp[field]))
    if not boxes:
        return _svg_header(320, 80, "no solver values") + "</svg>\n"
    w, h, pad = 120 + 90 * len(boxes), 360, 52
    lo = min(b["min"] for _, b in boxes)
    hi = max(b["max"] for _, b in boxes)
    span = (hi - lo) or 1.0

    def ymap(v):
        return h - pad - (v - lo) / span * (h - 2 * pad)

    svg = _svg_header(w, h, "solver value distributions")
    for idx, (label, st) in enumerate(boxes):
        cx = pad + 50 + 90 * idx
        bw = 30
        svg += (f'<line x1="{cx}" y1="{ymap(st["min"]):.1f}" x2="{cx}" '
                f'y2="{ymap(st["max"]):.1f}" stroke="black"/>\n')
        top, bot = ymap(st["q3"]), ymap(st["q1"])
        svg += (f'<rect x="{cx-bw/2}" y="{top:.1f}" width="{bw}" height="{bot-top:.1f}" '
                f'fill="#9ec5e8" stroke="black"/>\n')
        svg += (f'<line x1="{cx-bw/2}" y1="{ymap(st["median"]):.1f}" x2="{cx+bw/2}" '
                f'y2="{ymap(st["median"]):.1f}" stroke="black" stroke-width="2"/>\n')
        svg += (f'<text x="{cx}" y="{h-20}" text-anchor="middle" font-size="9" '
                f'transform="rotate(25 {cx} {h-20})">{label}</text>\n')
    return svg + "</svg>\n"
