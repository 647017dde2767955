"""Experiment harness: seeded Monte Carlo sweeps, statistics, figure data.

A sweep walks the cartesian grid of model parameters, runs ``reps``
replications per cell (optionally across worker processes), the rho cells of
one (n, a, b, rep) on one shared graph, and emits one CSV row per (cell, rep,
algorithm) plus a JSON summary with per-cell statistics
and the erf reference.  Rows carry the cell's nominal (a, b) even for the
matched-degree null model; the truth_model column says which generative law
produced the graph.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import itertools
import json
import math
import operator
import os
import time
import typing
from dataclasses import dataclass

import numpy as np

from .census import _ALL_REVEALED, _check_depth, census_estimate, overlap, predict_accuracy_erf
from .csdp import (CsdpSolution, detection_test, estimate_unrevealed, sandwich_check,
                   solve_csdp)
from .model import (ModelParams, _check_seed, _require_int, _require_real, centered_adjacency,
                    require_ints, sample_instance, sample_reveal, snr)
from .rng import derive_key
from .sdp import SolverConfig, round_leading_eigvec, solve_elliptope

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
    """Rows in the declared field order, in the stdlib's CSV dialect: None is
    an empty column and a float its repr.  The leading comment line carries
    the creation timestamp and is outside the determinism contract."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w") as fh:
        fh.write(f"# created {stamp}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_FIELDS)
        writer.writerows(map(operator.attrgetter(*RESULT_FIELDS), records))


def read_csv(path) -> list[ResultRecord]:
    """Records from a file written by :func:`write_csv`, each column parsed
    by the type of its field.  Each line is read by the stdlib's CSV reader on
    its own, so a stray quote cannot join it to the lines after it.  A file
    without the header, or a row that is cut short, overlong or unparsable,
    raises ValueError naming its line."""
    with open(path) as fh:
        lines = [(no, ln) for no, ln in enumerate(fh.read().splitlines(), 1)
                 if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}, end of file: expected the CSV header")
    records = []
    for no, ln in lines:
        try:
            parts = next(csv.reader([ln]))
            if no == lines[0][0] and tuple(parts) != RESULT_FIELDS:
                raise ValueError("expected the CSV header")
            if len(parts) != len(RESULT_FIELDS):
                raise ValueError(f"{len(parts)} fields, expected {len(RESULT_FIELDS)}")
            if no > lines[0][0]:
                records.append(ResultRecord(**{name: parse(text) for name, parse, text
                                               in zip(RESULT_FIELDS, _PARSERS, parts)}))
        except (ValueError, csv.Error) as err:
            raise ValueError(f"{path}, line {no}: {err}") from err
    return records


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """A sweep: kind, parameter grid (cartesian product of the lists, each
    of distinct values, rho innermost), replications per cell, solver
    settings, output directory, master seed; the fields hold the defaults.
    A sweep ignores ``solver.seed``: each instance's seed derives from the
    master seed, the replication and the first cell of its group, the cells
    of one (n, a, b) (the matched null's too), and its solves' by
    :meth:`SolverConfig.for_instance`."""

    kind: str
    n: tuple[int, ...]
    a: tuple[float, ...]
    b: tuple[float, ...]
    rho: tuple[float, ...]
    reps: int = 1
    solver: SolverConfig
    out_dir: str
    seed: int = 0
    t: int = 1
    workers: int = 1

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        require_ints(self, ("reps", "workers"), 1)
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
        if not isinstance(self.solver, SolverConfig):
            raise ValueError(f"solver must be a SolverConfig, got {self.solver!r}")
        _check_seed(self.seed)
        _check_depth(self.t)
        # checked, not coerced: int() would sweep n = 200 for n = 200.5
        for name in ("n", "a", "b", "rho"):
            check, cast = (_require_int, int) if name == "n" else (_require_real, float)
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} values must be a list or tuple, got {values!r}")
            for v in values:
                check(v, f"{name} values")
            values = tuple(map(cast, values))
            # a repeated value reruns its cells' draws, which summarize counts twice
            if len(set(values)) < len(values):
                raise ValueError(f"{name} values must be distinct")
            object.__setattr__(self, name, values)
        if not (self.n and self.a and self.b and self.rho):
            raise ValueError("parameter grid must be non-empty")

    def cells(self) -> list[tuple[int, float, float, float]]:
        """Grid cells (n, a, b, rho), rho innermost, so the cells of one
        (n, a, b) are consecutive: run_sweep's groups.  The phase-grid kind
        skips its b > a combinations, whole groups; every other invalid
        cell raises ValueError."""
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
        # a misspelt key would otherwise fall back to its default unseen
        top = {f.name for f in dataclasses.fields(cls)} - set(grid) | {"params"}
        solver_keys = {f.name for f in dataclasses.fields(SolverConfig)}
        for what, given, known in (("config keys", raw, top), ("params", params, grid),
                                   ("solver settings", solver, solver_keys)):
            unknown = sorted(given.keys() - known)
            if unknown:
                raise ValueError(f"unknown {what}: {', '.join(unknown)}")
        given = {key: value for key, value in raw.items() if key not in ("params", "solver")}
        return cls(**given, **grid, solver=SolverConfig(**solver))


class _Draw:
    """One instance seed of a (group, rep), shared by the group's cells: its
    graph is drawn at the first cell that draws, through
    :func:`sample_instance`, and every later cell draws only its reveal;
    its centred operator is built once, and its SDP solved and rounded
    once, for every solver kind, and the sdp and csdp rows of every cell
    read that one solve.  The null's draw samples ``ModelParams.null``."""

    def __init__(self, seed: int, null: bool = False):
        self.seed, self.null = seed, null
        self.graph = None
        self._M = None
        self._sdp = None

    def instance(self, p: ModelParams):
        """``sample_instance`` of the cell ``p``, whose seed is this draw's
        (of its matched null, for the null's draw)."""
        if self.null:
            p = p.null(self.seed)
        if self.graph is None:
            self.graph, rev = sample_instance(p)
            return self.graph, rev
        return self.graph, sample_reveal(p, self.graph.labels)

    def operator(self, d: float):
        """The drawn graph's centred adjacency at average degree ``d``, built at the first call."""
        if self._M is None:
            self._M = centered_adjacency(self.graph, d)
        return self._M

    def sdp(self, solver: SolverConfig, d: float):
        """(solution, rounding, ms) of the SDP of the drawn graph at average
        degree ``d``, solved at the first call; M is the solution's ``operator``."""
        if self._sdp is None:
            t0 = time.perf_counter()
            sol = solve_elliptope(self.operator(d), solver.for_instance(self.seed))
            self._sdp = sol, round_leading_eigvec(sol), (time.perf_counter() - t0) * 1e3
        return self._sdp


def _group_task(cfg: ExperimentConfig, ci0: int, cells, rep: int) -> list:
    """One replication of a group: ``cells``, the consecutive cells ci0,
    ci0 + 1, ... of one (n, a, b), which differ only in rho.  Returns the
    (records, summary extra) of each cell, in cell order.

    Every cell of the group reads the instance seed
    derive_key(cfg.seed, "sweep", ci0, rep) (with "erm" appended for the
    matched null), so the cells share one graph and, in every solver kind,
    one SDP solve, and a contrast across rho is paired on it (common random
    numbers).  A failing cell (e.g. the census has nothing to estimate at
    rho = 1) is one 'error' row, and the group's other cells go on.
    """
    seed = derive_key(cfg.seed, "sweep", ci0, rep)
    draws = [_Draw(seed)]
    if cfg.kind == "detection-boxes":
        draws.append(_Draw(derive_key(cfg.seed, "sweep", ci0, rep, "erm"), null=True))
    n, a, b, _ = cells[0]
    group = dict(seed=seed, rep=rep, n=n, a=a, b=b, snr=snr(a, b), truth_model="sbm")
    out = []
    for ci, cell in enumerate(cells, ci0):
        base = {**group, "rho": cell[3]}
        try:
            out.append(_cell_rows(cfg, ci, rep, ModelParams(*cell, seed=seed), base, draws))
        except Exception as exc:
            row = ResultRecord(algorithm="error", runtime_ms=0.0, **base)
            out.append(([row], {"type": "error", "cell": ci, "rep": rep, "error": str(exc)}))
    return out


def _row(base: dict, t0: float, **values) -> ResultRecord:
    """The record of ``base``'s replication holding ``values``, timed from ``t0``."""
    return ResultRecord(**base, **values, runtime_ms=(time.perf_counter() - t0) * 1e3)


def _cell_rows(cfg: ExperimentConfig, ci: int, rep: int, p: ModelParams, base: dict,
               draws: list[_Draw]):
    """The census row of the planted draw, ``draws[0]``, or for a solver kind
    each draw's sdp row (timed by the draw's shared solve) and csdp row, a
    null's under its own seed as truth model "erm"; ``sandwich-audit`` audits
    its one draw's pair of solutions."""
    if cfg.kind == "census-sweep":
        # the refusal census_estimate would raise, before any draw is made
        if p.m == p.n:
            raise ValueError(_ALL_REVEALED)
        g, rev = draws[0].instance(p)
        t0 = time.perf_counter()
        report = census_estimate(g, rev, t=cfg.t, seed=p.seed)
        row = _row(base, t0, algorithm=f"census-{cfg.t}", overlap_unrevealed=report.overlap)
        return [row], None

    records = []
    for draw in draws:
        row = {**base, "seed": draw.seed, "truth_model": "erm"} if draw.null else base
        _, rev = draw.instance(p)
        values, sol = _sdp_values(draw, rev, cfg.solver, p)
        records.append(ResultRecord(**row, algorithm="sdp", **values,
                                    runtime_ms=draw.sdp(cfg.solver, p.d)[2]))
        t0 = time.perf_counter()
        values, csol = _csdp_values(draw, rev, cfg.solver, p)
        records.append(_row(row, t0, algorithm="csdp", **values))
    if cfg.kind != "sandwich-audit":
        return records, None
    report = sandwich_check(sol, csol, rev, p.d, cfg.solver.for_instance(p.seed))
    return records, {"type": "sandwich", "cell": ci, "rep": rep, **dataclasses.asdict(report)}


def _sdp_values(draw: _Draw, rev, solver: SolverConfig, p: ModelParams):
    """The value columns of the sdp row of ``draw``'s graph under the reveal
    ``rev`` of the cell ``p``, and the SdpSolution behind them."""
    sol, est, _ = draw.sdp(solver, p.d)
    return dict(overlap_unrevealed=overlap(est, draw.graph.labels, rev), sdp_value=sol.value), sol


def _csdp_values(draw: _Draw, rev, solver: SolverConfig, p: ModelParams):
    """The value columns of the csdp row of ``draw``'s graph under the reveal
    ``rev`` of the cell ``p``, and the CsdpSolution behind them, which
    :func:`estimate_unrevealed` scores.  With nothing revealed it is the
    draw's own SDP solve, for solve_csdp would repeat it bit for bit, and the
    margin is empty.  The test decision is empty unless a > b."""
    if rev.m:
        csol = solve_csdp(draw.operator(p.d), rev, solver.for_instance(draw.seed))
    else:
        csol = CsdpSolution(inner=draw.sdp(solver, p.d)[0], aggregated=None)
    report = estimate_unrevealed(csol, rev, draw.graph.labels, seed=draw.seed)
    decision = detection_test(csol.value, p.n, p.a, p.b).decision if p.a > p.b else None
    return dict(overlap_unrevealed=report.overlap, csdp_value=csol.value,
                margin00=csol.margin00 if rev.m else None, test_decision=decision), csol


@dataclass(frozen=True)
class SweepResult:
    records: list
    summary: dict
    csv_path: str
    summary_path: str


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Execute a sweep and write records.csv + summary.json (+ figure.svg, or,
    for a kind that draws no figure, remove a figure.svg left in out_dir).

    The unit of work is one (group, rep): a group is the consecutive cells
    of one (n, a, b), which differ only in rho, the grid's innermost axis
    (phase-grid skips whole groups).  Deterministic: every task derives its
    seeds from (cfg.seed, the group's first cell index, rep), so any worker
    count yields the same records, serialized in (cell, rep) order.
    records.csv is written before anything is summarised, so a summary
    that fails loses no replication.
    """
    cells, size = cfg.cells(), len(cfg.rho)  # a grid it refuses creates no out_dir
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "records.csv")
    summary_path = os.path.join(cfg.out_dir, "summary.json")

    starts = range(0, len(cells), size)
    tasks = [(ci0, cells[ci0:ci0 + size], rep) for ci0 in starts for rep in range(cfg.reps)]
    if cfg.workers > 1:
        # imported here: a run at workers = 1, and every worker process,
        # needs no process pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=cfg.workers, mp_context=spawn) as pool:
            results = list(pool.map(_group_task, itertools.repeat(cfg), *zip(*tasks),
                                    chunksize=1))
    else:
        results = [_group_task(cfg, ci0, group, rep) for ci0, group, rep in tasks]
    # back into (cell, rep) order: task (group, rep) holds each cell of its group
    results = [results[g * cfg.reps + rep][j] for g, j, rep
               in itertools.product(range(len(starts)), range(size), range(cfg.reps))]

    records, sections = [], {"sandwich": [], "errors": []}
    for recs, extra in results:
        records.extend(recs)
        if extra is not None:
            sections["errors" if extra["type"] == "error" else "sandwich"].append(extra)
    write_csv(csv_path, records)
    summary = summarize(records, t=cfg.t)
    summary.update((key, found) for key, found in sections.items() if found)
    # one write: json.dump would make about a thousand small ones
    with open(summary_path, "w") as fh:
        fh.write(json.dumps(summary, indent=2))
    svg = _figure_svg(cfg, summary)
    figure_path = os.path.join(cfg.out_dir, "figure.svg")
    if svg is not None:
        with open(figure_path, "w") as fh:
            fh.write(svg)
    elif os.path.exists(figure_path):  # another kind's figure, not this sweep's
        os.remove(figure_path)
    return SweepResult(records, summary, csv_path, summary_path)


def _stats(values: list[float]) -> dict:
    """Count, mean, standard error and five-number summary of ``values``.

    The five numbers are numpy's ``linear`` quantiles, bit for bit, without
    the import of ``numpy.ma`` that numpy's quantile functions make: the
    rule (position q·(n−1), its lower and upper neighbours, numpy's
    two-sided lerp, five NaN for any NaN) runs on one partial sort at
    numpy's own points, which places ±0.0 as numpy does.
    """
    arr = np.asarray(values, dtype=np.float64)
    top = arr.size - 1
    pos = [top * q for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    lo = [math.floor(p) if p < top else -1 for p in pos]
    hi = [i + 1 if i >= 0 else -1 for i in lo]
    # sorted(set()), not np.unique, which imports numpy.ma too
    ranked = np.partition(arr, sorted({0, -1, *lo, *hi})).tolist()
    quartiles = []
    for p, i, j in zip(pos, lo, hi):
        a, b, t = ranked[i], ranked[j], p - i
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    if math.isnan(ranked[-1]):  # NaN sorts last
        quartiles = [ranked[-1]] * 5
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "stderr": float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0,
        **dict(zip(("min", "q1", "median", "q3", "max"), quartiles)),
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

    Each cell carries the depth-t erf accuracy as a reference.
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
    for (n, a, b, rho), groups in cells.items():  # first seen: the grid's order
        entry = {
            "cell": {"n": n, "a": a, "b": b, "rho": rho},
            "snr": snr(a, b),
            "groups": [],
        }
        entry["reference"] = {"erf_accuracy": predict_accuracy_erf(a, b, rho, t)}
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
    lines = {}  # (n, a, b) -> its data points, one line each
    for cell in summary["cells"]:
        c, rho = cell["cell"], cell["cell"]["rho"]
        pts = lines.setdefault((c["n"], c["a"], c["b"]), [])
        for grp in cell["groups"]:
            if grp["algorithm"].startswith("census") and "overlap_unrevealed" in grp:
                pts.append((rho, grp["overlap_unrevealed"]["mean"]))
    w, h, pad = 480, 320, 46

    def xmap(rho):
        return pad + rho * (w - 2 * pad)

    def ymap(v):
        return h - pad - v * (h - 2 * pad)

    svg = _svg_header(w, h, f"census t={t}: mean unrevealed overlap vs reveal ratio")
    svg += f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>\n'
    svg += f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>\n'
    for (n, a, b), pts in lines.items():
        pts.sort()
        if pts:
            d = " ".join(f"{xmap(x):.1f},{ymap(y):.1f}" for x, y in pts)
            svg += f'<polyline points="{d}" fill="none" stroke="#1f66b0" stroke-width="1.5"/>\n'
            svg += "".join(f'<circle cx="{xmap(x):.1f}" cy="{ymap(y):.1f}" r="2.5" '
                           f'fill="#1f66b0"/>\n' for x, y in pts)
            x, y = pts[-1]  # the group's label ends at its line's last point
            svg += (f'<text x="{xmap(x):.1f}" y="{ymap(y) - 6:.1f}" text-anchor="end" '
                    f'font-size="9" fill="#1f66b0">n={n} a={a:g} b={b:g}</text>\n')
    return svg + "</svg>\n"


def _boxes_svg(summary) -> str:
    boxes = []
    for cell in summary["cells"]:
        c = cell["cell"]
        for grp in cell["groups"]:
            field = "sdp_value" if grp["algorithm"] == "sdp" else "csdp_value"
            if field in grp:
                label = (f'{grp["algorithm"]}/{grp["truth_model"]}', f'a={c["a"]:g} b={c["b"]:g}',
                         f'n={c["n"]} rho={c["rho"]:g}')
                boxes.append((label, grp[field]))
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
        rows = "".join(f'<tspan x="{cx}" dy="{11 if k else 0}">{text}</tspan>'
                       for k, text in enumerate(label))
        svg += f'<text x="{cx}" y="{h-pad+14}" text-anchor="middle" font-size="9">{rows}</text>\n'
    return svg + "</svg>\n"
