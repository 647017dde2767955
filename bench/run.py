#!/usr/bin/env python3
"""Sweep benchmark for ssbm: three closed-loop workloads over ``run_sweep``.

Each workload is a reduced copy of a config in ``configs/``.  A run is a fixed
number of passes in one process; a pass is one ``ssbm.harness.run_sweep`` call
at workers=1 with its own sweep seed, so each replication starts when the
previous one ends.  Run from the repository root:

    python3 bench/run.py --workload detect-n200 --seed 0 --seconds 25 --trace 0

``--trace 0`` times the passes with tracing off and prints the end-to-end
metrics.  ``--trace 1`` runs the same passes untraced and then traced, checks
that both give the same records, certifies every dual bound after the timed
region and prints the per-layer metrics.  The last line of standard output is
one JSON object; a stamped result file goes to ``bench/out/``.  The exit code
is 1 when a correctness check fails and 2 when the benchmark cannot start.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, make_calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
# One BLAS thread, set before numpy loads: the sweep runs at workers=1, and a
# second busy thread on a 2-CPU machine measures the scheduler, not ssbm.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TAIL_BEYOND = 10      # rows that must lie above the reported tail percentile
GAP_CEILING = 0.05    # relative dual gap above which a solve counts as broken
RHO1_REFUSAL = "all vertices are revealed; nothing to estimate"

CENSUS_RHO = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

# reps: replications of every cell in one pass.  pass_seconds: the median
# wall time of one pass at commit 311d9c1 on a 2-CPU Xeon during one of its
# slow stretches, so that a run seldom takes much longer than --seconds.  A
# run makes max(MIN_PASSES, round(seconds / pass_seconds)) passes, so it does
# the same work on every commit and a faster program finishes sooner.
WORKLOADS = {
    "detect-n200": {
        "kind": "detection-boxes", "restarts": 2, "t": 1, "reps": 1, "pass_seconds": 3.9,
        "params": {"n": [200], "a": [9.0, 5.0], "b": [2.0], "rho": [0.25]},
    },
    "census-t1-n3000": {
        "kind": "census-sweep", "restarts": 3, "t": 1, "reps": 10, "pass_seconds": 0.95,
        "params": {"n": [3000], "a": [5.0], "b": [2.0], "rho": CENSUS_RHO},
    },
    "census-t2-n3000": {
        "kind": "census-sweep", "restarts": 3, "t": 2, "reps": 1, "pass_seconds": 1.25,
        "params": {"n": [3000], "a": [5.0], "b": [2.0], "rho": CENSUS_RHO},
    },
}
MIN_PASSES = 3
PASS_SEED_STRIDE = 1_000_000  # pass k of a run at seed s sweeps with seed s * stride + k

ROWS_PER_TASK = {"census-sweep": 1, "detection-boxes": 4}

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ssbm; "
    "ssbm.ExperimentConfig.from_json(sys.argv[2]); print('ready', flush=True)"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------------ inputs --

def pass_seeds(workload: str, seed: int, seconds: int) -> list[int]:
    """Sweep seed of every pass of a run."""
    passes = max(MIN_PASSES, round(seconds / WORKLOADS[workload]["pass_seconds"]))
    if passes >= PASS_SEED_STRIDE:
        raise BenchError(f"{passes} passes; at most {PASS_SEED_STRIDE - 1} fit the seed stride")
    return [seed * PASS_SEED_STRIDE + k for k in range(passes)]


def make_config(workload: str, seed: int, out_dir: Path) -> str:
    """One pass's sweep config, as the JSON ``ssbm sweep --config`` reads."""
    wl = WORKLOADS[workload]
    return json.dumps({
        "kind": wl["kind"],
        "params": wl["params"],
        "reps": wl["reps"],
        "solver": {"rank": None, "tol": 1e-6, "max_sweeps": 2000,
                   "restarts": wl["restarts"], "seed": 0},
        "out_dir": str(out_dir),
        "seed": seed,
        "t": wl["t"],
        "workers": 1,
    })


def cpu_seconds() -> float:
    """CPU time of this process, its threads and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclasses.dataclass
class Pass:
    """One timed run_sweep call, with the calibration loop's CPU time around it."""

    cfg: object
    result: object
    wall: float
    cpu: float
    calibration: float  # mean of the calibration runs just before and just after

    @property
    def tasks(self) -> int:
        return len(self.cfg.cells()) * self.cfg.reps

    @property
    def calibrated_rate(self) -> float:
        """Replications per CPU second, at the speed where the calibration
        loop takes its nominal time."""
        return self.tasks / (self.cpu * NOMINAL_S / self.calibration)


def timed_passes(ssbm, workload: str, seeds: list[int], out_dir: Path,
                 calibration_cpu) -> list[Pass]:
    """One run_sweep call per seed, back to back, each timed on its own and
    bracketed by runs of the calibration loop."""
    passes = []
    before = calibration_cpu()
    for k, seed in enumerate(seeds):
        cfg = ssbm.ExperimentConfig.from_json(make_config(workload, seed, out_dir / f"pass{k}"))
        t0, c0 = time.perf_counter(), cpu_seconds()
        result = ssbm.harness.run_sweep(cfg)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        after = calibration_cpu()
        passes.append(Pass(cfg, result, wall, cpu, (before + after) / 2))
        before = after
    return passes


def import_ssbm():
    if not (SRC / "ssbm" / "__init__.py").is_file():
        raise BenchError(f"no ssbm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ssbm
    if Path(ssbm.__file__).resolve().parent != SRC / "ssbm":
        raise BenchError(f"imported ssbm from {ssbm.__file__}, not from {SRC}")
    return ssbm


def measure_setup(config_json: str) -> list[float]:
    """Seconds from process start until ssbm is imported and the config built."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, str(SRC), config_json],
                                stdout=subprocess.PIPE, text=True)
        with proc.stdout:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        if proc.wait() != 0 or line.strip() != "ready":
            raise BenchError("set-up subprocess failed")
        times.append(elapsed)
    return times


# ------------------------------------------------------------------- stamp --

def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> tuple[str, int | None]:
    """(config string, threads in effect) of the OpenBLAS numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return "unknown", None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                try:
                    get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                    get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                except AttributeError:
                    continue
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                return get_config().decode(), int(get_threads())
    return "unknown", None


def stamp() -> dict:
    import numpy
    import scipy
    blas, threads = _openblas()
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ------------------------------------------------------------------- gate --

def deterministic_rows(fields, records) -> list[tuple]:
    """Every record field except runtime_ms (the CSV timestamp is not a field)."""
    keep = [f for f in fields if f != "runtime_ms"]
    return [tuple(getattr(r, f) for f in keep) for r in records]


def first_mismatch(a: list[tuple], b: list[tuple]) -> str | None:
    if len(a) != len(b):
        return f"{len(a)} records against {len(b)}"
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"record {i} differs: {x} against {y}"
    return None


def overlaps_outside(values) -> list[float]:
    return [v for v in values if not 0.0 <= v <= 1.0]


def invalid_certificates(pairs) -> int:
    """Number of (upper bound, value) pairs whose bound lies below the value."""
    return sum(1 for upper, value in pairs if not upper >= value)


def unexpected_errors(kind: str, summary: dict) -> list[dict]:
    """Error rows other than the census' refusal at rho = 1, read from the
    summary, since ``ssbm sweep`` exits 0 even when error rows exist."""
    rho_of = [c["cell"]["rho"] for c in summary["cells"]]
    return [e for e in summary.get("errors", [])
            if not (kind == "census-sweep" and e["error"] == RHO1_REFUSAL
                    and rho_of[e["cell"]] == 1.0)]


class Gate:
    def __init__(self):
        self.checks: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.checks.values())


def check_passes(gate: Gate, label: str, kind: str, passes: list[Pass]) -> tuple[int, int]:
    """Row bookkeeping, error rows and overlap range of every pass.

    Returns (error replications, unexpected error replications).
    """
    miscounted, bad, outside, n_errors = [], [], [], 0
    for k, p in enumerate(passes):
        records = p.result.records
        summary = json.loads(Path(p.result.summary_path).read_text())
        errors = summary.get("errors", [])
        n_errors += len(errors)
        error_rows = sum(1 for r in records if r.algorithm == "error")
        expected_rows = (p.tasks - len(errors)) * ROWS_PER_TASK[kind] + len(errors)
        if len(records) != expected_rows or error_rows != len(errors):
            miscounted.append(f"pass {k}: {len(records)} rows, {error_rows} error rows, "
                              f"{len(errors)} errors in summary.json, "
                              f"{expected_rows} rows expected")
        bad += unexpected_errors(kind, summary)
        outside += overlaps_outside(r.overlap_unrevealed for r in records
                                    if r.overlap_unrevealed is not None)
    gate.check(f"{label}.rows_accounted", not miscounted, "; ".join(miscounted[:3]))
    gate.check(f"{label}.errors_documented", not bad,
               f"{len(bad)} unexpected error replications" + (f", first: {bad[0]}" if bad else ""))
    gate.check(f"{label}.overlaps_in_unit_interval", not outside, f"outside [0, 1]: {outside[:3]}")
    return n_errors, len(bad)


def check_canaries(gate: Gate, fields, records):
    """Tamper with copies and require each check to notice."""
    rows = deterministic_rows(fields, records)
    victim = next(i for i, r in enumerate(records) if r.algorithm != "error")
    tampered = list(records)
    tampered[victim] = dataclasses.replace(records[victim], seed=records[victim].seed ^ 1)
    gate.check("canary.tampered_record_detected",
               first_mismatch(rows, deterministic_rows(fields, tampered)) is not None)
    gate.check("canary.overlap_out_of_range_detected", overlaps_outside([0.5, 1.5]) == [1.5])
    gate.check("canary.invalid_certificate_detected", invalid_certificates([(1.0, 2.0)]) == 1)


# ---------------------------------------------------------------- metrics --

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, values above it) of the highest nearest-rank
    percentile with TAIL_BEYOND values above it; the maximum when there are
    too few values for that."""
    s = sorted(values)
    k = len(s) - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s)
    return s[k - 1], 100.0 * k / len(s), len(s) - k


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def all_records(passes: list[Pass]) -> list:
    return [r for p in passes for r in p.result.records]


def row_latency(records) -> dict:
    """Median and tail of the runtime_ms column over non-error rows."""
    ms = [r.runtime_ms for r in records if r.algorithm != "error"]
    tail_ms, tail_pct, beyond = tail(ms)
    return {"row_ms_p50": statistics.median(ms), "row_ms_tail": tail_ms,
            "row_ms_tail_percentile": tail_pct, "row_ms_tail_rows_beyond": beyond,
            "rows": len(ms)}


def end_to_end(passes: list[Pass], setup: list[float], peak_rss_mb: float) -> dict:
    sbm_overlaps = [r.overlap_unrevealed for r in all_records(passes)
                    if r.truth_model == "sbm" and r.overlap_unrevealed is not None]
    return {
        "setup_s": statistics.median(setup),
        "reps_per_s_calibrated": statistics.median(p.calibrated_rate for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "overlap_mean": statistics.fmean(sbm_overlaps),
    }


def install_layers(tracer, solves: list):
    """Spans around every layer function the workloads reach, and around
    certify_dual, which the benchmark calls after the timed sweep."""
    def on_solve(counts, args, sol):
        counts["sdp.solve_elliptope.sweeps"] += sol.sweeps_used
        counts["sdp.solve_elliptope.unconverged"] += not sol.converged
        solves.append((args[0], args[1] if len(args) > 1 else None, sol))

    def on_aggregate(counts, args, agg):
        op = agg.op
        counts["csdp.aggregate.dim_sum"] += op.dim
        margin_nnz = int(((op.rows == 0) & (op.cols != 0)).sum())
        counts["csdp.aggregate.margin_nnz_max"] = max(counts["csdp.aggregate.margin_nnz_max"],
                                                      margin_nnz)

    def on_sample(counts, args, instance):
        counts["model.sample_instance.edges"] += instance[0].num_edges

    def on_census(counts, args, report):
        counts["census.census_estimate.ties"] += report.ties_broken

    def on_csv(counts, args, _):
        counts["harness.write_csv.bytes"] += os.path.getsize(args[0])

    def on_certify(counts, args, cert):
        counts["sdp.certify_dual.power_unconverged"] += not cert.power_converged

    tracer.span("harness.run_sweep")
    tracer.span("harness.summarize")
    tracer.span("harness.write_csv", on_csv)
    tracer.span("model.sample_instance", on_sample)
    tracer.span("model.centered_adjacency")
    tracer.span("census.census_estimate", on_census)
    tracer.span("census.margins_at_depth")
    tracer.span("sdp.solve_elliptope", on_solve)
    tracer.span("sdp.round_leading_eigvec")
    tracer.span("csdp.solve_csdp")
    tracer.span("csdp.aggregate", on_aggregate)
    tracer.span("csdp.estimate_unrevealed")
    tracer.count("rng.coin")
    tracer.span("sdp.certify_dual", on_certify)


def repeated_solves(solves) -> int:
    """Solves whose operator and solver settings equal an earlier solve's."""
    seen, repeats = set(), 0
    for M, cfg, _ in solves:
        h = hashlib.sha256()
        for arr in (M.rows, M.cols, M.weights) + ((M.rank1[0],) if M.rank1 is not None else ()):
            h.update(arr.tobytes())
        h.update(repr((M.dim, M.diag_shift, None if M.rank1 is None else M.rank1[1], cfg)).encode())
        key = h.hexdigest()
        repeats += key in seen
        seen.add(key)
    return repeats


def per_layer(tracer, solves, traced_wall, untraced_wall, rel_gap_max, error_rate, latency):
    spans = tracer.by_name()
    c = tracer.counts

    def self_s(name):
        return math.fsum(s.self_s for s in spans.get(name, ()))

    def calls(name):
        return len(spans.get(name, ()))

    solve_ms = [s.duration * 1e3 for s in spans.get("sdp.solve_elliptope", ())]
    return {
        "sdp.solve_elliptope.calls": calls("sdp.solve_elliptope"),
        "sdp.solve_elliptope.self_s": self_s("sdp.solve_elliptope"),
        "sdp.solve_elliptope.ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "sdp.solve_elliptope.ms_p90": p90(solve_ms),
        "sdp.solve_elliptope.sweeps": c["sdp.solve_elliptope.sweeps"],
        "sdp.solve_elliptope.unconverged": c["sdp.solve_elliptope.unconverged"],
        "sdp.solve_elliptope.repeats": repeated_solves(solves),
        "sdp.round_leading_eigvec.self_s": self_s("sdp.round_leading_eigvec"),
        "csdp.solve_csdp.self_s": self_s("csdp.solve_csdp"),
        "csdp.estimate_unrevealed.self_s": self_s("csdp.estimate_unrevealed"),
        "csdp.aggregate.self_s": self_s("csdp.aggregate"),
        "csdp.aggregate.dim_sum": c["csdp.aggregate.dim_sum"],
        "csdp.aggregate.margin_nnz_max": c["csdp.aggregate.margin_nnz_max"],
        "model.sample_instance.calls": calls("model.sample_instance"),
        "model.sample_instance.self_s": self_s("model.sample_instance"),
        "model.sample_instance.edges": c["model.sample_instance.edges"],
        "model.centered_adjacency.self_s": self_s("model.centered_adjacency"),
        "census.census_estimate.calls": calls("census.census_estimate"),
        "census.census_estimate.self_s": self_s("census.census_estimate"),
        "census.census_estimate.ties": c["census.census_estimate.ties"],
        "census.margins_at_depth.self_s": self_s("census.margins_at_depth"),
        "rng.coin.calls": c["rng.coin.calls"],
        "harness.run_sweep.self_s": self_s("harness.run_sweep"),
        # runtime_ms is the harness's own per-row timer, read from the untraced sweep
        "harness.row_ms_p50": latency["row_ms_p50"],
        "harness.row_ms_tail": latency["row_ms_tail"],
        "harness.summarize.self_s": self_s("harness.summarize"),
        "harness.write_csv.self_s": self_s("harness.write_csv"),
        "harness.write_csv.bytes": c["harness.write_csv.bytes"],
        "sdp.certify_dual.calls": calls("sdp.certify_dual"),
        "sdp.certify_dual.self_s": self_s("sdp.certify_dual"),
        "sdp.certify_dual.power_unconverged": c["sdp.certify_dual.power_unconverged"],
        "rel_gap_max": rel_gap_max,
        "error_rate": error_rate,
        # share of the traced sweep spent inside a layer below run_sweep
        "trace.coverage": 1.0 - self_s("harness.run_sweep") / traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


# ------------------------------------------------------------------- main --

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def run(args) -> tuple[dict, dict]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ssbm = import_ssbm()
    from spans import Tracer

    calibration_cpu = make_calibration()
    kind = WORKLOADS[args.workload]["kind"]
    run_dir = OUT.relative_to(ROOT) / f"{args.workload}-seed{args.seed}"
    seeds = pass_seeds(args.workload, args.seed, args.seconds)
    fields = ssbm.harness.RESULT_FIELDS
    gate = Gate()

    setup = (measure_setup(make_config(args.workload, seeds[0], run_dir / "setup"))
             if args.trace == 0 else [])
    untraced = timed_passes(ssbm, args.workload, seeds, run_dir / "untraced", calibration_cpu)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = all_records(untraced)
    tasks = sum(p.tasks for p in untraced)
    wall = math.fsum(p.wall for p in untraced)
    errors, failed = check_passes(gate, "untraced", kind, untraced)
    check_canaries(gate, fields, records)
    latency = row_latency(records)
    details = {"passes": len(untraced), "reps_per_pass": untraced[0].cfg.reps,
               "pass_seeds": seeds, "attempted": tasks, "error_replications": errors,
               "pass_walls_s": [p.wall for p in untraced],
               "pass_cpu_s": [p.cpu for p in untraced],
               "pass_calibration_cpu_s": [p.calibration for p in untraced],
               "untraced_wall_s": wall, "pooled_reps_per_s": tasks / wall,
               "reps_per_cpu_s": tasks / math.fsum(p.cpu for p in untraced), **latency}

    if args.trace == 0:
        values = end_to_end(untraced, setup, peak_rss_mb)
        details["setup_samples_s"] = setup
    else:
        solves = []
        tracer = Tracer()
        with tracer:
            install_layers(tracer, solves)
            traced = timed_passes(ssbm, args.workload, seeds, run_dir / "traced",
                                  calibration_cpu)
            # certification runs after the timed region, on the captured factors
            certs = [ssbm.sdp.certify_dual(M, sol) for M, _, sol in solves]
        traced_wall = math.fsum(p.wall for p in traced)
        check_passes(gate, "traced", kind, traced)
        traced_records = all_records(traced)
        mismatch = first_mismatch(deterministic_rows(fields, records),
                                  deterministic_rows(fields, traced_records))
        gate.check("traced_records_identical", mismatch is None, mismatch or "")

        pairs = [(cert.upper_bound, sol.value) for cert, (_, _, sol) in zip(certs, solves)]
        gate.check("certificates_valid", invalid_certificates(pairs) == 0,
                   f"{invalid_certificates(pairs)} of {len(pairs)} bounds below their value")
        rel_gap_max = max(((upper - value) / abs(value) for upper, value in pairs), default=0.0)
        gate.check("rel_gap_within_ceiling", rel_gap_max <= GAP_CEILING,
                   f"rel_gap_max {rel_gap_max:.3e}, ceiling {GAP_CEILING}")
        certified = {value for _, value in pairs}
        solver_values = [v for r in traced_records for v in (r.sdp_value, r.csdp_value)
                         if v is not None]
        uncertified = [v for v in solver_values if v not in certified]
        gate.check("solver_rows_certified", not uncertified,
                   f"{len(uncertified)} of {len(solver_values)} row values without a certificate")

        values = per_layer(tracer, solves, traced_wall, wall, rel_gap_max, errors / tasks, latency)
        details.update({"traced_wall_s": traced_wall, "spans": len(tracer.spans)})
        with open(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    unnamed = sorted(set(units) ^ set(values))
    gate.check("metrics_named_with_units",
               not unnamed and all(math.isfinite(m["value"]) for m in metrics.values()),
               f"metrics printed or named but not both: {unnamed}")
    line = {"correct": gate.passed, "attempted": tasks, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp(),
              "config": json.loads(make_config(args.workload, seeds[0], run_dir / "untraced/pass0")),
              "details": details, "checks": gate.checks, **line}
    return line, record


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)
    os.chdir(ROOT)  # sweep output paths in the configs are relative to the root
    try:
        line, record = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name, check in record["checks"].items():
        if not check["ok"]:
            print(f"bench: check {name} failed: {check['detail']}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
