"""Command-line front end.

Subcommands: generate, census, sdp, csdp, sweep.  Exit codes: 0 success,
1 usage error, 2 numeric/solver failure (and a sweep with failed replications).
``--seed`` is the instance seed, and ``sdp`` and ``csdp`` compute their values
by the functions a sweep's rows come from, so given a ``records.csv`` row's n,
a, b, rho, seed and model a run prints that row.
A sweep is described by its JSON config file alone, and every report goes to
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import census_estimate
from .harness import ExperimentConfig, _csdp_values, _Draw, _sdp_values, run_sweep
from .model import ModelParams, sample_instance, write_instance
from .sdp import CERT_GAP, DENSE_CERT_MAX, STALL_WINDOW, NumericError, SolverConfig


def _add_model_args(p):
    p.add_argument("--n", type=int, required=True, help="vertex count (even)")
    p.add_argument("--a", type=float, required=True, help="within-community rate")
    p.add_argument("--b", type=float, required=True, help="cross-community rate")
    p.add_argument("--rho", type=float, default=0.0, help="reveal ratio in [0,1]")
    p.add_argument("--seed", type=int, default=0, help="instance seed, as a sweep row's")


_SOLVER_FLAGS = ("rank", "tol", "max_sweeps", "restarts")


def _add_solver_args(p):
    # a flag left out stays absent, so SolverConfig holds its default
    p.add_argument("--rank", type=int, default=argparse.SUPPRESS,
                   help="factor width (default: sqrt rule)")
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help=f"stop a restart when the objective moves by at most this "
                        f"(relative) over {STALL_WINDOW} steps; up to dim "
                        f"{DENSE_CERT_MAX} it stops sooner once a check proves the dual "
                        f"gap within {CERT_GAP:g} * min(1, tol / 1e-6) (relative)")
    p.add_argument("--max-sweeps", type=int, default=argparse.SUPPRESS,
                   help="operator products per restart at most (one per step, and one "
                        "per rejected mixed candidate)")
    p.add_argument("--restarts", type=int, default=argparse.SUPPRESS,
                   help=f"independent restarts at most: the next one runs only while the "
                        f"dual-certified relative gap exceeds {CERT_GAP:g}")


def _solver_from(args) -> SolverConfig:
    return SolverConfig(**{k: v for k, v in vars(args).items() if k in _SOLVER_FLAGS})


def _params_from(args) -> ModelParams:
    return ModelParams(n=args.n, a=args.a, b=args.b, rho=args.rho, seed=args.seed)


def _solve_row(args, values_of):
    """``values_of`` (``harness._sdp_values`` or ``_csdp_values``) on a sweep
    row's instance of the planted parameters (of its matched null under
    ``--model erm``): the row's value columns and the solution behind them."""
    params = _params_from(args)
    draw = _Draw(params.seed, null=args.model == "erm")
    _, rev = draw.instance(params)
    return values_of(draw, rev, _solver_from(args), params)


def _solution_payload(sol) -> dict:
    """What ``ssbm sdp`` and ``ssbm csdp`` report of a solve."""
    return {
        "value": sol.value,
        "sweeps": sol.sweeps_used,
        "converged": sol.converged,
        "certified_rel_gap": sol.certificate.gap / max(1.0, abs(sol.value)),
    }


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ssbm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample an instance and export it as an edge-list "
                                         "file for other tools (no ssbm command reads it)")
    _add_model_args(p)
    p.add_argument("--out", required=True, help="output path for the edge-list file")

    p = sub.add_parser("census", help="run the census estimator on a sampled instance")
    _add_model_args(p)
    p.add_argument("--t", type=int, default=1, help="census depth")

    for name in ("sdp", "csdp"):
        p = sub.add_parser(name)
        _add_model_args(p)
        _add_solver_args(p)
        p.add_argument("--model", choices=("sbm", "erm"), default="sbm",
                       help="the planted model, or its matched null a = b = (a+b)/2")

    p = sub.add_parser("sweep", help="run the Monte Carlo sweep a JSON config file describes")
    p.add_argument("--config", required=True,
                   help="JSON config file, as in configs/: kind, params (n, a, b, rho) and "
                        "out_dir, and reps, seed, t, workers and solver, each optional")
    return top


def _cmd_generate(args) -> int:
    g, rev = sample_instance(_params_from(args))
    write_instance(args.out, g, rev)
    print(f"wrote {g.n} vertices, {g.num_edges} edges, {rev.m} revealed to {args.out}")
    return 0


def _cmd_census(args) -> int:
    g, rev = sample_instance(_params_from(args))
    report = census_estimate(g, rev, t=args.t, seed=args.seed)
    _emit({"overlap": report.overlap, "ties": report.ties_broken,
           "estimates": report.estimates.tolist()})
    return 0


def _cmd_sdp(args) -> int:
    values, sol = _solve_row(args, _sdp_values)
    _emit({**_solution_payload(sol), "overlap_unrevealed": values["overlap_unrevealed"]})
    return 0


def _cmd_csdp(args) -> int:
    values, csol = _solve_row(args, _csdp_values)
    _emit({**_solution_payload(csol.inner), "margin00": values["margin00"],
           "overlap_unrevealed": values["overlap_unrevealed"],
           "test_decision": values["test_decision"]})
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    result = run_sweep(cfg)
    print(f"wrote {len(result.records)} records to {result.csv_path}")
    print(f"summary: {result.summary_path}")
    errors = result.summary.get("errors", [])
    if errors:
        print(f"ssbm: {len(errors)} replication(s) failed; first: {errors[0]['error']}",
              file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "census": _cmd_census,
    "sdp": _cmd_sdp,
    "csdp": _cmd_csdp,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # from argparse: 2 for a usage error, 0 for --help
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"ssbm: error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ArithmeticError) as exc:
        print(f"ssbm: numeric failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else from the solver stack
        print(f"ssbm: failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
