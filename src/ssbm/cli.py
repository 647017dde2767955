"""Command-line front end.

Subcommands: generate, census, sdp, csdp, test, sweep.  Exit codes: 0 success,
1 usage error, 2 numeric/solver failure (and a sweep with failed replications).
``--seed`` is the instance seed, and a run draws and solves by a sweep's rules,
so given a ``records.csv`` row's n, a, b, rho, seed and model it prints that row.
A sweep is described by its JSON config file alone, and every report goes to
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import census_estimate, overlap
from .csdp import detection_margin, detection_test, estimate_unrevealed, solve_csdp
from .harness import ExperimentConfig, run_sweep
from .model import ModelParams, centered_adjacency, sample_instance, write_instance
from .sdp import (CERT_GAP, DENSE_CERT_MAX, STALL_WINDOW, NumericError, SolverConfig,
                  round_leading_eigvec, solve_elliptope)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _instance(args, params: ModelParams):
    """A sweep row's instance of the validated planted ``params`` (or of its matched
    null under ``--model erm``), its centred operator and its solver settings."""
    if args.model == "erm":
        params = params.null(params.seed)
    g, rev = sample_instance(params)
    return g, rev, centered_adjacency(g, params.d), _solver_from(args).for_instance(params.seed)


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


def build_parser() -> _Parser:
    top = _Parser(prog="ssbm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample an instance and export it as an edge-list "
                                         "file for other tools (no ssbm command reads it)")
    _add_model_args(p)
    p.add_argument("--out", required=True, help="output path for the edge-list file")

    p = sub.add_parser("census", help="run the census estimator on a sampled instance")
    _add_model_args(p)
    p.add_argument("--t", type=int, default=1, help="census depth")

    for name in ("sdp", "csdp", "test"):
        p = sub.add_parser(name)
        _add_model_args(p)
        _add_solver_args(p)
        p.add_argument("--model", choices=("sbm", "erm"), default="sbm",
                       help="the planted model, or its matched null a = b = (a+b)/2")
        if name == "test":
            p.add_argument("--delta", type=float, default=None,
                           help="test margin, in (0, (a-b)/2) (default (a-b)/40)")

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
    g, rev, M, solver = _instance(args, _params_from(args))
    sol = solve_elliptope(M, solver)
    est = round_leading_eigvec(sol)
    _emit({**_solution_payload(sol), "overlap_unrevealed": overlap(est, g.labels, rev)})
    return 0


def _cmd_csdp(args) -> int:
    g, rev, M, solver = _instance(args, _params_from(args))
    csol = solve_csdp(M, rev, solver)
    report = estimate_unrevealed(csol, rev, g.labels, seed=args.seed)
    _emit({
        **_solution_payload(csol.inner),
        "margin00": csol.margin00,
        "overlap_unrevealed": report.overlap,
    })
    return 0


def _cmd_test(args) -> int:
    params = _params_from(args)  # the model's refusals come first, as in sdp and csdp
    delta = detection_margin(args.a, args.b, args.delta)  # before any sampling or solving
    g, rev, M, solver = _instance(args, params)
    csol = solve_csdp(M, rev, solver)
    outcome = detection_test(csol.value, args.n, args.a, args.b, delta=delta)
    _emit({"statistic": outcome.statistic, "threshold": outcome.threshold,
           "decision": outcome.decision, "delta": outcome.delta_used,
           "rho0": outcome.rho0, "model": args.model})
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
    "test": _cmd_test,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # from argparse: 1 for a usage error, 0 for --help
        return exc.code
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
