"""Command line surface: condition numbers, preconditioners, benchmarks.

Exit codes: 0 success, 2 input error, 3 solver failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .barrier import CenteringError, InfeasiblePointError
from .bench import PcgBreakdownError, concentration_experiment, pcg_compare, sampling_sweep
from .heuristics import (
    SIDE_LEFT,
    SIDE_PAIR,
    SIDE_RIGHT,
    DiagScaling,
    apply_scaling,
    jacobi_scaling,
    column_norm_scaling,
    ruiz_equilibrate,
)
from .linalg import (EigenConvergenceError, NotPositiveDefiniteError,
                     condition_number)
from .matrixio import (
    MatrixMarketError,
    RectMatrix,
    SolveReport,
    gram_matrix,
    read_matrix_market,
    regularize_cap,
    render_reports,
    write_report,
    write_text,
)
from .optimal import (
    OptimalRequest,
    bisect_two_sided,
    optimal_left,
    optimal_right,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4

_INPUT_ERRORS = (MatrixMarketError, FileNotFoundError, IsADirectoryError,
                 PermissionError, ValueError, KeyError)
_SOLVER_ERRORS = (NotPositiveDefiniteError, EigenConvergenceError,
                  InfeasiblePointError, CenteringError, PcgBreakdownError)

# Each precond method: the side of the scaling it returns, whether it solves
# on the Gram matrix (which --cap regularizes) or on the rectangular input,
# and its solver (that matrix, request) -> (scaling, report), where a
# baseline's report is None and cmd_precond measures it.
_PRECOND_METHODS = {
    "jacobi": (SIDE_RIGHT, True, lambda m, req: (jacobi_scaling(m), None)),
    "colnorm": (SIDE_RIGHT, False, lambda m, req: (
        column_norm_scaling(RectMatrix(m.tall())), None)),
    "ruiz": (SIDE_RIGHT, True, lambda m, req: (ruiz_equilibrate(m), None)),
    "optimal-right": (SIDE_RIGHT, True, lambda m, req: optimal_right(
        m, OptimalRequest(method="dsdp", epsilon=req.epsilon))),
    "optimal-left": (SIDE_LEFT, False, lambda m, req: optimal_left(m, req)),
    "optimal-two-sided": (SIDE_PAIR, False,
                          lambda m, req: bisect_two_sided(m, req)),
}


def _load_matrix(path) -> RectMatrix:
    text = str(path)
    if text.endswith(".mtx"):
        return read_matrix_market(path)
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    return RectMatrix(data)


def _emit(args, reports):
    if args.out:
        write_report(reports, format=args.format, path=args.out)
    else:
        sys.stdout.write(render_reports(reports, format=args.format) + "\n")


def _gram_with_cap(a: RectMatrix, cap):
    gram = gram_matrix(a)
    if cap is not None:
        spec = regularize_cap(gram, cap)
        return spec.gram, spec.epsilon
    return gram, 0.0


def cmd_cond(args) -> int:
    a = _load_matrix(args.input)
    gram, eps = _gram_with_cap(a, args.cap)
    if args.apply:
        values = np.loadtxt(args.apply, delimiter=",", ndmin=1)
        gram = apply_scaling(gram, DiagScaling(values))
    kappa = condition_number(gram)
    payload = {"matrix": str(args.input), "kappa": kappa, "epsilon": eps}
    text = json.dumps(payload, indent=2) + "\n" if args.format == "json" \
        else f"matrix,kappa,epsilon\n{args.input},{kappa!r},{eps!r}\n"
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_precond(args) -> int:
    if args.method not in _PRECOND_METHODS:
        raise ValueError(
            f"method must be one of {', '.join(_PRECOND_METHODS)}")
    side, on_gram, solve = _PRECOND_METHODS[args.method]
    if args.emit_scaling and side != SIDE_RIGHT:
        raise ValueError("--emit-scaling writes right scalings only, "
                         "the side that cond --apply reads; "
                         f"{args.method} gives a {side} scaling")
    if args.cap is not None and not on_gram:
        raise ValueError("--cap regularizes the Gram matrix, but "
                         f"{args.method} solves on the rectangular input")
    a = _load_matrix(args.input)
    gram, eps = _gram_with_cap(a, args.cap)
    t0 = time.perf_counter()
    scaling, report = solve(gram if on_gram else a,
                            OptimalRequest(epsilon=args.epsilon))
    if report is None:
        kappa_before = condition_number(gram)
        kappa_after = condition_number(apply_scaling(gram, scaling))
        report = SolveReport(
            matrix=str(args.input), method=args.method,
            kappa_before=kappa_before, kappa_after=kappa_after,
            iterations=0, wall_time_seconds=time.perf_counter() - t0,
            extra={})
    else:
        report.matrix = str(args.input)
    if eps:
        report.extra["epsilon"] = eps
    if args.emit_scaling:
        write_text(args.emit_scaling,
                   "".join(f"{v:.18e}\n" for v in scaling.values))
    _emit(args, [report])
    return EXIT_OK


def cmd_pcg_bench(args) -> int:
    a = _load_matrix(args.input)
    gram, eps = _gram_with_cap(a, args.cap)
    scalings = {
        "jacobi": jacobi_scaling(gram),
        "ruiz": ruiz_equilibrate(gram),
        "optimal": optimal_right(gram, OptimalRequest(method="dsdp"))[0],
    }
    reports = pcg_compare(gram, scalings, tol=args.tol, seed=args.seed)
    for r in reports:
        r.matrix = str(args.input)
    _emit(args, reports)
    return EXIT_OK


def cmd_sample_sweep(args) -> int:
    a = _load_matrix(args.input)
    try:
        ratios = [float(tok) for tok in args.ratios.split(",") if tok]
    except ValueError:
        raise ValueError(f"bad ratio list {args.ratios!r}")
    if not ratios:
        raise ValueError("empty ratio list")
    points = sampling_sweep(a, ratios, seed=args.seed)
    reports = [
        SolveReport(matrix=str(args.input), method="sample_sweep",
                    kappa_before=float("nan") if p.rank_deficient
                    else p.kappa_preconditioned,
                    kappa_after=float("nan") if p.rank_deficient
                    else p.kappa_preconditioned,
                    iterations=0, wall_time_seconds=0.0,
                    extra={"ratio": p.ratio, "gram_gap": p.gram_gap,
                           "rank_deficient": p.rank_deficient})
        for p in points
    ]
    _emit(args, reports)
    return EXIT_OK


def cmd_concentration(args) -> int:
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",") if tok]
        sigma = [float(tok) for tok in args.sigma_diag.split(",") if tok]
    except ValueError:
        raise ValueError("bad --n-grid or --sigma-diag list")
    if not n_grid or not sigma:
        raise ValueError("empty --n-grid or --sigma-diag")
    table = concentration_experiment(
        n_grid=n_grid, sigma_spec=sigma, trials=args.trials, seed=args.seed)
    reports = [
        SolveReport(matrix="synthetic", method="concentration",
                    kappa_before=1.0, kappa_after=1.0, iterations=row["trials"],
                    wall_time_seconds=0.0,
                    extra={"n": row["n"], "mean_gap": row["mean_gap"]})
        for row in table
    ]
    _emit(args, reports)
    return EXIT_OK


# Every flag, by name; each subcommand takes the ones its handler reads.
_FLAGS = {
    "input": dict(required=True, help="Matrix Market (.mtx) or dense CSV"),
    "method": dict(default="optimal-right",
                   help=f"one of {', '.join(_PRECOND_METHODS)}"),
    "epsilon": dict(type=float, default=1e-2, help=(
        "optimal-right, optimal-left and optimal-two-sided stop at this "
        "certified relative gap kappa / kappa_lower_bound - 1 (dsdp's "
        "floor 1e-8)")),
    "cap": dict(type=float, help="regularize the Gram matrix to kappa <= CAP"),
    "seed": dict(type=int, default=0),
    "ratios": dict(default="1.0"),
    "tol": dict(type=float, default=1e-6),
    "out": dict(),
    "format": dict(choices=("json", "csv"), default="json"),
    "emit-scaling": dict(),
    "apply": dict(help="one-column CSV scaling to apply before measuring"),
    "n-grid": dict(default="400,4000"),
    "sigma-diag": dict(default="1,2,3,4,5"),
    "trials": dict(type=int, default=10),
}

# Each subcommand: its handler, help text and the flags it reads.
_SUBCOMMANDS = {
    "cond": (cmd_cond, "condition number of the Gram matrix",
             "input cap apply out format"),
    "precond": (cmd_precond, "compute a preconditioner",
                "input method epsilon cap emit-scaling out format"),
    "pcg-bench": (cmd_pcg_bench, "PCG iteration counts per preconditioner",
                  "input cap tol seed out format"),
    "sample-sweep": (cmd_sample_sweep, "row-sampling sweep",
                     "input ratios seed out format"),
    "concentration": (cmd_concentration,
                      "condition number concentration experiment",
                      "seed n-grid sigma-diag trials out format"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optiprecond",
        description="Optimal and heuristic diagonal preconditioning")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "version":
        sys.stdout.write(__version__ + "\n")
        return EXIT_OK
    handler = _SUBCOMMANDS[args.subcommand][0]
    try:
        return handler(args)
    except _SOLVER_ERRORS as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:   # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
