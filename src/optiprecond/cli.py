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
from .dsdp import NewtonFailureError
from .heuristics import (
    DiagScaling,
    apply_scaling,
    jacobi_scaling,
    column_norm_scaling,
    ruiz_equilibrate,
)
from .linalg import NotPositiveDefiniteError, condition_number
from .matrixio import (
    MatrixMarketError,
    RectMatrix,
    SolveReport,
    gram_matrix,
    read_matrix_market,
    regularize_cap,
    render_reports,
    write_report,
)
from .optimal import (
    OptimalRequest,
    alternate_two_sided,
    bisect_two_sided,
    optimal_left,
    optimal_right,
)
from .potential import StagnationError
from .subgradient import projected_subgradient_solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4

_INPUT_ERRORS = (MatrixMarketError, FileNotFoundError, IsADirectoryError,
                 PermissionError, ValueError, KeyError)
_SOLVER_ERRORS = (NotPositiveDefiniteError, InfeasiblePointError,
                  CenteringError, StagnationError, NewtonFailureError,
                  PcgBreakdownError)

_PRECOND_METHODS = ("jacobi", "colnorm", "ruiz", "optimal-right",
                    "optimal-left", "optimal-two-sided", "subgrad")


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
    text = json.dumps(payload, indent=2) if args.format == "json" \
        else f"matrix,kappa,epsilon\n{args.input},{kappa!r},{eps!r}\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + ("\n" if args.format == "json" else ""))
    else:
        sys.stdout.write(text + ("\n" if args.format == "json" else ""))
    return EXIT_OK


def _solve_precond(method, a, gram, args):
    req = OptimalRequest(side="right", epsilon=args.epsilon,
                         method="auto")
    if method == "jacobi":
        scaling = jacobi_scaling(gram)
        return scaling, None
    if method == "colnorm":
        scaling = column_norm_scaling(RectMatrix(a.tall()))
        return scaling, None
    if method == "ruiz":
        return ruiz_equilibrate(gram), None
    if method == "optimal-right":
        return optimal_right(gram, req)
    if method == "optimal-left":
        return optimal_left(a, OptimalRequest(side="left",
                                              epsilon=args.epsilon))
    if method == "optimal-two-sided":
        req2 = OptimalRequest(side="two_sided", epsilon=args.epsilon)
        if args.side == "two":
            return bisect_two_sided(a, req2)
        return alternate_two_sided(a, req2)
    if method == "subgrad":
        return projected_subgradient_solve(gram)
    raise ValueError(f"unknown method {method!r}")


def cmd_precond(args) -> int:
    if args.method not in _PRECOND_METHODS:
        raise ValueError(
            f"method must be one of {', '.join(_PRECOND_METHODS)}")
    a = _load_matrix(args.input)
    gram, eps = _gram_with_cap(a, args.cap)
    t0 = time.perf_counter()
    scaling, report = _solve_precond(args.method, a, gram, args)
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
        if scaling.side == "two_sided_pair":
            raise ValueError("--emit-scaling supports one-sided scalings "
                             "only; two-sided pairs have two sequences")
        np.savetxt(args.emit_scaling, scaling.values, delimiter=",")
    _emit(args, [report])
    return EXIT_OK


def cmd_pcg_bench(args) -> int:
    a = _load_matrix(args.input)
    gram, eps = _gram_with_cap(a, args.cap)
    scalings = {
        "jacobi": jacobi_scaling(gram),
        "ruiz": ruiz_equilibrate(gram),
        "optimal": optimal_right(
            gram, OptimalRequest(side="right", method="dsdp",
                                 epsilon=args.epsilon))[0],
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
        p=len(sigma), n_grid=n_grid, sigma_spec=sigma,
        trials=args.trials, seed=args.seed)
    reports = [
        SolveReport(matrix="synthetic", method="concentration",
                    kappa_before=1.0, kappa_after=1.0, iterations=row["trials"],
                    wall_time_seconds=0.0,
                    extra={"n": row["n"], "mean_gap": row["mean_gap"]})
        for row in table
    ]
    _emit(args, reports)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optiprecond",
        description="Optimal and heuristic diagonal preconditioning")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True,
                           help="Matrix Market (.mtx) or dense CSV file")
        p.add_argument("--method", default="optimal-right")
        p.add_argument("--side", choices=("left", "right", "two"),
                       default="right")
        p.add_argument("--epsilon", type=float, default=1e-2)
        p.add_argument("--cap", type=float, default=None,
                       help="regularize the Gram matrix to kappa <= CAP")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--ratios", default="1.0")
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--emit-scaling", default=None)
        p.add_argument("--apply", default=None,
                       help="one-column CSV scaling to apply before "
                            "measuring kappa")

    common(sub.add_parser("cond", help="condition number of the Gram matrix"))
    common(sub.add_parser("precond", help="compute a preconditioner"))
    common(sub.add_parser("pcg-bench",
                          help="PCG iteration counts per preconditioner"))
    sweep = sub.add_parser("sample-sweep", help="row-sampling sweep")
    common(sweep)
    conc = sub.add_parser("concentration",
                          help="condition number concentration experiment")
    common(conc, needs_input=False)
    conc.add_argument("--n-grid", default="400,4000")
    conc.add_argument("--sigma-diag", default="1,2,3,4,5")
    conc.add_argument("--trials", type=int, default=10)
    sub.add_parser("version", help="print the package version")
    return parser


_HANDLERS = {
    "cond": cmd_cond,
    "precond": cmd_precond,
    "pcg-bench": cmd_pcg_bench,
    "sample-sweep": cmd_sample_sweep,
    "concentration": cmd_concentration,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "version":
        sys.stdout.write(__version__ + "\n")
        return EXIT_OK
    handler = _HANDLERS[args.subcommand]
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
