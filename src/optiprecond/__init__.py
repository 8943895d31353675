"""Optimal and heuristic diagonal preconditioning of full-rank matrices.

The package minimizes the condition number kappa(D1^{1/2} A D2^{-1/2}) over
positive diagonal scalings, via bisection over SDP feasibility, potential
reduction with Nesterov-Todd steps, and a primal-dual interior point method
on the one-sided SDPs, and benchmarks the effect on preconditioned conjugate
gradient convergence. Spectra, from one symmetric eigensolver, and the one
full-rank rule, whose failure raises NotPositiveDefiniteError, live in
``linalg``, the only module that binds LAPACK."""

from .linalg import (
    SymMatrix,
    NotPositiveDefiniteError,
    condition_number,
    proximity_delta,
)
from .matrixio import (
    RectMatrix,
    GramSpec,
    SolveReport,
    MatrixMarketError,
    read_matrix_market,
    gram_matrix,
    regularize_cap,
    sample_rows,
    render_reports,
    write_report,
)
from .heuristics import (
    DiagScaling,
    apply_scaling,
    apply_pair,
    scaled_condition,
    jacobi_scaling,
    column_norm_scaling,
    ruiz_equilibrate,
)
from .barrier import (
    FeasibilityResult,
    InfeasiblePointError,
    CenteringError,
    compute_center,
    initial_feasible_point,
    two_sided_feasibility,
)
from .potential import (
    CenterState,
    PRConfig,
    delta_kappa,
    shift_state,
    nt_step,
    solve_right_pr,
)
from .dsdp import (
    DsdpProblem,
    build_right,
    build_left,
    barrier_path_solve,
)
from .optimal import (
    OptimalRequest,
    optimal_right,
    optimal_left,
    bisect_two_sided,
    alternate_two_sided,
)
from .bench import (
    PcgResult,
    SamplingPoint,
    pcg,
    pcg_compare,
    sampling_sweep,
    concentration_experiment,
)

__version__ = "0.1.0"
