"""Parallel stochastic Newton methods and their convergence-rate tooling."""

from .linalg import (
    eigen_extremes,
    make_heat_matrix,
    make_rho_matrix,
    make_tridiagonal,
    psd_order_holds,
    solve_pd,
)
from .matrixio import read_matrix, read_vector, write_matrix, write_vector
from .sampling import (
    ExpectedInverse,
    SamplingScheme,
    draw,
    expected_lifted_inverse,
    parse_scheme,
)
from .rates import (
    CurvaturePair,
    PcdmConstants,
    RateReport,
    RhoAnalysis,
    b_threshold,
    lambda_ratio,
    pcdm_constants,
    rate_report,
    rho_closed_forms,
    sigma1,
    sigma_p,
    theta,
    theta_cond_bound,
    tridiag_theta_bound,
)
from .solver import (
    DivergenceError,
    IterationTrace,
    SmoothObjective,
    SolverConfig,
    least_squares_objective,
    quadratic_objective,
    run,
)
from .erm import (
    DualState,
    ErmProblem,
    ErmTrace,
    LogisticLoss,
    SquaredLoss,
    load_libsvm,
    run_erm,
)

__version__ = "0.1.0"
