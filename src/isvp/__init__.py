"""Inverse singular value problem solvers and benchmark harness."""

__version__ = "0.1.0"

from .core import (
    IsvpInstance,
    approx_jacobian,
    build_instance,
    evaluate_A,
    full_svd,
    generalized_residual_vector,
    load_instance,
    residual_d,
    save_instance,
)
from .cayley_free import (
    SolverConfig,
    chebyshev_update,
    correction_matrices,
    outer_step,
    solve,
)
from .baselines import alg1_skew_pair, alg1_solve, cayley_orthogonalize, newton_exact_solve
from .harness import (
    Algorithm,
    ExperimentConfig,
    build_B0,
    emit_reports,
    estimate_root_rate,
    generate_instance,
    generate_toeplitz_instance,
    perturb_c_star,
    run_experiment,
)
from .report import SolveReport, SolveStatus
