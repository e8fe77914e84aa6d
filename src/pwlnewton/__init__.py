"""Newton solver for the piecewise linear system x+ + Tx = b.

The same pattern-driven iteration solves the system in its T/b form and
in its QP form [Q - I]x+ + x = -b_tilde, whose positive-part solution
minimizes a nonnegativity-constrained convex quadratic.  Projection onto
a simplicial cone {Ax : x >= 0} is exposed as a front end, and a seedable
instance generator plus benchmark harness reproduce the iteration-count
experiments behind the CLI.
"""

from .errors import (
    AsymmetricMatrixError,
    ContractionHypothesisError,
    DimensionError,
    EquivalenceUnavailableError,
    GeneratorError,
    ProblemFormatError,
    PwlNewtonError,
    SingularMatrixError,
    SizeGuardError,
)
from .linalg import (
    LuFactors,
    inv_spectral_norm,
    lu_factor,
    lu_inverse,
    lu_solve,
    spectral_norm,
    sym_eig,
)
from .pwls import (
    CONVERGED_STATUSES,
    ConditionReport,
    DefiniteSignClassification,
    PwlsProblem,
    SignPattern,
    SolveReport,
    SolveStatus,
    SolverOptions,
    check_conditions,
    check_finite_termination_hypothesis,
    definite_sign_rows,
    enumerate_solutions,
    fixed_point_solve,
    newton_solve,
    newton_step,
    positive_part,
    residual,
    sign_pattern,
)
from .qp import (
    ConeInstance,
    ConeProjectionResult,
    KktResidual,
    QpProblem,
    check_qp_conditions,
    cone_instance_to_qp,
    cone_projection,
    kkt_residual,
    kkt_scale,
    lcp_residual,
    qp_newton_solve,
    qp_objective,
    qp_residual,
    qp_to_pwls,
    recover_qp_solution,
)
from .gen import GeneratedInstance, GeneratorConfig, make_batch, make_instance, make_spd_matrix
from .bench import (
    BenchRecord,
    CSV_COLUMNS,
    records_to_csv,
    run_bench_beta,
    run_bench_dim,
    run_bench_starts,
    solve_generated,
    write_csv,
)

__version__ = "0.1.0"
