"""Newton solver for the piecewise linear system x+ + Tx = b.

The same pattern-driven iteration solves the system in its T/b form and
in its QP form [Q - I]x+ + x = -b_tilde, whose positive-part solution
minimizes a nonnegativity-constrained convex quadratic.  Projection onto
a simplicial cone {Ax : x >= 0} is exposed as a front end, and a seedable
instance generator plus benchmark harness reproduce the iteration-count
experiments behind the CLI.
"""

from .errors import (
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
    lu_solve,
    spectral_norm,
)
from .pwls import (
    CONVERGED_STATUSES,
    ConditionReport,
    PwlsProblem,
    SignPattern,
    SolveReport,
    SolveStatus,
    SolverOptions,
    check_conditions,
    newton_solve,
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
    qp_newton_solve,
    qp_to_pwls,
)
from .gen import GeneratedInstance, GeneratorConfig, make_batch, make_instance, make_spd_matrix
from .bench import (
    BenchRecord,
    CSV_COLUMNS,
    run_bench_beta,
    run_bench_dim,
    run_bench_starts,
    write_csv,
)

__version__ = "0.1.0"
