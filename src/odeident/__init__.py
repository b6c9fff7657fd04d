"""odeident: decides, certifies, and performs parameter recovery for
sampled ODE observations.

Layers, bottom up:

* ``numkernel`` — dense linear algebra (matrix exponential, eigenvalues,
  least squares, singular values, resultants).
* ``ode`` — parameterized systems, the handle whose ``observe`` is the
  observation map's one entry point, adaptive integration, forward
  sensitivities, and each species' map (closed form for x' = A x).
* ``obsmap`` — ``phi`` and ``phi_jacobian``, injectivity-radius
  certificates, and the det(J^T J) lattice scan.
* ``linearcase`` — exact analysis of x' = A x: degeneracy/aliasing
  detection, matrix-log branch enumeration, rank oracles.
* ``estimate`` — finite-difference linear estimator, damped Gauss-Newton
  inversion, noise injection.
* ``cli`` — config-driven command-line pipelines.
"""

from .config import DEFAULTS, Tolerances
from .errors import (
    ConvergenceError,
    DefectiveMatrixError,
    DimensionError,
    DivergenceError,
    DomainError,
    InputFormatError,
    IntegrationError,
    NotIdentifiableError,
    RangeError,
)
from .estimate import (
    EstimationResult,
    add_noise,
    fd_linear_estimate,
    gauss_newton_invert,
)
from .linearcase import (
    BranchSet,
    DegeneracyReport,
    FullRankReport,
    degeneracy_report,
    discriminant_closed_form,
    full_rank_check,
    krylov_rank,
    log_branches,
    exp_divided_difference_determinant,
)
from .numkernel import (
    EigenResult,
    LeastSquaresResult,
    eigenvalues,
    least_squares,
    mat_exp,
    numerical_rank,
    singular_values,
    sylvester_matrix,
    sylvester_resultant,
)
from .obsmap import (
    InjectivityCertificate,
    VerificationReport,
    ZetaScanResult,
    certify_radius,
    phi,
    phi_jacobian,
    verify_lower_bound,
    zeta_scan,
)
from .ode import (
    MatrixLinear,
    Observation,
    ObservationMapHandle,
    ParamSystem,
    PolynomialBasis,
    integrate,
    integrate_with_sensitivity,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULTS",
    "Tolerances",
    "ConvergenceError",
    "DefectiveMatrixError",
    "DimensionError",
    "DivergenceError",
    "DomainError",
    "InputFormatError",
    "IntegrationError",
    "NotIdentifiableError",
    "RangeError",
    "EstimationResult",
    "add_noise",
    "fd_linear_estimate",
    "gauss_newton_invert",
    "BranchSet",
    "DegeneracyReport",
    "FullRankReport",
    "degeneracy_report",
    "discriminant_closed_form",
    "full_rank_check",
    "krylov_rank",
    "log_branches",
    "exp_divided_difference_determinant",
    "EigenResult",
    "LeastSquaresResult",
    "eigenvalues",
    "least_squares",
    "mat_exp",
    "numerical_rank",
    "singular_values",
    "sylvester_matrix",
    "sylvester_resultant",
    "InjectivityCertificate",
    "ObservationMapHandle",
    "VerificationReport",
    "ZetaScanResult",
    "certify_radius",
    "phi",
    "phi_jacobian",
    "verify_lower_bound",
    "zeta_scan",
    "MatrixLinear",
    "Observation",
    "ParamSystem",
    "PolynomialBasis",
    "integrate",
    "integrate_with_sensitivity",
    "__version__",
]
