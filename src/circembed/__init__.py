"""circembed: exact sampling of stationary Gaussian random fields on
uniform grids via circulant embedding and FFT diagonalization, with
positive-definiteness criteria, eigenvalue bounds and decay diagnostics.
"""

__version__ = "0.1.0"

from .analysis import (
    BoundConstants,
    DecayReport,
    PdCriterionResult,
    calibrate_constants,
    continuous_eigenvalue,
    covariance_tail_integral,
    decay_report,
    eigen_lower_bound_diagnostic,
    gaussian_ell_bound,
    matern_ell_bound,
    pd_criterion,
    plateau_end,
    qmc_criterion_sum,
    sampling_theorem_check,
    spectral_tail_integral,
)
from .embedding import (
    Embedding,
    GridSpec,
    Spectrum,
    first_column,
    minimal_embedding,
    spectrum,
)
from .errors import (
    CapabilityError,
    CircembedError,
    ConvergenceError,
    NotPositiveDefiniteError,
    PDUndecidableError,
    QuadratureError,
    SymmetryError,
)
from .kernels import (
    CustomStationaryKernel,
    MaternKernel,
    gaussian_kernel,
)
from .sampler import (
    batch_sample_values,
    draw_normal,
    sample,
)
from .specialfn import inv_normal_cdf, log_gamma
from .validation import ValidationReport, dense_covariance, validate_samples

__all__ = [
    "__version__",
    "BoundConstants", "DecayReport", "PdCriterionResult",
    "calibrate_constants", "continuous_eigenvalue",
    "covariance_tail_integral", "decay_report",
    "eigen_lower_bound_diagnostic", "gaussian_ell_bound",
    "matern_ell_bound", "pd_criterion", "plateau_end", "qmc_criterion_sum",
    "sampling_theorem_check", "spectral_tail_integral",
    "Embedding", "GridSpec", "Spectrum", "first_column",
    "minimal_embedding", "spectrum",
    "CapabilityError", "CircembedError", "ConvergenceError",
    "NotPositiveDefiniteError", "PDUndecidableError", "QuadratureError",
    "SymmetryError",
    "CustomStationaryKernel", "MaternKernel", "gaussian_kernel",
    "batch_sample_values", "draw_normal", "sample",
    "inv_normal_cdf", "log_gamma",
    "ValidationReport", "dense_covariance", "validate_samples",
]
