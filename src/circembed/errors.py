"""Exception types shared across the package."""

__all__ = ["CircembedError", "NotPositiveDefiniteError", "PDUndecidableError",
           "ConvergenceError", "QuadratureError", "SymmetryError",
           "CapabilityError"]


class CircembedError(Exception):
    """Base class for circembed-specific failures."""


class NotPositiveDefiniteError(CircembedError):
    """Raised when no positive definite extension is found within the search
    cap.  `min_eig` and `rounding_bound` are the DCT-I minimum and its
    rounding bound at the last m tried; `attempts` is the search's record,
    one (m, decider) pair per attempt, the decider "witness" or "dct" (see
    `minimal_embedding`)."""

    def __init__(self, message, m_max=None, min_eig=None, rounding_bound=None,
                 attempts=()):
        super().__init__(message)
        self.m_max = m_max
        self.min_eig = min_eig
        self.rounding_bound = rounding_bound
        self.attempts = attempts


class PDUndecidableError(NotPositiveDefiniteError):
    """Raised when the search cap is reached but the last rejection lies
    within the float64 rounding bound of the spectrum, so double precision
    cannot decide whether that extension is positive definite."""


class SymmetryError(CircembedError):
    """Raised when a transform input lacks the even symmetry it must have."""


class QuadratureError(CircembedError):
    """Raised when a quadrature error estimate exceeds the requested tolerance."""


class ConvergenceError(CircembedError):
    """Raised when an iterative refinement fails to converge within its budget."""


class CapabilityError(CircembedError):
    """Raised when an operation needs a kernel capability (e.g. a spectral
    density) that the supplied kernel does not provide."""
