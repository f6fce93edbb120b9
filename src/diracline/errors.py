"""Exception types shared across the package."""


class DiraclineError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DiraclineError):
    """Argument outside the supported domain of an operation."""


class PoleError(DomainError):
    """Evaluation exactly at a pole (gamma at a non-positive integer)."""


class NonConvergence(DiraclineError):
    """An iteration failed to converge within its budget."""


class WindowExhausted(DiraclineError):
    """Root search ran out of window before finding the requested levels."""


class DegenerateError(DiraclineError):
    """Coefficient assembly has no usable pivot (both matching values vanish)."""


class TailError(DiraclineError):
    """Normalization domain too small: over 1e-12 of the probability lies beyond it."""


class StepError(DiraclineError):
    """ODE integration over/underflowed despite renormalization."""
