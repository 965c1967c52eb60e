"""Exception types shared across btlab."""


class BtlabError(Exception):
    """Base class for all btlab errors."""


class PhaseValidationError(BtlabError):
    """A phase triple (A, B, C) fails an admissibility condition."""


class NonSymmetricPhase(PhaseValidationError):
    """A or C is not symmetric as stored."""


class SingularB(PhaseValidationError):
    """det B vanishes (or is negligible against the scale of B)."""


class NonPositiveCI(PhaseValidationError):
    """C_I = (C - conj(C))/2i is not positive definite."""


class IllConditionedPhase(PhaseValidationError):
    """A derived matrix is too ill-conditioned to invert reliably, or
    det B, det C_I or a derived field overflows a float."""


class OrderOutOfRange(BtlabError):
    """Quadrature order outside the supported range."""


class NonFiniteSample(BtlabError):
    """An integrand returned NaN or Inf at a quadrature node."""


class UnsupportedSymbol(BtlabError):
    """The requested operation is unavailable for this symbol variant."""


class InvalidConfig(BtlabError):
    """An experiment configuration is malformed or out of domain."""
