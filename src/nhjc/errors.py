"""Exception types shared across the package."""


class ExceptionalPointError(ValueError):
    """The requested operation needs a diagonalizable block, but the
    parameters sit inside the exceptional-point tolerance band where the
    two eigenvectors coalesce."""


class WrongPhaseError(ValueError):
    """Operation is only defined in the other spectral phase."""


class NotHermitianError(ValueError):
    """A matrix that must be Hermitian is not."""


class NotPositiveDefiniteError(ValueError):
    """A matrix that must be positive definite has a non-positive eigenvalue."""


class InsufficientSamplesError(ValueError):
    """Too few samples for the requested fit."""


class NonPositiveDataError(ValueError):
    """Log-log fit received non-positive coordinates."""


class ZeroCouplingError(ValueError):
    """Eigenvector component ratio is undefined at zero coupling."""


class SpecValidationError(ValueError):
    """A sweep spec failed validation; the message lists offending fields."""


class EmptySweepError(ValueError):
    """Export or rendering was asked to process a SweepTable with no cells."""


class SweepFileError(ValueError):
    """A CSV or JSON sweep file is malformed; the message names the row or field."""
