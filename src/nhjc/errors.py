"""The ValueError subclasses that callers and the command line tell apart."""


class ExceptionalPointError(ValueError):
    """The requested operation needs a diagonalizable block, but the
    parameters sit inside the exceptional-point tolerance band where the
    two eigenvectors coalesce."""


class SpecValidationError(ValueError):
    """A sweep spec failed validation; the message lists offending fields."""


class EmptySweepError(ValueError):
    """Export or rendering was asked to process a SweepTable with no cells."""


class SweepFileError(ValueError):
    """A CSV or JSON sweep file is malformed; the message names the row or field."""
