"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Bad user-facing input: config values, point counts, malformed files."""


class ShapeError(ValidationError):
    """Operand shapes incompatible; message carries both shapes."""


class NumericError(RuntimeError):
    """Runtime numeric failure (a training loss past ``train.LOSS_LIMIT``, or nan)."""

    index = None  # set by a lockstep ``train``: the failing plan's place in its list
