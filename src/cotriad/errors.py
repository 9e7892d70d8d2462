"""Exception taxonomy shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class OracleFailureError(RuntimeError):
    """A finite-difference probe produced a non-finite evaluation."""


class NonFiniteError(RuntimeError):
    """A training run produced a non-finite value. Carries where it first did."""

    def __init__(self, quantity, epoch, step):
        self.quantity = quantity
        self.epoch = epoch
        self.step = step
        super().__init__(f"non-finite {quantity} at epoch {epoch}, step {step}")


class InsufficientHistoryError(ValueError):
    """A windowed statistic was requested with too few recorded entries."""


class FormatError(ValueError):
    """A data file is malformed. Carries the offending file and byte offset."""

    def __init__(self, path, offset, message):
        self.path = str(path)
        self.offset = offset
        super().__init__(f"{self.path} @ byte {offset}: {message}")


class ConfigError(ValueError):
    """A run configuration is malformed. Carries the source line when known."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
