"""Exception taxonomy shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class BoundError(InvalidInputError):
    """A setting breaks its bound or a rule between settings. ``template`` cites
    ``names`` as ``{0}``, ``{1}``, ...; ``names[0]`` is the one at fault."""

    def __init__(self, template, *names):
        self.template = template
        self.names = names
        super().__init__(template.format(*names))


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
    """A data file is malformed. Carries the offending file and where: the
    byte ``offset`` into a binary container or the ``line`` of a CSV file,
    neither when the fault lies between files."""

    def __init__(self, path, message, *, offset=None, line=None):
        self.path = str(path)
        self.offset = offset
        self.line = line
        where = f" @ byte {offset}" if offset is not None else f" @ line {line}" if line else ""
        super().__init__(f"{self.path}{where}: {message}")


class ConfigError(ValueError):
    """A run configuration is malformed. Carries the source line when known."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
