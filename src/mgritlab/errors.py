"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A run configuration is inconsistent or out of range."""


class ParseError(ConfigError):
    """A config file could not be parsed.

    Carries the offending line number and key so callers can point at the
    exact spot in the file.
    """

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key '{key}'")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class DimensionError(ValueError):
    """Array shapes or component counts do not match."""


class PhysicalStateError(ValueError):
    """A state leaves the model's admissible set (e.g. negative depth,
    density, or pressure).

    problem says what is wrong. index, when given, is where the first
    offending cell sits in a (..., N) array of cell values; the message
    names the cell and, when there are batch axes, its batch position.
    """

    def __init__(self, problem: str, index: tuple = ()):
        self.problem = problem
        self.index = index
        message = problem
        if index:
            message += f" in cell {index[-1]}"
            batch = index[:-1]
            if batch:
                message += (" at batch position "
                            f"{batch[0] if len(batch) == 1 else batch}")
        super().__init__(message)
