"""Exception types shared across the package.

Each type's exit_code and label are the CLI's exit code and log label for it;
ParseError inherits DataError's.
"""


class KgcnError(Exception):
    pass


class ConfigError(KgcnError):
    """Inconsistent or invalid configuration (flags, dims, ratios)."""
    exit_code, label = 1, "config error"


class DataError(KgcnError):
    """Bad input data that is not a simple parse failure."""
    exit_code, label = 2, "data error"


class ParseError(DataError):
    """Malformed line in an input file; carries the 1-based line number."""

    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class NumericalError(KgcnError):
    """Non-finite value encountered during training or inference."""
    exit_code, label = 3, "numerical failure"
