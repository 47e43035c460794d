"""Shared exception types."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """A run configuration is inconsistent or out of range."""


class ParseError(ValueError):
    """A dataset file line could not be parsed."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class EmptyDatasetError(ValueError):
    """Preprocessing filtered out every user of a domain, or left a split
    that a run must evaluate with no samples."""
