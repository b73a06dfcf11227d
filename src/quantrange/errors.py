"""Exception types shared across the package."""


class QuantRangeError(Exception):
    """Base class for all package errors."""


# --- market data ---

class MalformedRow(QuantRangeError):
    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class NonMonotoneTimestamp(QuantRangeError):
    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class MissingField(QuantRangeError):
    pass


class EmptyInput(QuantRangeError):
    pass


class DegenerateFeature(QuantRangeError):
    pass


class InsufficientData(QuantRangeError):
    pass


# --- models ---

class ShapeMismatch(QuantRangeError):
    pass


class DimensionMismatch(ShapeMismatch):
    pass


class NonFiniteLoss(QuantRangeError):
    pass


class MissingLevel(QuantRangeError):
    pass


# --- metrics ---

class LengthMismatch(QuantRangeError):
    pass


class ZeroRange(QuantRangeError):
    pass


# --- backtest ---

class RuinousReturn(QuantRangeError):
    pass


class AlignmentError(QuantRangeError):
    pass


# --- config / synthetic ---

class InvalidSpec(QuantRangeError, ValueError):
    """A value a config dataclass does not allow, or a synthetic path that
    ingest could not read; a ValueError too, as any bad argument is."""


class ConfigError(QuantRangeError):
    pass


class MissingArtifact(QuantRangeError):
    pass


class UnwritableArtifact(QuantRangeError):
    pass
