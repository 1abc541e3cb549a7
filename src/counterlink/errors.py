"""Exception hierarchy shared by the library and the CLI exit-code mapping."""

import math


class CounterlinkError(Exception):
    """Base class; exit_code is what the CLI returns when this escapes."""

    exit_code = 1


class InputError(CounterlinkError, ValueError):
    exit_code = 2


class ShapeError(InputError):
    """Shape mismatch inside a numeric op; carries the op name."""

    def __init__(self, op, message):
        super().__init__(f"{op}: {message}")
        self.op = op


class ConfigError(CounterlinkError):
    exit_code = 2


class DependencyError(CounterlinkError):
    exit_code = 3


class NumericError(CounterlinkError):
    exit_code = 4


class ValidationError(CounterlinkError):
    exit_code = 5


class DegenerateSplitError(ValidationError):
    """A split bucket received zero edges; names the empty bucket."""


def require_finite(name, value, minimum=None):
    """InputError naming `name` unless value is a finite number that is, when
    minimum is given, at least minimum."""
    if not math.isfinite(value) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InputError(f"{name} must be a finite number{bound}, got {value}")


def require_schedule(epochs, patience, batch_size, min_epochs=0):
    """InputError unless epochs is at least min_epochs, patience between 0
    and epochs, and batch_size at least 0 (0 = one batch)."""
    if epochs < min_epochs:
        raise InputError(f"epochs must be >= {min_epochs}, got {epochs}")
    if not 0 <= patience <= epochs:
        raise InputError(f"patience must be between 0 and epochs ({epochs}), got {patience}")
    if batch_size < 0:
        raise InputError(f"batch_size must be >= 0 (0 = one batch), got {batch_size}")
