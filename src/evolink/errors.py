"""Exception types shared across the package.

Everything raised on purpose derives from EvolinkError so callers (and the
command line front end) can catch one base class and still tell failure
modes apart. :func:`check_numbers` is the type and range check every
config class and protocol entry point runs on its numeric fields.
"""
import math
import numbers


class EvolinkError(Exception):
    """Base class for all package-specific failures."""


class ShapeError(EvolinkError):
    """Operands have incompatible shapes or dimensions."""


class NumericError(EvolinkError):
    """A value that must be finite is NaN or infinite."""


class MalformedGraphError(EvolinkError):
    """A snapshot or event violates the graph data-model invariants."""


class EmptyEventError(EvolinkError):
    """An event carries no edges at all."""


class WindowUnderflowError(EvolinkError):
    """A history window would reach before the first snapshot."""


class OutOfRangeError(EvolinkError):
    """A snapshot index is past the end of the event."""


class DegenerateSoftmaxError(EvolinkError):
    """A softmax row has no entry to distribute over."""


class TrainingDivergedError(EvolinkError):
    """Loss or a gradient became non-finite during optimization.

    Carries the partial trace recorded up to the failing epoch in
    ``trace`` (may be None when the failure precedes the first epoch).
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class CheckpointError(EvolinkError):
    """A checkpoint blob is corrupt, truncated, or of an unknown version."""


class InsufficientLinksError(EvolinkError):
    """Too few held-out links to form a validation/test split."""


class ConfigError(EvolinkError):
    """A configuration value or combination is invalid."""


class EventFormatError(EvolinkError):
    """An event directory or snapshot file cannot be parsed."""


# Each kind of real field: the words of its range and the test of it.
_REAL_KINDS = {"unit": ("in [0, 1]", lambda x: 0.0 <= x <= 1.0),
               "positive": ("positive and finite", lambda x: 0.0 < x < math.inf)}


def check_numbers(config, integers: dict[str, int | None], reals: dict[str, str | None]) -> None:
    """Raise ConfigError unless every ``integers`` field of ``config`` holds an
    integer of at least its bound (None: any) and every ``reals`` field a real
    number of its kind: ``"unit"`` for [0, 1], ``"positive"`` for positive and
    finite, None for any. A bool is neither. The package words these rules
    only here."""
    for name, bound in integers.items():
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if bound is not None and value < bound:
            raise ConfigError(f"{name} must be >= {bound}, got {value}")
    for name, kind in reals.items():
        value = getattr(config, name)
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ConfigError(f"{name} must be a real number, got {value!r}")
        if kind is not None and not _REAL_KINDS[kind][1](value):
            raise ConfigError(f"{name} must be {_REAL_KINDS[kind][0]}, got {value}")
