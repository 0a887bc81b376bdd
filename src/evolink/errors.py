"""Exception types shared across the package.

Everything raised on purpose derives from EvolinkError so callers (and the
command line front end) can catch one base class and still tell failure
modes apart.
"""


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
