"""Exception hierarchy shared by every sleepstager component."""


class StagerError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(StagerError):
    """Operand shapes are inconsistent for the requested operation."""


class ContractViolation(StagerError):
    """A caller broke an API precondition (non-scalar loss, missing grads, ...)."""


class UninitializedState(StagerError):
    """Eval-mode batch normalization used before any training step."""


class InvalidInput(StagerError):
    """Input data is structurally invalid (empty sequence, length mismatch)."""


class ConfigError(StagerError):
    """A configuration value is out of range or internally inconsistent."""


class EmptyDataset(StagerError):
    """The requested windowing or training set contains no samples."""


class ParseError(StagerError):
    """EDF byte stream could not be parsed.

    Carries the byte offset and the header field that failed so malformed
    files can be diagnosed without a hex editor.
    """

    def __init__(self, message, offset=None, field=None):
        self.offset = offset
        self.field = field
        detail = message
        if field is not None:
            detail += f" (field: {field})"
        if offset is not None:
            detail += f" (byte offset: {offset})"
        super().__init__(detail)


class AnnotationError(StagerError):
    """Hypnogram annotations overlap or are not aligned to the 30 s grid."""


class ChannelNotFound(StagerError):
    """Requested signal label does not exist in the recording."""


class DegenerateSignal(StagerError):
    """Normalization was asked to divide by a (near-)zero variance."""


class InvalidLabel(StagerError):
    """A stage index is outside the five-class range 0..4."""


class _CorruptFile(StagerError):
    """A stored file failed to load; ``field`` names the part that broke."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message += f" (field: {field})"
        super().__init__(message)


class CorruptCheckpoint(_CorruptFile):
    """Checkpoint file is truncated, has a bad magic/version, or lies about shapes."""


class CorruptCache(_CorruptFile):
    """A ``.sepc`` epoch cache is truncated, has a bad magic/version, or trails bytes."""


class DegenerateDistribution(StagerError):
    """Cohen's kappa is undefined: chance agreement is 1 but observed is not."""


class IoError(StagerError):
    """A file could not be read or an output artifact could not be written."""
