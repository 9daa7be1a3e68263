"""Exception hierarchy shared across the toolkit."""


class FairvecError(Exception):
    """Base class for all toolkit errors."""


# --- checkpoint container ---

class CheckpointError(FairvecError):
    pass


class MalformedHeader(CheckpointError):
    pass


class OverlappingOffsets(CheckpointError):
    pass


class TruncatedData(CheckpointError):
    pass


class UnsupportedDtype(CheckpointError):
    pass


# --- output files ---

class IoFailure(FairvecError):
    """A file could not be written (raised by atomic.atomic_open only)."""


# --- weight-space algebra ---

class NameSetMismatch(FairvecError):
    def __init__(self, missing, extra):
        self.missing = sorted(missing)
        self.extra = sorted(extra)
        super().__init__(
            f"tensor name sets differ: missing={self.missing} extra={self.extra}"
        )


class ShapeMismatch(FairvecError):
    def __init__(self, name, a_shape, b_shape):
        self.name = name
        super().__init__(f"shape mismatch for tensor {name!r}: {a_shape} vs {b_shape}")


class NonFiniteCoefficient(FairvecError):
    pass


class ZeroVector(FairvecError):
    pass


# --- fairness metrics ---

class EmptyGroup(FairvecError):
    pass


class InsufficientGroups(FairvecError):
    pass


# --- toy lab ---

class InvalidSpec(FairvecError):
    pass


class DivergedTraining(FairvecError):
    pass


class IncompatibleCheckpoint(FairvecError):
    pass
