"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DomainError(ReproError, ValueError):
    """A value lies outside the declared domain of an attribute."""


class GraphError(ReproError, ValueError):
    """A causal diagram is malformed (cycles, unknown nodes, ...)."""


class EstimationError(ReproError, RuntimeError):
    """A probability or score could not be estimated from data."""


class RecourseInfeasibleError(ReproError, RuntimeError):
    """The recourse integer program has no feasible solution."""


class NotFittedError(ReproError, RuntimeError):
    """An estimator was used before ``fit`` was called."""


class StoreError(ReproError, RuntimeError):
    """A persistence operation failed (missing artifact, corrupt log,
    snapshot/table mismatch, unknown tenant)."""


class CorruptArtifactError(StoreError):
    """Stored bytes fail their integrity check (digest/crc mismatch).

    Raised instead of returning the bytes: corrupt state must never be
    loaded silently."""


class DegradedError(StoreError):
    """A durable component is in read-only degraded mode after an I/O
    failure and refuses writes until healed (see ``RecordLog.reopen``)."""


class DeadlineExceededError(ReproError, RuntimeError):
    """The request's deadline expired before the work completed."""


class OverloadedError(ReproError, RuntimeError):
    """The server shed this request because a bounded queue is full.

    Maps to HTTP 429 with a ``Retry-After`` hint."""

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)
