"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "UnknownVertexError",
    "DuplicateVertexError",
    "UnknownReferenceError",
    "InvalidEdgeError",
    "SpecError",
    "UnknownOperationError",
    "MethodologyError",
    "InconsistentEntryError",
    "TemplateError",
    "TransactionError",
    "TransactionStateError",
    "DependencyCycleError",
    "SchedulerError",
    "WorkloadError",
    "RecoveryError",
    "InvariantViolationError",
]


class ReproError(Exception):
    """Base class of every exception raised by the library."""


# ---------------------------------------------------------------------------
# Object graph errors (repro.graph)
# ---------------------------------------------------------------------------

class GraphError(ReproError):
    """Base class for errors raised while building or mutating object graphs."""


class UnknownVertexError(GraphError):
    """A vertex id was used that is not present in the graph."""

    def __init__(self, vid: int) -> None:
        super().__init__(f"vertex {vid!r} is not part of this object graph")
        self.vid = vid


class DuplicateVertexError(GraphError):
    """A vertex id was inserted twice into the same graph."""

    def __init__(self, vid: int) -> None:
        super().__init__(f"vertex {vid!r} already exists in this object graph")
        self.vid = vid


class UnknownReferenceError(GraphError):
    """A named reference was dereferenced but never declared."""

    def __init__(self, name: str) -> None:
        super().__init__(f"reference {name!r} is not declared on this object")
        self.name = name


class InvalidEdgeError(GraphError):
    """An ordering edge violates the single-level restriction of Def. 8."""


# ---------------------------------------------------------------------------
# Abstract specification errors (repro.spec)
# ---------------------------------------------------------------------------

class SpecError(ReproError):
    """Base class for errors in abstract data type specifications."""


class UnknownOperationError(SpecError):
    """An operation name was looked up that the ADT does not define."""

    def __init__(self, adt: str, operation: str) -> None:
        super().__init__(f"ADT {adt!r} does not define operation {operation!r}")
        self.adt = adt
        self.operation = operation


# ---------------------------------------------------------------------------
# Methodology errors (repro.core)
# ---------------------------------------------------------------------------

class MethodologyError(ReproError):
    """Base class for errors raised by the table-derivation pipeline."""


class InconsistentEntryError(MethodologyError):
    """A set of (dependency, condition) pairs violates mutual consistency.

    The paper (Section 4.4) requires that if two pairs involve the same type
    of localities and the first condition exploits more semantics than the
    second, the first dependency must be weaker than the second.
    """


class TemplateError(MethodologyError):
    """A template table was consulted with classes it does not cover."""


# ---------------------------------------------------------------------------
# Concurrency control errors (repro.cc)
# ---------------------------------------------------------------------------

class TransactionError(ReproError):
    """Base class for transaction-management errors."""


class TransactionStateError(TransactionError):
    """An operation was attempted in an illegal transaction state."""


class DependencyCycleError(TransactionError):
    """A cycle was found in the inter-transaction dependency graph."""


class SchedulerError(TransactionError):
    """The scheduler was driven outside its protocol."""


class WorkloadError(ReproError):
    """A workload specification is invalid."""


# ---------------------------------------------------------------------------
# Robustness errors (repro.robust)
# ---------------------------------------------------------------------------

class RecoveryError(TransactionError):
    """Decision-log replay diverged from the recorded outcomes.

    Raised when crash recovery replays the log into a fresh scheduler and
    a replayed decision disagrees with the one originally recorded — the
    log is corrupt, truncated mid-record, or the scheduler is no longer
    deterministic.
    """


class InvariantViolationError(TransactionError):
    """A monitored invariant kept failing after every degradation rung.

    The monitor only raises once the ladder is exhausted: fast paths were
    rebuilt and execution fell back to the bit-parity reference scheduler,
    and the invariant still does not hold.
    """
