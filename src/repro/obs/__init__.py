"""repro.obs — observability for the scheduler stack.

Structured event tracing (:mod:`repro.obs.events`,
:mod:`repro.obs.tracers`), a dependency-free metrics registry with JSON
and Prometheus exports (:mod:`repro.obs.registry`), derivation profiling
(:mod:`repro.obs.profiling`), and offline trace analysis — timelines,
table-entry firing histograms, and trace-only serializability
re-verification (:mod:`repro.obs.analysis`).

The tracing contract: every instrumented component takes an optional
``tracer``; the default :class:`~repro.obs.tracers.NullTracer` is falsy
and instrumentation guards each emission with ``if tracer:``, so the
un-traced hot path never constructs an event.
"""

from repro.obs.analysis import (
    EntryFiring,
    TraceSummary,
    firing_histogram,
    history_from_trace,
    parse_literal,
    render_dashboard,
    serializable_from_trace,
    summarize,
    transaction_timeline,
)
from repro.obs.conflict import (
    ConflictProfile,
    ConflictWindow,
    ObjectConflictTracker,
    profiles_from_trace,
)
from repro.obs.events import (
    CascadeAborted,
    CommitWaited,
    DeadlockResolved,
    DependencyRecorded,
    ObjectRegistered,
    OpBlocked,
    OpGranted,
    OpRequested,
    RunCompleted,
    RunStarted,
    SpanRecorded,
    StageTimed,
    TraceEvent,
    TxnAborted,
    TxnBegun,
    TxnCommitted,
    event_from_dict,
)
from repro.obs.latency import LatencyRecorder, latency_from_trace
from repro.obs.latency import Histogram as LatencyHistogram
from repro.obs.profiling import DerivationProfile, StageProfile, StageProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    publish_counters,
)
from repro.obs.spans import (
    NULL_SPAN,
    SpanEmitter,
    SpanForest,
    SpanNode,
    build_span_trees,
    critical_path,
    render_critical_path,
    trace_id_for,
)
from repro.obs.tracers import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
    read_trace,
)

__all__ = [
    # events
    "TraceEvent",
    "RunStarted",
    "ObjectRegistered",
    "TxnBegun",
    "OpRequested",
    "OpGranted",
    "OpBlocked",
    "DependencyRecorded",
    "CommitWaited",
    "TxnCommitted",
    "TxnAborted",
    "CascadeAborted",
    "DeadlockResolved",
    "StageTimed",
    "SpanRecorded",
    "RunCompleted",
    "event_from_dict",
    # tracers
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RecordingTracer",
    "JsonlTracer",
    "read_trace",
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "publish_counters",
    # profiling
    "StageProfile",
    "DerivationProfile",
    "StageProfiler",
    # analysis
    "parse_literal",
    "EntryFiring",
    "firing_histogram",
    "transaction_timeline",
    "TraceSummary",
    "summarize",
    "history_from_trace",
    "serializable_from_trace",
    "render_dashboard",
    # spans
    "NULL_SPAN",
    "SpanEmitter",
    "SpanForest",
    "SpanNode",
    "build_span_trees",
    "critical_path",
    "render_critical_path",
    "trace_id_for",
    # latency
    "LatencyHistogram",
    "LatencyRecorder",
    "latency_from_trace",
    # conflict
    "ConflictProfile",
    "ConflictWindow",
    "ObjectConflictTracker",
    "profiles_from_trace",
]
