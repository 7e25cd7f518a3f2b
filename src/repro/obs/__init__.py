"""Engine-wide observability: tracing spans, semiring-op metrics, EXPLAIN ANALYZE.

This package is the measurement substrate for the whole reproduction:

* :mod:`repro.obs.trace` -- a context-manager span tracer (nested spans,
  wall-clock timing, user attributes) with pluggable sinks and a no-op fast
  path that keeps the instrumented engine within the 5% tracing-off budget;
* :mod:`repro.obs.sinks` -- in-memory, JSONL-file and stderr sinks;
* :mod:`repro.obs.metrics` -- semiring-op counters (:class:`OpCounter`),
  circuit hash-consing statistics (:data:`consing`) and knowledge-compilation
  counters (:data:`compilation`);
* :mod:`repro.obs.semiring` -- :class:`InstrumentedSemiring`, an
  annotation-identical counting wrapper for any registry semiring;
* :mod:`repro.obs.explain` -- ``explain_analyze``: run a query on the
  executor ``Query.evaluate`` picks (column kernels or row pipeline) and
  render the operators that ran, annotated with actual rows, timings and
  per-node semiring-op counts.

``explain`` lives behind a lazy import because it depends on the planner and
the execution engine; everything exported here eagerly is stdlib-plus-base.
"""

from __future__ import annotations

from repro.obs.metrics import CompileStats, ConsingStats, OpCounter, compilation, consing
from repro.obs.semiring import InstrumentedSemiring, instrument
from repro.obs.sinks import InMemorySink, JsonlSink, StderrSink
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanRecord,
    active_sinks,
    add_sink,
    disable,
    enable,
    enabled,
    remove_sink,
    span,
    tracing,
)

from repro.obs.trace import _enable_from_environment

# REPRO_TRACE activation happens here, after every obs module has loaded
# (the sinks need the trace record type, so trace.py cannot do it itself).
_enable_from_environment()

__all__ = [
    "CompileStats",
    "ConsingStats",
    "OpCounter",
    "compilation",
    "consing",
    "InstrumentedSemiring",
    "instrument",
    "InMemorySink",
    "JsonlSink",
    "StderrSink",
    "NOOP_SPAN",
    "Span",
    "SpanRecord",
    "active_sinks",
    "add_sink",
    "disable",
    "enable",
    "enabled",
    "remove_sink",
    "span",
    "tracing",
    "explain_analyze",
    "ExplainAnalyzeReport",
]


def __getattr__(name: str):
    if name in ("explain_analyze", "ExplainAnalyzeReport", "ExecutionObserver", "NodeStats"):
        from repro.obs import explain as _explain

        return getattr(_explain, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
