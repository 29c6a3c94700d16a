"""Unified observability layer: span tracing, metrics, sinks, progress.

The ``repro.obs`` package is the one instrumentation substrate shared by
all six engines (``bitset``, ``naive``, ``bdd``, ``bmc``, ``ic3``,
``portfolio``), the kripke/bdd/sat cores, the worker runtime
(``repro.runtime``), the CLI, and the repo benchmark (``perfbench/``):

``repro.obs.trace``
    Nested span tracing on the monotonic nanosecond clock
    (:func:`time.perf_counter_ns`).  Disabled by default with a strict
    no-op fast path, so instrumented hot paths pay one global load and
    an ``is None`` test per span.

``repro.obs.metrics``
    A process-global :class:`~repro.obs.metrics.MetricsRegistry` of
    counters, gauges, and log-bucketed histograms with labeled series.
    Always on (updates happen at phase boundaries, never inside inner
    loops).

``repro.obs.sinks``
    The span exporter ``--trace`` uses, Chrome/Perfetto trace-event JSON
    (loadable in ``chrome://tracing`` or https://ui.perfetto.dev), an
    in-memory sink for tests, and the ``--metrics`` JSONL writer.

``repro.obs.progress``
    A rate-limited heartbeat reporter for long-running checks
    (IC3 frames reached, obligations pending, BMC depth k, BDD live
    nodes).

``repro.obs.collect``
    Cross-process telemetry collection: the
    :class:`~repro.obs.collect.TraceContext` the worker supervisor
    serialises into each forked worker, the worker-side buffering
    exporter, and the supervisor-side collector that re-parents worker
    spans into the live trace and merges worker metrics under a
    ``worker`` label.

``repro.obs.analyze``
    Offline trace analysis (the ``repro-obs`` console script): aggregate
    tables, critical path, portfolio loser autopsy, and run-vs-run diffs
    over the Perfetto documents ``--trace`` writes.

Naming conventions, sink formats, and a guided tour of an IC3 trace
live in ``docs/OBSERVABILITY.md``.  The package is dependency-free
(stdlib only) and must stay importable from every layer without
creating cycles: nothing in ``repro.obs`` may import from the rest of
``repro`` except the stdlib-only :mod:`repro._lazy`, through which this
``__init__`` loads each name below on first use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "REGISTRY": "metrics",
        "Counter": "metrics",
        "Gauge": "metrics",
        "Histogram": "metrics",
        "MetricsRegistry": "metrics",
        "counter": "metrics",
        "gauge": "metrics",
        "histogram": "metrics",
        "ProgressReporter": "progress",
        "disable_progress": "progress",
        "enable_progress": "progress",
        "heartbeat": "progress",
        "TelemetryCollector": "collect",
        "TraceContext": "collect",
        "WorkerTelemetry": "collect",
        "ChromeTraceSink": "sinks",
        "MemorySink": "sinks",
        "write_metrics_jsonl": "sinks",
        "SpanRecord": "trace",
        "Tracer": "trace",
        "clear_current_span": "trace",
        "current_span": "trace",
        "disable": "trace",
        "enable": "trace",
        "event": "trace",
        "get_tracer": "trace",
        "is_enabled": "trace",
        "monotonic_ns": "trace",
        "recording": "trace",
        "span": "trace",
    },
)

__all__ = [
    # trace
    "SpanRecord",
    "Tracer",
    "clear_current_span",
    "current_span",
    "disable",
    "enable",
    "event",
    "get_tracer",
    "is_enabled",
    "monotonic_ns",
    "recording",
    "span",
    # metrics
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    # sinks
    "ChromeTraceSink",
    "MemorySink",
    "write_metrics_jsonl",
    # collect
    "TelemetryCollector",
    "TraceContext",
    "WorkerTelemetry",
    # progress
    "ProgressReporter",
    "disable_progress",
    "enable_progress",
    "heartbeat",
]
