"""Nested span tracing on the monotonic nanosecond clock.

A *span* is a named, attributed interval of wall-clock time measured
with :func:`time.perf_counter_ns` (monotonic, immune to NTP clock
adjustments).  Spans nest: the currently open span is tracked in a
:class:`contextvars.ContextVar`, so a span opened inside another span
records it as its parent, and exporters can rebuild the full call tree.

Tracing is **disabled by default** and the disabled path is a strict
no-op: :func:`span` performs one module-global load, one ``is None``
test, and returns a shared singleton whose ``__enter__``/``__exit__``
do nothing.  That is the entire cost instrumented hot paths pay, which
is what lets the fixpoint engines and the CDCL solver carry spans
without a measurable slowdown (guarded by
``tests/integration/test_timing_floors.py``).

Enable tracing with :func:`enable` (optionally passing sinks from
:mod:`repro.obs.sinks`) or the :func:`recording` context manager::

    with recording() as tracer:
        with span("mc.check", engine="bdd"):
            ...
    tracer.records[0].name  # "mc.check"

Span and attribute naming conventions are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import time
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional, Sequence

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "event",
    "enable",
    "disable",
    "is_enabled",
    "get_tracer",
    "current_span",
    "clear_current_span",
    "monotonic_ns",
    "recording",
]


def monotonic_ns() -> int:
    """The obs-sanctioned monotonic clock read (:func:`time.perf_counter_ns`).

    The rest of the library is forbidden from reading wall clocks directly
    (lint rule R002 — see ``docs/CORRECTNESS.md``); code outside ``obs/``
    that needs a deadline or rate limit (the runtime's resource budgets,
    the worker supervisor) goes through this one function so every timing
    source in the process is the same monotonic clock the spans use.
    """
    return time.perf_counter_ns()

#: The currently open span (or ``None`` at top level).  A ContextVar so
#: that nesting survives generators/coroutines, not just call stacks.
_CURRENT: ContextVar[Optional["SpanRecord"]] = ContextVar(
    "repro_obs_current_span", default=None
)


class SpanRecord:
    """One traced interval: name, attributes, parentage, and timestamps.

    ``start_ns``/``end_ns`` are :func:`time.perf_counter_ns` readings;
    only differences between them are meaningful.  ``status`` is
    ``"ok"`` for a clean exit and ``"error:<ExceptionType>"`` when the
    span body raised (the exception always propagates — tracing never
    swallows errors).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "depth",
        "start_ns",
        "end_ns",
        "attrs",
        "status",
        "_tracer",
        "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self.name = name
        self.depth = 0
        self.start_ns = 0
        self.end_ns: Optional[int] = None
        self.attrs = attrs
        self.status = "ok"
        self._token = None

    @property
    def duration_ns(self) -> int:
        """Nanoseconds from enter to exit (0 while still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        """Seconds from enter to exit (0.0 while still open)."""
        return self.duration_ns / 1e9

    def set(self, **attrs: Any) -> "SpanRecord":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "SpanRecord":
        parent = _CURRENT.get()
        if parent is not None:
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
        self._token = _CURRENT.set(self)
        self.start_ns = self._tracer._clock_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = self._tracer._clock_ns()
        if exc_type is not None:
            self.status = "error:%s" % exc_type.__name__
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self._tracer._finish(self)
        return False  # never swallow the exception

    def as_dict(self) -> Dict[str, Any]:
        """The worker telemetry wire format: a plain JSON-serialisable view.

        ``pid`` is resolved at call time, not at span creation — a span
        record serialised after a ``fork()`` must carry the process that
        exported it, which is what the cross-process collector keys on.
        """
        return {
            "kind": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "dur_ns": self.duration_ns,
            "status": self.status,
            "attrs": self.attrs,
            "pid": os.getpid(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SpanRecord(%r, id=%d, parent=%r, dur=%.6fs, attrs=%r)" % (
            self.name,
            self.span_id,
            self.parent_id,
            self.duration_s,
            self.attrs,
        )


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class Tracer:
    """Collects finished spans and instant events, fanning out to sinks.

    ``keep_records`` (default true) keeps every finished span in
    :attr:`records` (and instant events in :attr:`events`) for
    programmatic use; sinks additionally receive each record as it
    finishes.  ``clock_ns`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        sinks: Sequence[Any] = (),
        keep_records: bool = True,
        clock_ns=time.perf_counter_ns,
        trace_id: Optional[str] = None,
    ):
        self.sinks = list(sinks)
        self.keep_records = keep_records
        self.records: list = []
        self.events: list = []
        #: Identifies this tracer's id space across processes: a worker's
        #: telemetry is only re-parented into the tracer whose trace id it
        #: was captured against (see :mod:`repro.obs.collect`).
        if trace_id is None:
            import uuid  # only a traced run pays for uuid (and its platform import)

            trace_id = uuid.uuid4().hex[:16]
        self.trace_id = trace_id
        self._ids = itertools.count(1)
        self._clock_ns = clock_ns

    def span(self, name: str, attrs: Dict[str, Any]) -> SpanRecord:
        return SpanRecord(self, name, attrs)

    def event(self, name: str, attrs: Dict[str, Any]) -> Dict[str, Any]:
        parent = _CURRENT.get()
        record = {
            "kind": "event",
            "name": name,
            "ts_ns": self._clock_ns(),
            "parent_id": None if parent is None else parent.span_id,
            "attrs": attrs,
        }
        if self.keep_records:
            self.events.append(record)
        for sink in self.sinks:
            sink.on_event(record)
        return record

    def _finish(self, record: SpanRecord) -> None:
        if self.keep_records:
            self.records.append(record)
        for sink in self.sinks:
            sink.on_span(record)

    # -- cross-process ingestion -------------------------------------------
    def allocate_span_id(self) -> int:
        """Claim a fresh span id from this tracer's id space.

        The telemetry collector remaps worker-local span ids through this
        so re-parented remote spans can never collide with local ones.
        """
        return next(self._ids)

    def ingest(self, record: Any) -> None:
        """Adopt an already-finished foreign span (a worker's, re-parented).

        The record must quack like a finished :class:`SpanRecord` (name,
        span_id, parent_id, start_ns/end_ns, attrs, status); it is fanned
        out to the sinks exactly like a locally finished span.
        """
        if self.keep_records:
            self.records.append(record)
        for sink in self.sinks:
            sink.on_span(record)

    def ingest_event(self, record: Dict[str, Any]) -> None:
        """Adopt a foreign instant event (a worker heartbeat, say)."""
        if self.keep_records:
            self.events.append(record)
        for sink in self.sinks:
            sink.on_event(record)

    def close(self) -> None:
        """Flush and close every attached sink."""
        for sink in self.sinks:
            sink.close()

    # -- convenience views -------------------------------------------------
    def span_names(self) -> list:
        """The names of all finished spans, in completion order."""
        return [record.name for record in self.records]

    def find(self, name: str) -> list:
        """All finished spans with exactly this name."""
        return [record for record in self.records if record.name == name]


#: The installed tracer, or ``None`` while tracing is disabled.  Module
#: global on purpose: the disabled fast path must be a single load.
_tracer: Optional[Tracer] = None


def span(name: str, **attrs: Any):
    """Open a traced interval: ``with span("ic3.frame", k=3): ...``.

    While tracing is disabled this returns a shared no-op context
    manager — near-zero cost, safe in hot loops.
    """
    tracer = _tracer
    if tracer is None:
        return _NOOP
    return tracer.span(name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record an instant event (e.g. a GC run) at the current position."""
    tracer = _tracer
    if tracer is None:
        return
    tracer.event(name, attrs)


def enable(
    sinks: Sequence[Any] = (),
    keep_records: bool = True,
    clock_ns=time.perf_counter_ns,
) -> Tracer:
    """Install (and return) a fresh tracer; spans start recording."""
    global _tracer
    _tracer = Tracer(sinks=sinks, keep_records=keep_records, clock_ns=clock_ns)
    return _tracer


def disable() -> Optional[Tracer]:
    """Uninstall the tracer (if any) and return it, sinks *not* closed.

    The caller owns sink shutdown (:meth:`Tracer.close`), so a CLI can
    disable tracing first and still write its trace file afterwards.
    """
    global _tracer
    tracer, _tracer = _tracer, None
    return tracer


def is_enabled() -> bool:
    """Whether a tracer is currently installed."""
    return _tracer is not None


def get_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` while disabled."""
    return _tracer


def current_span():
    """The innermost open span, or ``None`` (also ``None`` when disabled)."""
    return _CURRENT.get()


def clear_current_span() -> None:
    """Reset span parentage to top level (the post-``fork()`` hygiene call).

    A forked worker inherits the parent's context-var stack, so without
    this its first span would claim the *parent process's* open span as
    its parent — in a foreign id space.  Worker telemetry installation
    clears the stack so worker span trees are rooted locally and the
    collector controls re-parenting explicitly.
    """
    _CURRENT.set(None)


@contextlib.contextmanager
def recording(
    sinks: Sequence[Any] = (), clock_ns=time.perf_counter_ns
) -> Iterator[Tracer]:
    """Enable tracing for the duration of a ``with`` block (test helper).

    Restores the previously installed tracer (usually none) on exit and
    closes the sinks passed in.
    """
    global _tracer
    previous = _tracer
    tracer = Tracer(sinks=sinks, keep_records=True, clock_ns=clock_ns)
    _tracer = tracer
    try:
        yield tracer
    finally:
        _tracer = previous
        tracer.close()
