"""Span/metric exporters: the Perfetto trace document and the metrics JSONL.

Sinks attach to a :class:`repro.obs.trace.Tracer` and receive each span
as it finishes (``on_span``) and each instant event as it fires
(``on_event``); ``close()`` flushes whatever the format buffers.

:class:`ChromeTraceSink`
    The one trace format ``--trace`` writes and ``repro-obs`` reads: a
    Chrome trace-event document (``{"traceEvents": [...]}`` with
    complete ``"ph": "X"`` events in microseconds), loadable in
    ``chrome://tracing`` and https://ui.perfetto.dev.  Records that
    carry a ``pid``/``lane`` (re-parented worker spans from
    :mod:`repro.obs.collect`) land on their own process track, labelled
    with the engine name via metadata events, so a portfolio race renders
    as one coherent multi-process timeline.  ``docs/OBSERVABILITY.md``
    walks through reading an IC3 trace and a portfolio race.

:class:`MemorySink`
    Plain lists, for tests.

:func:`write_metrics_jsonl` writes the registry as the ``--metrics`` file.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "MemorySink",
    "ChromeTraceSink",
    "write_metrics_jsonl",
]


class MemorySink:
    """Collects records in memory (tests and programmatic consumers)."""

    def __init__(self) -> None:
        self.spans: List[Any] = []
        self.events: List[Dict[str, Any]] = []
        self.closed = False

    def on_span(self, record) -> None:
        self.spans.append(record)

    def on_event(self, record) -> None:
        self.events.append(record)

    def close(self) -> None:
        self.closed = True


class ChromeTraceSink:
    """Chrome/Perfetto trace-event JSON (written as one document on close).

    Spans become complete events (``"ph": "X"``) with microsecond
    ``ts``/``dur``, so the viewer renders the nesting as a flame graph;
    instant events become ``"ph": "i"`` marks.  Each event's ``args``
    carry the span's attributes plus its ``span_id``/``parent_id`` (the
    exact tree, so ``repro-obs`` never has to guess nesting from
    containment) and a non-``"ok"`` ``status``.

    Multi-process lanes: a record carrying a ``pid`` attribute (worker
    spans re-parented by :class:`repro.obs.collect.TelemetryCollector`)
    keeps that pid; everything else resolves ``os.getpid()`` *per event*
    — a sink inherited across ``fork()`` must never stamp the parent's
    pid on a child's events.  Records with a ``lane`` (the worker's
    engine name) get Perfetto ``"M"`` metadata events naming their
    process and thread tracks; the coordinator's lane is labelled
    ``coordinator`` and sorts first.
    """

    def __init__(self, target: Union[str, "os.PathLike", Any]):
        # A path is opened on close() and closed again; a caller-owned
        # stream is written to and left open.
        self._target = target
        self._trace_events: List[Dict[str, Any]] = []
        #: pid -> lane label (None until a labelled record names it).
        self._lanes: Dict[int, Optional[str]] = {}

    def _resolve_track(self, record_pid, lane) -> int:
        pid = os.getpid() if record_pid is None else record_pid
        if lane is not None or pid not in self._lanes:
            self._lanes[pid] = lane if lane is not None else self._lanes.get(pid)
        return pid

    def on_span(self, record) -> None:
        pid = self._resolve_track(
            getattr(record, "pid", None), getattr(record, "lane", None)
        )
        args = _json_clean(record.attrs)
        args["span_id"] = record.span_id
        args["parent_id"] = record.parent_id
        if record.status != "ok":
            args["status"] = record.status
        self._trace_events.append(
            {
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ph": "X",
                "ts": record.start_ns / 1000.0,
                "dur": record.duration_ns / 1000.0,
                "pid": pid,
                "tid": 1,
                "args": args,
            }
        )

    def on_event(self, record) -> None:
        pid = self._resolve_track(record.get("pid"), record.get("lane"))
        self._trace_events.append(
            {
                "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "ph": "i",
                "s": "t",
                "ts": record["ts_ns"] / 1000.0,
                "pid": pid,
                "tid": 1,
                "args": _json_clean(record["attrs"]),
            }
        )

    def _metadata_events(self) -> List[Dict[str, Any]]:
        """Process/thread naming events, coordinator first, workers after."""
        events: List[Dict[str, Any]] = []
        sort_index = 0
        for pid in sorted(self._lanes, key=lambda p: (self._lanes[p] is not None, p)):
            lane = self._lanes[pid]
            process_name = "coordinator" if lane is None else "worker:%s" % lane
            thread_name = "main" if lane is None else lane
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": process_name},
                }
            )
            events.append(
                {
                    "name": "process_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "args": {"sort_index": sort_index},
                }
            )
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 1,
                    "args": {"name": thread_name},
                }
            )
            sort_index += 1
        return events

    def close(self) -> None:
        # Viewers sort by ts, but emit in time order anyway for diffability.
        self._trace_events.sort(key=lambda e: e["ts"])
        document = {
            "traceEvents": self._metadata_events() + self._trace_events,
            "displayTimeUnit": "ms",
        }
        text = json.dumps(document) + "\n"
        if hasattr(self._target, "write"):
            self._target.write(text)
        else:
            with open(os.fspath(self._target), "w") as handle:
                handle.write(text)


def _json_clean(value):
    """Best-effort conversion of span attrs to JSON-serialisable values."""
    if isinstance(value, dict):
        return {str(k): _json_clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_clean(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def write_metrics_jsonl(registry, target, extra: Optional[Dict[str, Any]] = None) -> int:
    """Write one JSONL row per registry series (the ``--metrics`` file).

    Each row is ``{"kind", "name", "labels", "value"}``; ``extra`` keys
    are merged into every row (run identity: engine, system, size).
    Returns the number of rows written.
    """
    records = registry.as_records()
    if hasattr(target, "write"):
        handle, owns = target, False
    else:
        handle, owns = open(os.fspath(target), "w"), True
    try:
        for record in records:
            if extra:
                merged = dict(extra)
                merged.update(record)
                record = merged
            handle.write(json.dumps(_json_clean(record), sort_keys=True) + "\n")
    finally:
        if owns:
            handle.close()
    return len(records)
