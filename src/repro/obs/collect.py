"""Cross-process telemetry collection: worker spans and metrics flow home.

A supervised worker process (:mod:`repro.runtime.supervisor`) is a
telemetry black hole by default: every span an engine opens and every
counter it bumps lives in the forked child's memory and dies with it.
This module is the bridge that carries that telemetry back over the
worker's existing result/progress pipe, in three pieces:

:class:`TraceContext`
    What the coordinator serialises into each worker launch: the parent
    tracer's trace id, the span that was open at capture time (for a
    portfolio race, the ``portfolio.race`` span), its depth, and whether
    tracing is enabled at all.  :meth:`TraceContext.capture` reads all of
    it from the ambient tracer state.

:class:`WorkerTelemetry`
    The worker-process side.  Installing it (the supervisor does this in
    the worker entry point) resets the forked metrics registry — the
    child inherited the parent's counts and must not re-report them —
    clears the inherited span context, and, while the current request's
    context says tracing is on, keeps a worker-local tracer whose single
    sink batches finished spans into ``("telemetry", ...)`` messages on
    the pipe.  ``flush()`` ships the remaining buffer and a
    :meth:`~repro.obs.metrics.MetricsRegistry.as_records` snapshot of the
    request's metrics; the supervisor calls it at the end of every request,
    on every exit path, before the terminal message, so cancelled and
    failing requests still report where their time went.
    Each telemetry payload is pickled and SHA-256-digested like the
    result payload (and garbled by the same chaos fault, when armed).

:class:`TelemetryCollector`
    The supervisor side.  Verifies each payload's digest, validates its
    structure, remaps worker-local span ids into the live tracer's id
    space, re-parents worker root spans under the captured parent span,
    and merges the worker's metrics snapshot into the coordinator's
    registry under a ``worker=<label>`` label.  Anything that fails
    verification — a flipped byte, a truncated pickle, a record missing
    fields — is *dropped and counted* (``obs.collect.dropped``), never
    ingested: corrupt telemetry must not poison the parent trace.

The package's no-cycle rule holds: this module imports only its obs
siblings, so the runtime layer can import it freely.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "TELEMETRY_BATCH_SPANS",
    "TraceContext",
    "RemoteSpanRecord",
    "WorkerTelemetry",
    "TelemetryCollector",
    "validate_span_dict",
]

#: Finished spans buffered worker-side before a batch ships.  Small enough
#: that a crashing worker loses at most one batch; large enough that a
#: span-heavy engine does not turn the pipe into a hot path.
TELEMETRY_BATCH_SPANS = 64


class TraceContext:
    """Trace id + parent span id, serialised into each worker launch."""

    __slots__ = ("trace_id", "parent_span_id", "parent_depth", "enabled")

    def __init__(
        self,
        trace_id: Optional[str] = None,
        parent_span_id: Optional[int] = None,
        parent_depth: int = -1,
        enabled: bool = False,
    ) -> None:
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.parent_depth = parent_depth
        self.enabled = enabled

    @classmethod
    def capture(cls) -> "TraceContext":
        """Snapshot the ambient tracer state at the launch site.

        With tracing disabled this still returns a (disabled) context —
        worker *metrics* flow back regardless, only spans need a tracer.
        """
        tracer = _trace.get_tracer()
        current = _trace.current_span()
        return cls(
            trace_id=None if tracer is None else tracer.trace_id,
            parent_span_id=None if current is None else current.span_id,
            parent_depth=-1 if current is None else current.depth,
            enabled=tracer is not None,
        )

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot in self.__slots__:
            setattr(self, slot, state[slot])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TraceContext(trace_id=%r, parent_span_id=%r, enabled=%r)" % (
            self.trace_id,
            self.parent_span_id,
            self.enabled,
        )


class RemoteSpanRecord:
    """A finished span ingested from a worker, in the parent's id space.

    Quacks like a finished :class:`~repro.obs.trace.SpanRecord` as far as
    sinks are concerned, plus the cross-process fields: the worker ``pid``
    (so the Perfetto sink renders it on the worker's own track) and the
    ``lane`` label (the racing engine's name).
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
        "pid",
        "lane",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        depth: int,
        start_ns: int,
        end_ns: int,
        attrs: Dict[str, Any],
        status: str,
        pid: int,
        lane: str,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.depth = depth
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.attrs = attrs
        self.status = status
        self.pid = pid
        self.lane = lane

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    def as_dict(self) -> Dict[str, Any]:
        """The wire-format view — a superset of the local span record's."""
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
            "pid": self.pid,
            "lane": self.lane,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RemoteSpanRecord(%r, id=%d, pid=%d, lane=%r)" % (
            self.name,
            self.span_id,
            self.pid,
            self.lane,
        )


def validate_span_dict(record: Any) -> bool:
    """Whether ``record`` is a structurally sound finished-span export.

    The collector runs every incoming span dict through this before
    touching the parent trace; telemetry is attacker-shaped data (a
    chaos-garbled pickle can decode to *anything* dict-like).
    """
    return (
        isinstance(record, dict)
        and isinstance(record.get("name"), str)
        and bool(record.get("name"))
        and isinstance(record.get("span_id"), int)
        and (record.get("parent_id") is None or isinstance(record["parent_id"], int))
        and isinstance(record.get("start_ns"), int)
        and isinstance(record.get("end_ns"), int)
        and record["end_ns"] >= record["start_ns"]
        and isinstance(record.get("status"), str)
        and isinstance(record.get("attrs"), dict)
    )


class _BufferSink:
    """The worker-local tracer's only sink: batch finished spans, ship."""

    def __init__(self, ship, batch_spans: int = TELEMETRY_BATCH_SPANS) -> None:
        self._ship = ship
        self._spans: List[Dict[str, Any]] = []
        self.batch_spans = batch_spans

    def on_span(self, record) -> None:
        self._spans.append(record.as_dict())
        if len(self._spans) >= self.batch_spans:
            self.flush()

    def on_event(self, record) -> None:
        # Instant events stay local: worker heartbeats already travel the
        # pipe as supervisor liveness messages and are ingested there.
        return None

    def flush(self) -> None:
        if self._spans:
            spans, self._spans = self._spans, []
            self._ship({"spans": spans})

    def close(self) -> None:
        self.flush()


class WorkerTelemetry:
    """Worker-process exporter: buffer spans, ship them plus metrics.

    ``conn`` is the worker's connection; telemetry messages are
    ``("telemetry", task_id, payload_bytes, sha256_hexdigest)`` tuples so
    the supervisor can verify integrity before unpickling, exactly like
    result payloads.  ``injector`` is the worker's chaos injector: an
    armed ``garble`` fault corrupts telemetry payloads too, which is what
    exercises the collector's drop path end to end.

    A long-lived worker serves many requests: :meth:`rearm` adopts each
    request's trace context and chaos injector, and :meth:`flush` ships
    everything the request produced before its result goes out.
    """

    def __init__(
        self,
        context: Optional[TraceContext],
        conn,
        task_id: str,
        injector=None,
        batch_spans: int = TELEMETRY_BATCH_SPANS,
    ) -> None:
        self._conn = conn
        self._task_id = task_id
        self._injector = injector
        self._batch_spans = batch_spans
        self._sink: Optional[_BufferSink] = None
        self._closed = False
        # The fork copied the parent's registry wholesale; reset it so the
        # first snapshot is this worker's own contribution, not a
        # double-count of everything the coordinator already recorded.
        _metrics.REGISTRY.reset()
        _trace.clear_current_span()
        # The inherited tracer (if any) writes to the parent's sinks — file
        # handles this process must not touch.
        _trace.disable()
        self.rearm(context, injector)

    def rearm(self, context: Optional[TraceContext], injector=None) -> None:
        """Adopt the next request's trace context and chaos injector.

        Tracing follows the context: a worker-local tracer records spans
        while the coordinator traces, and none does while it does not.
        """
        self._injector = injector
        enabled = context is not None and context.enabled
        if enabled and self._sink is None:
            self._sink = _BufferSink(self._ship, batch_spans=self._batch_spans)
            _trace.enable([self._sink], keep_records=False)
        elif not enabled and self._sink is not None:
            _trace.disable()
            self._sink = None

    def _ship(self, payload: Dict[str, Any]) -> None:
        payload = dict(payload)
        payload["pid"] = os.getpid()
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        if self._injector is not None and self._injector.should_garble():
            blob = self._injector.garble_payload(blob)
        try:
            self._conn.send(("telemetry", self._task_id, blob, digest))
        except (BrokenPipeError, OSError):
            pass  # supervisor gone; nothing left to report to

    def flush(self) -> None:
        """Ship buffered spans and the metrics recorded since the last flush.

        The worker calls it at the end of every request, on every exit
        path, *before* the terminal result/failure message — so a
        cancelled or budget-felled request still delivers its partial
        buffers (the loser-autopsy data ``repro-obs`` renders), and the
        next request's metrics start from zero.
        """
        if self._sink is not None:
            self._sink.flush()
        records = _metrics.REGISTRY.as_records()
        if records:
            _metrics.REGISTRY.reset()
            self._ship({"metrics": records})

    def close(self) -> None:
        """Final flush, then uninstall the worker tracer.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.flush()
        if self._sink is not None:
            _trace.disable()
            self._sink = None


class TelemetryCollector:
    """Supervisor-side ingestion: verify, validate, re-parent, merge.

    One collector serves one supervisor run.  Span ingestion targets
    whatever tracer is live at ingest time (none → spans are skipped,
    metrics still merge); metric merging targets ``registry`` (default:
    the process-global one).
    """

    def __init__(self, registry: Optional[_metrics.MetricsRegistry] = None) -> None:
        self._registry = _metrics.REGISTRY if registry is None else registry
        #: (label, worker pid) -> worker-local span id -> parent-space id.
        self._id_maps: Dict[Tuple[str, int], Dict[int, int]] = {}
        self.spans_ingested = 0
        self.series_merged = 0
        self.dropped = 0

    # -- bookkeeping -------------------------------------------------------
    def _drop(self, label: str, count: int = 1) -> None:
        self.dropped += count
        self._registry.counter("obs.collect.dropped", worker=label).inc(count)

    # -- ingestion ---------------------------------------------------------
    def ingest(
        self,
        label: str,
        context: Optional[TraceContext],
        blob: bytes,
        digest: str,
    ) -> bool:
        """Ingest one telemetry message; returns whether it was accepted.

        Rejection (digest mismatch, undecodable pickle, wrong shape) is
        counted and otherwise silent — a garbled batch costs its own data,
        never the run.
        """
        if not isinstance(blob, bytes) or hashlib.sha256(blob).hexdigest() != digest:
            self._drop(label)
            return False
        try:
            payload = pickle.loads(blob)
        # A garbled pickle can raise essentially anything; the drop (counted
        # in obs.collect.dropped) *is* the handling.
        except Exception:  # repro-lint: disable=R005
            self._drop(label)
            return False
        if not isinstance(payload, dict) or not isinstance(payload.get("pid"), int):
            self._drop(label)
            return False
        with _trace.span("obs.collect", worker=label) as sp:
            accepted = 0
            spans = payload.get("spans")
            if spans is not None:
                accepted += self._ingest_spans(label, context, payload["pid"], spans)
            records = payload.get("metrics")
            if records is not None:
                accepted += self._ingest_metrics(label, records)
            sp.set(accepted=accepted)
        self._registry.counter("obs.collect.batches", worker=label).inc()
        return True

    def _ingest_spans(
        self,
        label: str,
        context: Optional[TraceContext],
        pid: int,
        spans: Any,
    ) -> int:
        tracer = _trace.get_tracer()
        if tracer is None or context is None or not context.enabled:
            return 0
        if context.trace_id is not None and context.trace_id != tracer.trace_id:
            # Captured against a tracer that is no longer installed; the
            # span ids would be meaningless in this one.
            return 0
        if not isinstance(spans, list):
            self._drop(label)
            return 0
        id_map = self._id_maps.setdefault((label, pid), {})
        root_depth = context.parent_depth + 1
        count = 0
        valid = []
        for raw in spans:
            if validate_span_dict(raw):
                valid.append(raw)
            else:
                self._drop(label)
        # Spans arrive in *completion* order — children before the parents
        # that contain them.  Parents always *start* first, so sorting the
        # batch by start time maps each parent's id before its children
        # reference it.  (A parent still open when a mid-run batch ships is
        # genuinely absent; its children re-parent to the race span below.)
        valid.sort(key=lambda raw: raw["start_ns"])
        for raw in valid:
            new_id = tracer.allocate_span_id()
            id_map[raw["span_id"]] = new_id
            parent = raw.get("parent_id")
            mapped_parent = None if parent is None else id_map.get(parent)
            if mapped_parent is None:
                # A worker root span (or one whose parent we never saw —
                # e.g. lost to a crashed batch): hang it off the span that
                # was open at capture time, the portfolio.race span.
                mapped_parent = context.parent_span_id
            attrs = dict(raw["attrs"])
            attrs["worker"] = label
            tracer.ingest(
                RemoteSpanRecord(
                    span_id=new_id,
                    parent_id=mapped_parent,
                    name=raw["name"],
                    depth=root_depth + int(raw.get("depth") or 0),
                    start_ns=raw["start_ns"],
                    end_ns=raw["end_ns"],
                    attrs=attrs,
                    status=raw["status"],
                    pid=pid,
                    lane=label,
                )
            )
            count += 1
        if count:
            self.spans_ingested += count
            self._registry.counter("obs.collect.spans", worker=label).inc(count)
        return count

    def _ingest_metrics(self, label: str, records: Any) -> int:
        if not isinstance(records, list):
            self._drop(label)
            return 0
        merged, skipped = self._registry.merge_records(records, worker=label)
        if merged:
            self.series_merged += merged
            self._registry.counter("obs.collect.series", worker=label).inc(merged)
        if skipped:
            self._drop(label, skipped)
        return merged

    def ingest_heartbeat(
        self,
        label: str,
        pid: Optional[int],
        text: str,
        context: Optional[TraceContext],
    ) -> None:
        """Record a worker liveness heartbeat as an instant trace event.

        Timestamped at receipt (the worker's own clock reading is inside
        the free-form text) on the worker's lane, so heartbeat cadence is
        visible right on the Perfetto track that went quiet.
        """
        tracer = _trace.get_tracer()
        if tracer is None or context is None or not context.enabled:
            return
        tracer.ingest_event(
            {
                "kind": "event",
                "name": "worker.heartbeat",
                "ts_ns": _trace.monotonic_ns(),
                "parent_id": context.parent_span_id,
                "attrs": {"worker": label, "text": text},
                "pid": pid,
                "lane": label,
            }
        )
