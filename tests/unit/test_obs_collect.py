"""Unit tests for cross-process telemetry collection (repro.obs.collect).

Two layers: pure in-process tests of the context/buffer/collector pieces
(with hand-built payloads, including hostile ones — a chaos-garbled
pickle can decode to anything), and fork-based end-to-end tests through
the real :class:`~repro.runtime.supervisor.Supervisor` pinning the
properties the portfolio relies on: worker spans land under the span
that was open at launch, partial buffers survive crashes and
cancellation, and corrupt telemetry is dropped without poisoning the
parent trace.  Worker functions are module-level (pickled by reference
under the fork start method) and pin ``chaos=ChaosConfig()`` so the CI
chaos lane cannot perturb them.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time

import pytest

from repro.obs import trace as trace_module
from repro.obs.collect import (
    TELEMETRY_BATCH_SPANS,
    RemoteSpanRecord,
    TelemetryCollector,
    TraceContext,
    WorkerTelemetry,
    _BufferSink,
    validate_span_dict,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry, counter
from repro.obs.trace import recording, span
from repro.runtime.chaos import ChaosConfig
from repro.runtime.limits import checkpoint
from repro.runtime.supervisor import Supervisor, WorkerTask

#: Forces chaos off inside workers even when REPRO_CHAOS is exported.
_NO_CHAOS = ChaosConfig()


@pytest.fixture(autouse=True)
def _clean_obs_state():
    REGISTRY.reset()
    yield
    REGISTRY.reset()
    trace_module.disable()
    trace_module.clear_current_span()


# -- TraceContext ----------------------------------------------------------


def test_capture_without_tracer_is_disabled():
    context = TraceContext.capture()
    assert not context.enabled
    assert context.trace_id is None
    assert context.parent_span_id is None
    assert context.parent_depth == -1


def test_capture_snapshots_tracer_and_open_span():
    with recording() as tracer:
        with span("portfolio.race") as race:
            context = TraceContext.capture()
    assert context.enabled
    assert context.trace_id == tracer.trace_id
    assert context.parent_span_id == race.span_id
    assert context.parent_depth == race.depth


def test_trace_context_pickles_across_the_fork_boundary():
    context = TraceContext(
        trace_id="cafe", parent_span_id=9, parent_depth=2, enabled=True
    )
    clone = pickle.loads(pickle.dumps(context))
    assert clone.trace_id == "cafe"
    assert clone.parent_span_id == 9
    assert clone.parent_depth == 2
    assert clone.enabled


# -- validate_span_dict ----------------------------------------------------


def _span_dict(span_id, parent_id, name, start, end, status="ok", **attrs):
    return {
        "kind": "span",
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "depth": 0,
        "start_ns": start,
        "end_ns": end,
        "dur_ns": end - start,
        "status": status,
        "attrs": attrs,
    }


def test_validate_span_dict_accepts_a_sound_record():
    assert validate_span_dict(_span_dict(1, None, "mc.check", 10, 20))
    assert validate_span_dict(_span_dict(2, 1, "sat.solve", 10, 10))


@pytest.mark.parametrize(
    "mutation",
    [
        {"name": ""},
        {"name": 7},
        {"span_id": "1"},
        {"parent_id": "root"},
        {"start_ns": 1.5},
        {"end_ns": 5},  # ends before start_ns=10
        {"status": None},
        {"attrs": [("k", "v")]},
    ],
)
def test_validate_span_dict_rejects_malformed_records(mutation):
    record = _span_dict(1, None, "mc.check", 10, 20)
    record.update(mutation)
    assert not validate_span_dict(record)


def test_validate_span_dict_rejects_non_dicts():
    assert not validate_span_dict(None)
    assert not validate_span_dict(["span"])
    assert not validate_span_dict("span")


# -- _BufferSink -----------------------------------------------------------


class _FakeRecord:
    def __init__(self, name):
        self.name = name

    def as_dict(self):
        return {"name": self.name}


def test_buffer_sink_ships_full_batches_then_flushes_the_rest():
    shipped = []
    sink = _BufferSink(shipped.append, batch_spans=2)
    sink.on_span(_FakeRecord("a"))
    assert shipped == []  # below the batch threshold
    sink.on_span(_FakeRecord("b"))
    assert [s["name"] for s in shipped[0]["spans"]] == ["a", "b"]
    sink.on_event({"name": "heartbeat"})  # events never buffer or ship
    sink.on_span(_FakeRecord("c"))
    sink.close()
    assert [s["name"] for s in shipped[1]["spans"]] == ["c"]
    sink.close()  # nothing buffered: no empty batch
    assert len(shipped) == 2


# -- WorkerTelemetry -------------------------------------------------------


class _FakeConn:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


class _DeadConn:
    def send(self, message):
        raise BrokenPipeError


def test_worker_telemetry_ships_span_batches_and_final_metrics():
    conn = _FakeConn()
    context = TraceContext(
        trace_id="cafe", parent_span_id=7, parent_depth=0, enabled=True
    )
    telemetry = WorkerTelemetry(context, conn, "t", batch_spans=2)
    with span("a"):
        pass
    with span("b"):
        pass
    with span("c"):
        pass
    counter("collect.test.events").inc(3)
    telemetry.close()
    telemetry.close()  # idempotent: no duplicate final snapshot
    assert [m[0] for m in conn.sent] == ["telemetry"] * 3
    for _, task_id, blob, digest in conn.sent:
        assert task_id == "t"
        assert hashlib.sha256(blob).hexdigest() == digest
    first, second, final = [pickle.loads(m[2]) for m in conn.sent]
    assert all(p["pid"] == os.getpid() for p in (first, second, final))
    assert [s["name"] for s in first["spans"]] == ["a", "b"]
    assert [s["name"] for s in second["spans"]] == ["c"]
    assert {r["name"] for r in final["metrics"]} == {"collect.test.events"}
    # close() uninstalled the worker tracer.
    assert not trace_module.is_enabled()


def test_worker_telemetry_with_disabled_context_silences_tracing():
    trace_module.enable([])  # the tracer a forked child would inherit
    conn = _FakeConn()
    telemetry = WorkerTelemetry(TraceContext(), conn, "t")
    # The inherited tracer writes to the parent's sinks; it must be gone.
    assert not trace_module.is_enabled()
    with span("invisible"):
        pass
    telemetry.close()
    assert conn.sent == []  # no spans recorded, registry empty


def test_worker_telemetry_survives_a_dead_supervisor_pipe():
    context = TraceContext(trace_id="cafe", parent_span_id=1, enabled=True)
    telemetry = WorkerTelemetry(context, _DeadConn(), "t", batch_spans=1)
    with span("a"):
        pass  # batch of one ships immediately into the broken pipe
    counter("collect.test.events").inc()
    telemetry.close()  # must not raise


# -- TelemetryCollector ----------------------------------------------------


def _blob(payload):
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return blob, hashlib.sha256(blob).hexdigest()


def _context_for(tracer, parent):
    return TraceContext(
        trace_id=tracer.trace_id,
        parent_span_id=parent.span_id,
        parent_depth=parent.depth,
        enabled=True,
    )


def test_collector_rejects_digest_mismatch():
    registry = MetricsRegistry()
    collector = TelemetryCollector(registry=registry)
    blob, _ = _blob({"pid": 1, "metrics": []})
    assert not collector.ingest("bmc", None, blob, "0" * 64)
    assert not collector.ingest("bmc", None, "not-bytes", "0" * 64)
    assert collector.dropped == 2
    assert registry.snapshot()["obs.collect.dropped{worker=bmc}"] == 2


def test_collector_rejects_undecodable_and_misshapen_payloads():
    registry = MetricsRegistry()
    collector = TelemetryCollector(registry=registry)
    garbage = b"\x80\x04 definitely not a pickle"
    assert not collector.ingest(
        "bmc", None, garbage, hashlib.sha256(garbage).hexdigest()
    )
    for payload in (["spans"], {"spans": []}, {"pid": "4"}):
        blob, digest = _blob(payload)
        assert not collector.ingest("bmc", None, blob, digest)
    assert collector.dropped == 4
    assert collector.spans_ingested == 0


def test_collector_reparents_worker_spans_under_the_captured_parent():
    registry = MetricsRegistry()
    collector = TelemetryCollector(registry=registry)
    with recording() as tracer:
        with span("portfolio.race") as race:
            context = _context_for(tracer, race)
            # Completion order: the child finishes before its parent.
            blob, digest = _blob(
                {
                    "pid": 4242,
                    "spans": [
                        _span_dict(2, 1, "sat.solve", 20, 30),
                        _span_dict(1, None, "mc.check", 10, 40, engine="bmc"),
                    ],
                }
            )
            assert collector.ingest("bmc", context, blob, digest)
    remote = [r for r in tracer.records if isinstance(r, RemoteSpanRecord)]
    outer = next(r for r in remote if r.name == "mc.check")
    inner = next(r for r in remote if r.name == "sat.solve")
    # The worker root hangs off the race span; the child off its parent —
    # despite arriving first, thanks to the start-time sort.
    assert outer.parent_id == race.span_id
    assert inner.parent_id == outer.span_id
    assert outer.span_id != 1  # remapped into the parent tracer's id space
    assert outer.pid == inner.pid == 4242
    assert outer.lane == inner.lane == "bmc"
    assert outer.attrs == {"engine": "bmc", "worker": "bmc"}
    assert collector.spans_ingested == 2
    assert registry.snapshot()["obs.collect.spans{worker=bmc}"] == 2
    # The ingestion itself was traced on the coordinator's own lane.
    assert any(r.name == "obs.collect" for r in tracer.records)


def test_collector_ingests_a_full_batch_finished_leaf_first():
    """One worker batch of 64 spans, a nested chain in completion order.

    The worst case for the re-parenting pass, which must sort by start
    time before any child can reference its parent's remapped id.
    """
    spans = []
    for i in range(TELEMETRY_BATCH_SPANS):
        record = _span_dict(
            i + 1, i or None, "sat.solve", 10 * (i + 1),
            10 * (2 * TELEMETRY_BATCH_SPANS + 1) - 10 * i, k=i,
        )
        record["depth"] = i
        spans.append(record)
    blob, digest = _blob({"pid": 4242, "spans": spans[::-1]})
    collector = TelemetryCollector(registry=MetricsRegistry())
    trace_module.enable([], keep_records=False)  # fan out to no sinks, keep nothing
    with span("portfolio.race") as race:
        context = TraceContext.capture()
        assert context.enabled and context.parent_span_id == race.span_id
        assert collector.ingest("bmc", context, blob, digest)
    assert collector.dropped == 0
    assert collector.spans_ingested >= TELEMETRY_BATCH_SPANS


def test_collector_id_map_spans_batches_from_the_same_worker():
    collector = TelemetryCollector(registry=MetricsRegistry())
    with recording() as tracer:
        with span("portfolio.race") as race:
            context = _context_for(tracer, race)
            first, digest1 = _blob(
                {"pid": 7, "spans": [_span_dict(1, None, "mc.check", 10, 40)]}
            )
            second, digest2 = _blob(
                {"pid": 7, "spans": [_span_dict(2, 1, "ic3.frame", 50, 60)]}
            )
            collector.ingest("ic3", context, first, digest1)
            collector.ingest("ic3", context, second, digest2)
    remote = [r for r in tracer.records if isinstance(r, RemoteSpanRecord)]
    outer = next(r for r in remote if r.name == "mc.check")
    later = next(r for r in remote if r.name == "ic3.frame")
    assert later.parent_id == outer.span_id


def test_collector_reparents_orphans_to_the_race_span():
    collector = TelemetryCollector(registry=MetricsRegistry())
    with recording() as tracer:
        with span("portfolio.race") as race:
            context = _context_for(tracer, race)
            # Parent id 99 was never shipped (lost with a crashed batch).
            blob, digest = _blob(
                {"pid": 7, "spans": [_span_dict(3, 99, "sat.solve", 10, 20)]}
            )
            collector.ingest("bmc", context, blob, digest)
    [orphan] = [r for r in tracer.records if isinstance(r, RemoteSpanRecord)]
    assert orphan.parent_id == race.span_id


def test_collector_skips_spans_captured_against_a_foreign_tracer():
    registry = MetricsRegistry()
    collector = TelemetryCollector(registry=registry)
    context = TraceContext(
        trace_id="feedface00000000", parent_span_id=1, parent_depth=0, enabled=True
    )
    source = MetricsRegistry()
    source.counter("sat.conflicts").inc(5)
    blob, digest = _blob(
        {
            "pid": 7,
            "spans": [_span_dict(1, None, "mc.check", 10, 40)],
            "metrics": source.as_records(),
        }
    )
    with recording() as tracer:  # fresh tracer: trace ids cannot match
        assert collector.ingest("bmc", context, blob, digest)
        assert not any(isinstance(r, RemoteSpanRecord) for r in tracer.records)
    # Metrics still merge — they are not tied to a tracer's id space.
    assert collector.spans_ingested == 0
    assert collector.series_merged == 1
    assert registry.snapshot()["sat.conflicts{worker=bmc}"] == 5


def test_collector_drops_invalid_span_records_but_keeps_the_valid():
    registry = MetricsRegistry()
    collector = TelemetryCollector(registry=registry)
    with recording() as tracer:
        with span("portfolio.race") as race:
            context = _context_for(tracer, race)
            blob, digest = _blob(
                {
                    "pid": 7,
                    "spans": [
                        {"anything": "dict-like"},
                        _span_dict(1, None, "mc.check", 10, 40),
                        _span_dict(2, None, "", 10, 40),  # empty name
                    ],
                }
            )
            assert collector.ingest("bmc", context, blob, digest)
    remote = [r for r in tracer.records if isinstance(r, RemoteSpanRecord)]
    assert [r.name for r in remote] == ["mc.check"]
    assert collector.dropped == 2
    assert registry.snapshot()["obs.collect.dropped{worker=bmc}"] == 2


def test_collector_merges_metrics_and_counts_skipped_records():
    registry = MetricsRegistry()
    collector = TelemetryCollector(registry=registry)
    source = MetricsRegistry()
    source.counter("sat.conflicts", engine="bmc").inc(7)
    records = source.as_records()
    records.append({"kind": "unknown", "name": "x", "labels": {}, "value": 0})
    blob, digest = _blob({"pid": 7, "metrics": records})
    assert collector.ingest("bmc", None, blob, digest)
    assert collector.series_merged == 1
    assert collector.dropped == 1
    snapshot = registry.snapshot()
    assert snapshot["sat.conflicts{engine=bmc,worker=bmc}"] == 7
    assert snapshot["obs.collect.series{worker=bmc}"] == 1
    assert snapshot["obs.collect.batches{worker=bmc}"] == 1


def test_collector_heartbeat_becomes_an_instant_event_on_the_worker_lane():
    collector = TelemetryCollector(registry=MetricsRegistry())
    with recording() as tracer:
        with span("portfolio.race") as race:
            context = _context_for(tracer, race)
            collector.ingest_heartbeat("bmc", 4242, "[progress] depth=3", context)
    [beat] = [e for e in tracer.events if e["name"] == "worker.heartbeat"]
    assert beat["parent_id"] == race.span_id
    assert beat["attrs"] == {"worker": "bmc", "text": "[progress] depth=3"}
    assert beat["pid"] == 4242
    assert beat["lane"] == "bmc"


def test_collector_heartbeat_is_a_noop_without_a_tracer():
    collector = TelemetryCollector(registry=MetricsRegistry())
    collector.ingest_heartbeat("bmc", 4242, "text", TraceContext(enabled=True))
    collector.ingest_heartbeat("bmc", 4242, "text", None)


# -- end to end through the fork boundary ----------------------------------


def _traced_worker():
    with span("work.outer", engine="fake"):
        with span("work.inner"):
            pass
    counter("work.items", kind="unit").inc(3)
    return "done"


def _crashing_traced_worker():
    # One full batch ships mid-run; the 6 spans left in the buffer (and
    # the final metrics snapshot) die with the process.
    for _ in range(TELEMETRY_BATCH_SPANS + 6):
        with span("crash.unit"):
            pass
    os._exit(11)


def _spinning_traced_worker():
    with span("spin.setup"):
        pass
    while True:
        checkpoint("collect.spin")
        time.sleep(0.005)


def _ok_after(delay):
    time.sleep(delay)
    return "ok"


def test_worker_spans_land_under_the_span_open_at_launch():
    with recording() as tracer:
        with span("portfolio.race") as race:
            sup = Supervisor(hang_timeout=10.0)
            outcomes = sup.run(
                [WorkerTask(id="t", fn=_traced_worker, chaos=_NO_CHAOS, label="bmc")]
            )
    assert outcomes["t"].ok
    remote = [r for r in tracer.records if isinstance(r, RemoteSpanRecord)]
    outer = next(r for r in remote if r.name == "work.outer")
    inner = next(r for r in remote if r.name == "work.inner")
    assert outer.parent_id == race.span_id
    assert inner.parent_id == outer.span_id
    assert outer.pid == inner.pid and outer.pid != os.getpid()
    assert outer.attrs["worker"] == "bmc"
    assert sup.collector.spans_ingested >= 2
    # The worker's registry snapshot merged home under its label.
    assert REGISTRY.snapshot()["work.items{kind=unit,worker=bmc}"] == 3


def test_worker_metrics_flow_home_even_with_tracing_disabled():
    sup = Supervisor(hang_timeout=10.0)
    outcomes = sup.run(
        [WorkerTask(id="t", fn=_traced_worker, chaos=_NO_CHAOS, label="w")]
    )
    assert outcomes["t"].ok
    assert sup.collector.spans_ingested == 0
    assert REGISTRY.snapshot()["work.items{kind=unit,worker=w}"] == 3


def test_shipped_batches_survive_a_worker_crash():
    with recording() as tracer:
        with span("portfolio.race"):
            sup = Supervisor(hang_timeout=10.0, max_restarts=0)
            outcome = sup.run(
                [
                    WorkerTask(
                        id="t",
                        fn=_crashing_traced_worker,
                        chaos=_NO_CHAOS,
                        label="crashy",
                    )
                ]
            )["t"]
    assert outcome.status == "crashed"
    remote = [r for r in tracer.records if isinstance(r, RemoteSpanRecord)]
    # Exactly the one full batch that shipped before the crash.
    assert len(remote) == TELEMETRY_BATCH_SPANS
    assert {r.name for r in remote} == {"crash.unit"}


def test_cancelled_worker_flushes_its_partial_buffer():
    with recording() as tracer:
        with span("portfolio.race"):
            sup = Supervisor(hang_timeout=10.0, grace=1.0)
            outcomes = sup.run(
                [
                    WorkerTask(
                        id="fast", fn=_ok_after, args=(0.4,), chaos=_NO_CHAOS
                    ),
                    WorkerTask(
                        id="spin",
                        fn=_spinning_traced_worker,
                        chaos=_NO_CHAOS,
                        label="spin",
                    ),
                ],
                stop_when=lambda outcomes: outcomes["fast"].status == "ok",
            )
    assert outcomes["fast"].ok
    assert outcomes["spin"].status == "cancelled"
    remote = [r for r in tracer.records if isinstance(r, RemoteSpanRecord)]
    # The loser's below-batch-size buffer shipped on the cancel path.
    setup = next(r for r in remote if r.name == "spin.setup")
    assert setup.lane == "spin"
    assert setup.status == "ok"


def test_garbled_telemetry_is_dropped_without_poisoning_the_parent_trace():
    with recording() as tracer:
        with span("portfolio.race") as race:
            sup = Supervisor(hang_timeout=10.0, max_restarts=0)
            outcome = sup.run(
                [
                    WorkerTask(
                        id="t",
                        fn=_traced_worker,
                        chaos=ChaosConfig({"garble": 1.0}, seed=5),
                        label="evil",
                    )
                ]
            )["t"]
    # The result payload garbled too: the attempt is a detected failure.
    assert outcome.status == "garbled"
    remote = [r for r in tracer.records if isinstance(r, RemoteSpanRecord)]
    assert remote == []
    assert sup.collector.dropped >= 1
    assert race.status == "ok"
    snapshot = REGISTRY.snapshot()
    assert snapshot["obs.collect.dropped{worker=evil}"] >= 1
    assert "work.items{kind=unit,worker=evil}" not in snapshot
