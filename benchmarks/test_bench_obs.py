"""Observability overhead guard: disabled tracing must cost < 5%.

The instrumentation contract (``docs/OBSERVABILITY.md``) is that a span
site left disabled costs one module-global load, one ``is None`` test,
and a no-op context manager — cheap enough that the engines can carry
spans in their fixpoint loops permanently.  This file *measures* that
claim on the headline symbolic workload instead of trusting it:

1. run the ``r = 10`` direct-encoding BDD property sweep once with a
   recording tracer to count how many span entries the workload
   actually produces;
2. measure the per-call cost of a disabled ``span()`` site in a tight
   loop;
3. assert that (spans × per-call cost) stays under 5% of the sweep's
   wall-clock time — the worst-case share instrumentation could claim.

The product form is deliberate: comparing two full sweep timings
against each other at a 5% threshold would flake on machine noise,
while the span count and the nanosecond-scale per-call cost are both
stable.
"""

import hashlib
import pickle
import time

import pytest

from repro.mc import SymbolicCTLModelChecker
from repro.obs.collect import (
    TELEMETRY_BATCH_SPANS,
    TelemetryCollector,
    TraceContext,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MemorySink
from repro.obs.trace import disable, enable, is_enabled, recording, span
from repro.systems import token_ring

#: The acceptance threshold: disabled instrumentation < 5% of the sweep.
_MAX_OVERHEAD_FRACTION = 0.05

#: Ring size of the guarded sweep (beyond the explicit engines' range).
_SWEEP_SIZE = 10


def _run_sweep():
    structure = token_ring.symbolic_token_ring(_SWEEP_SIZE)
    checker = SymbolicCTLModelChecker(structure)
    verdicts = checker.check_batch(token_ring.ring_properties())
    assert all(verdicts.values())


def _count_sweep_spans() -> int:
    sink = MemorySink()
    with recording(sinks=[sink]):
        _run_sweep()
    return len(sink.spans) + len(sink.events)


def _disabled_span_cost_ns(calls: int = 200_000) -> float:
    assert not is_enabled()
    start = time.perf_counter_ns()
    for _ in range(calls):
        with span("obs.overhead.probe", k=1):
            pass
    return (time.perf_counter_ns() - start) / calls


@pytest.mark.bench_smoke
def test_disabled_tracing_overhead_under_5_percent_on_r10_sweep(benchmark):
    benchmark.group = "obs-overhead"
    benchmark.extra_info["n"] = _SWEEP_SIZE

    span_count = _count_sweep_spans()
    assert span_count > 0

    per_call_ns = _disabled_span_cost_ns()

    assert not is_enabled()
    start = time.perf_counter_ns()
    benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    sweep_ns = time.perf_counter_ns() - start

    worst_case_overhead_ns = span_count * per_call_ns
    fraction = worst_case_overhead_ns / sweep_ns
    benchmark.extra_info["span_count"] = span_count
    benchmark.extra_info["disabled_span_cost_ns"] = round(per_call_ns, 2)
    benchmark.extra_info["overhead_fraction"] = round(fraction, 6)
    assert fraction < _MAX_OVERHEAD_FRACTION, (
        "disabled-tracing worst case %.3f%% of the r=%d sweep (%d spans at "
        "%.0fns each over %.0fms)"
        % (
            100 * fraction,
            _SWEEP_SIZE,
            span_count,
            per_call_ns,
            sweep_ns / 1e6,
        )
    )


def _telemetry_batch():
    """One full worker batch (64 spans) in wire form, completion-ordered.

    A nested chain finished leaf-first — the worst case for the
    collector's re-parenting pass, which must sort by start time before
    any child can reference its parent's remapped id.
    """
    spans = []
    for i in range(TELEMETRY_BATCH_SPANS):
        spans.append(
            {
                "kind": "span",
                "span_id": i + 1,
                "parent_id": i if i else None,
                "name": "sat.solve",
                "depth": i,
                "start_ns": 10 * (i + 1),
                "end_ns": 10 * (2 * TELEMETRY_BATCH_SPANS + 1) - 10 * i,
                "status": "ok",
                "attrs": {"k": i},
            }
        )
    spans.reverse()
    payload = {"pid": 4242, "spans": spans}
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return blob, hashlib.sha256(blob).hexdigest()


@pytest.mark.bench_smoke
def test_collector_ingest_throughput_on_a_full_batch(benchmark):
    """Digest-verify + validate + re-parent one worker batch of 64 spans.

    This is the coordinator-side cost of the cross-process telemetry
    pipe, paid inside the supervisor's wait loop — it must stay cheap
    relative to the heartbeat interval (50ms), or draining a span-heavy
    worker would starve hang detection.
    """
    benchmark.group = "obs-collect"
    benchmark.extra_info["batch_spans"] = TELEMETRY_BATCH_SPANS
    blob, digest = _telemetry_batch()
    collector = TelemetryCollector(registry=MetricsRegistry())
    enable([], keep_records=False)  # fan out to no sinks, keep nothing
    try:
        with span("portfolio.race") as race:
            context = TraceContext.capture()
            assert context.enabled and context.parent_span_id == race.span_id

            def ingest():
                assert collector.ingest("bmc", context, blob, digest)

            benchmark.pedantic(ingest, rounds=50, iterations=5)
    finally:
        disable()
    assert collector.dropped == 0
    assert collector.spans_ingested >= TELEMETRY_BATCH_SPANS
