"""Unit tests for the span/metric exporters.

Round-trips each format through its consumer: the Chrome trace document
must satisfy the trace-event schema Perfetto loads (``traceEvents`` array
of ``"ph": "X"`` complete events with microsecond ``ts``/``dur`` and
JSON-clean ``args``), and the metrics JSONL rows must parse back to the
registry's series.
"""

from __future__ import annotations

import io
import json
import os

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import ChromeTraceSink, MemorySink, write_metrics_jsonl
from repro.obs.trace import event, recording, span


class FakeClock:
    def __init__(self, step_ns: int = 1000):
        self.now = 0
        self.step = step_ns

    def __call__(self) -> int:
        self.now += self.step
        return self.now


def _trace_some_spans(*sinks):
    with recording(sinks=list(sinks), clock_ns=FakeClock()):
        with span("mc.check", engine="bdd"):
            with span("bdd.fixpoint.eu") as sp:
                sp.set(rounds=3)
            event("bdd.gc", reclaimed=17)


def test_chrome_trace_sink_emits_perfetto_loadable_document(tmp_path):
    path = tmp_path / "trace.json"
    _trace_some_spans(ChromeTraceSink(path))
    document = json.loads(path.read_text())
    # The trace-event schema Perfetto/chrome://tracing loads.
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    timed = [e for e in events if e["ph"] != "M"]
    assert [e["name"] for e in timed] == ["mc.check", "bdd.fixpoint.eu", "bdd.gc"]
    complete = [e for e in timed if e["ph"] == "X"]
    for e in complete:
        assert set(e) == {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
        assert e["ts"] >= 0 and e["dur"] > 0
        # This process's events land on this process's pid, resolved per
        # event (never captured at sink construction).
        assert e["pid"] == os.getpid()
    [instant] = [e for e in timed if e["ph"] == "i"]
    assert instant["s"] == "t"
    assert instant["args"] == {"reclaimed": 17}
    # Events are sorted by timestamp and nested spans sit inside their
    # parent's [ts, ts+dur) interval, which is what renders the flame graph.
    outer, inner = complete
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
    # The exact span tree is embedded in args, so analysis tools never
    # have to infer nesting from interval containment.
    assert inner["args"]["parent_id"] == outer["args"]["span_id"]


def test_chrome_trace_sink_accepts_caller_owned_stream():
    stream = io.StringIO()
    _trace_some_spans(ChromeTraceSink(stream))
    document = json.loads(stream.getvalue())
    assert len([e for e in document["traceEvents"] if e["ph"] != "M"]) == 3
    stream.write("")  # stream was left open for the caller


def test_chrome_trace_args_are_json_clean(tmp_path):
    path = tmp_path / "trace.json"
    sink = ChromeTraceSink(path)
    with recording(sinks=[sink], clock_ns=FakeClock()):
        with span("weird") as sp:
            sp.set(formula=frozenset({1}), pair=(1, 2))
    document = json.loads(path.read_text())
    [event_] = [e for e in document["traceEvents"] if e["ph"] == "X"]
    args = event_["args"]
    assert args["pair"] == [1, 2]
    assert isinstance(args["formula"], str)  # repr'd, not a crash


class _RemoteSpan:
    """A record shaped like collect.RemoteSpanRecord (pid + lane carried)."""

    def __init__(self, span_id, parent_id, name, start_ns, end_ns, pid, lane):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.duration_ns = end_ns - start_ns
        self.attrs = {"worker": lane}
        self.status = "ok"
        self.pid = pid
        self.lane = lane


def test_chrome_trace_sink_renders_worker_lanes():
    stream = io.StringIO()
    sink = ChromeTraceSink(stream)
    with recording(sinks=[sink], clock_ns=FakeClock()):
        with span("portfolio.race"):
            sink.on_span(_RemoteSpan(901, 1, "mc.check", 100, 900, 4242, "bmc"))
            sink.on_span(_RemoteSpan(902, 1, "mc.check", 100, 800, 4243, "bdd"))
    document = json.loads(stream.getvalue())
    events = document["traceEvents"]
    spans = {e["args"].get("span_id"): e for e in events if e["ph"] == "X"}
    assert spans[901]["pid"] == 4242
    assert spans[902]["pid"] == 4243
    names = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names[4242] == "worker:bmc"
    assert names[4243] == "worker:bdd"
    assert names[os.getpid()] == "coordinator"
    threads = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert threads[4242] == "bmc"
    # The coordinator lane sorts first.
    order = {
        e["pid"]: e["args"]["sort_index"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_sort_index"
    }
    assert order[os.getpid()] == 0
    assert order[4242] > 0 and order[4243] > 0


def test_chrome_trace_sink_marks_non_ok_status():
    stream = io.StringIO()
    sink = ChromeTraceSink(stream)
    with recording(sinks=[sink], clock_ns=FakeClock()):
        try:
            with span("doomed"):
                raise ValueError("boom")
        except ValueError:
            pass
    document = json.loads(stream.getvalue())
    [event_] = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert event_["args"]["status"] == "error:ValueError"


def test_memory_sink_collects_and_closes():
    sink = MemorySink()
    _trace_some_spans(sink)
    assert [record.name for record in sink.spans] == ["bdd.fixpoint.eu", "mc.check"]
    assert len(sink.events) == 1
    assert sink.closed


def test_write_metrics_jsonl_merges_run_identity(tmp_path):
    registry = MetricsRegistry()
    registry.counter("mc.checks", engine="ic3").inc(2)
    registry.gauge("sat.conflicts", engine="ic3").set(41)
    path = tmp_path / "metrics.jsonl"
    written = write_metrics_jsonl(
        registry, path, extra={"system": "mutex", "size": 4}
    )
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert written == len(rows) == 2
    for row in rows:
        assert row["system"] == "mutex"
        assert row["size"] == 4
        assert row["labels"] == {"engine": "ic3"}
    assert {row["name"]: row["value"] for row in rows} == {
        "mc.checks": 2,
        "sat.conflicts": 41,
    }


def test_write_metrics_jsonl_to_stream_without_extra():
    registry = MetricsRegistry()
    registry.histogram("mc.fixpoint.size").observe(3)
    stream = io.StringIO()
    assert write_metrics_jsonl(registry, stream) == 1
    [row] = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert row["kind"] == "histogram"
    assert row["value"]["buckets"] == {"4": 1}
