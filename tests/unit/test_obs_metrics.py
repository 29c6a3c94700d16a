"""Unit tests for the metrics registry: counters, gauges, histograms.

Pins the export format the CLI (``--profile``/``--metrics``) reads:
flat ``name{label=value}`` snapshot keys, JSONL records, and the
power-of-two histogram bucketing rule (bucket ``i`` counts observations
with ``2**(i-1) < v <= 2**i``).
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _bucket_index,
)


def test_counter_only_goes_up():
    counter = Counter()
    counter.inc()
    counter.inc(5)
    counter.inc(0)
    assert counter.snapshot() == 6
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.snapshot() == 6


def test_gauge_set_and_set_max():
    gauge = Gauge()
    gauge.set(10)
    gauge.set(3)
    assert gauge.snapshot() == 3


@pytest.mark.parametrize(
    "value,expected",
    [
        (0, 0),
        (0.5, 0),
        (1, 0),
        (1.001, 1),
        (2, 1),
        (3, 2),
        (4, 2),
        (5, 3),
        (8, 3),
        (9, 4),
        (1024, 10),
        (1025, 11),
    ],
)
def test_bucket_index_is_log2_with_inclusive_upper_bounds(value, expected):
    assert _bucket_index(value) == expected


def test_histogram_snapshot_reports_buckets_count_sum_min_max():
    histogram = Histogram()
    for value in (0.5, 1, 3, 9):
        histogram.observe(value)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 4
    assert snapshot["sum"] == pytest.approx(13.5)
    assert snapshot["min"] == 0.5
    assert snapshot["max"] == 9
    # 0.5 and 1 share bucket <=1; 3 lands in <=4; 9 in <=16.
    assert snapshot["buckets"] == {"1": 2, "4": 1, "16": 1}


def test_empty_histogram_snapshot():
    snapshot = Histogram().snapshot()
    assert snapshot == {
        "count": 0,
        "sum": 0.0,
        "min": None,
        "max": None,
        "p50": None,
        "p90": None,
        "p99": None,
        "buckets": {},
    }


def test_histogram_percentiles_interpolate_inside_log_buckets():
    histogram = Histogram()
    # 100 observations spread over buckets <=16 (50), <=32 (40), <=64 (10).
    for _ in range(50):
        histogram.observe(10)
    for _ in range(40):
        histogram.observe(20)
    for _ in range(9):
        histogram.observe(40)
    histogram.observe(63)
    # p50: rank 50 is exactly the last observation of the <=16 bucket.
    assert histogram.percentile(0.50) == pytest.approx(16.0)
    # p90: rank 90 is the last observation of the <=32 bucket.
    assert histogram.percentile(0.90) == pytest.approx(32.0)
    # p99: rank 99 interpolates 90% into the (32, 64] bucket -> 60.8,
    # inside the observed [min, max] range so no clamping applies.
    assert histogram.percentile(0.99) == pytest.approx(60.8)


def test_histogram_percentiles_clamp_to_observed_range():
    histogram = Histogram()
    histogram.observe(5)  # alone in bucket (4, 8]
    # Every percentile of a single observation is that observation:
    # interpolation would say 4.x-8, clamping pins it to [5, 5].
    assert histogram.percentile(0.50) == 5
    assert histogram.percentile(0.99) == 5
    snapshot = histogram.snapshot()
    assert snapshot["p50"] == 5
    assert snapshot["p90"] == 5
    assert snapshot["p99"] == 5


def test_histogram_merge_adds_buckets_and_widens_min_max():
    ours = Histogram()
    ours.observe(3)
    theirs = Histogram()
    theirs.observe(100)
    theirs.observe(0.5)
    ours.merge(theirs.snapshot())
    snapshot = ours.snapshot()
    assert snapshot["count"] == 3
    assert snapshot["sum"] == pytest.approx(103.5)
    assert snapshot["min"] == 0.5
    assert snapshot["max"] == 100
    assert snapshot["buckets"] == {"1": 1, "4": 1, "128": 1}


def test_histogram_merge_rejects_malformed_snapshots():
    histogram = Histogram()
    with pytest.raises(ValueError):
        histogram.merge({"count": 1, "sum": 1.0, "min": 1, "max": 1, "buckets": {"3": 1}})
    with pytest.raises(ValueError):
        histogram.merge({"count": -1, "sum": 0.0, "min": None, "max": None, "buckets": {}})
    # An empty snapshot merges as a no-op.
    histogram.merge({"count": 0, "sum": 0.0, "min": None, "max": None, "buckets": {}})
    assert histogram.count == 0


def test_merge_records_adds_worker_label_and_skips_malformed():
    source = MetricsRegistry()
    source.counter("sat.conflicts", engine="bmc").inc(7)
    source.gauge("bdd.live_nodes").set(42)
    source.histogram("mc.fixpoint.iterations").observe(3)
    records = source.as_records()
    records.append({"kind": "unknown", "name": "x", "labels": {}, "value": 0})
    records.append({"not even": "a record"})

    target = MetricsRegistry()
    target.counter("sat.conflicts", engine="bmc").inc(1)  # coordinator's own
    merged, skipped = target.merge_records(records, worker="bmc")
    assert (merged, skipped) == (3, 2)
    snapshot = target.snapshot()
    # Merged series carry the worker label, distinct from the local series.
    assert snapshot["sat.conflicts{engine=bmc}"] == 1
    assert snapshot["sat.conflicts{engine=bmc,worker=bmc}"] == 7
    assert snapshot["bdd.live_nodes{worker=bmc}"] == 42
    assert snapshot["mc.fixpoint.iterations{worker=bmc}"]["count"] == 1


def test_merge_records_counters_accumulate_across_snapshots():
    target = MetricsRegistry()
    source = MetricsRegistry()
    source.counter("worker.events").inc(2)
    target.merge_records(source.as_records(), worker="a")
    target.merge_records(source.as_records(), worker="a")
    # Two merges (e.g. two attempts of the same task) add, not overwrite.
    assert target.snapshot()["worker.events{worker=a}"] == 4


def test_registry_interns_series_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("mc.checks", engine="bdd")
    b = registry.counter("mc.checks", engine="bdd")
    c = registry.counter("mc.checks", engine="bitset")
    assert a is b
    assert a is not c
    a.inc(2)
    assert registry.counter("mc.checks", engine="bdd").snapshot() == 2
    # Label order never matters: the key is the sorted label set.
    x = registry.gauge("bdd.cache.hits", cache="ite", engine="bdd")
    y = registry.gauge("bdd.cache.hits", engine="bdd", cache="ite")
    assert x is y


def test_registry_snapshot_formats_flat_series_keys():
    registry = MetricsRegistry()
    registry.counter("mc.checks", engine="bdd").inc(3)
    registry.gauge("bdd.live_nodes").set(99)
    registry.histogram("mc.fixpoint.size", op="eu").observe(2)
    snapshot = registry.snapshot()
    assert snapshot["mc.checks{engine=bdd}"] == 3
    assert snapshot["bdd.live_nodes"] == 99
    assert snapshot["mc.fixpoint.size{op=eu}"]["count"] == 1
    assert len(registry) == 3


def test_registry_as_records_is_jsonl_ready():
    registry = MetricsRegistry()
    registry.counter("sat.restarts", engine="bmc").inc()
    [record] = registry.as_records()
    assert record == {
        "kind": "counter",
        "name": "sat.restarts",
        "labels": {"engine": "bmc"},
        "value": 1,
    }


def test_registry_reset_drops_all_series():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.gauge("b").set(1)
    assert len(registry) == 2
    registry.reset()
    assert len(registry) == 0
    assert registry.snapshot() == {}


def test_same_name_different_kinds_do_not_collide():
    registry = MetricsRegistry()
    registry.counter("x").inc(5)
    registry.gauge("x").set(-1)
    # Both series survive storage (the kind is part of the storage key)
    # even though the flat snapshot view would merge them — the naming
    # conventions in docs/OBSERVABILITY.md keep counter and gauge names
    # disjoint precisely so this never happens in practice.
    assert len(registry) == 2
