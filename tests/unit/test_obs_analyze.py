"""Unit tests for the ``repro-obs`` trace-analysis toolkit (repro.obs.analyze).

Builds small synthetic Perfetto trace-event documents (the one on-disk
layout ``--trace`` writes) and pins
the analyses the CLI renders: per-name aggregates, the critical path,
the portfolio loser autopsy, and trace diffing — plus the
``main()`` exit-code contract (0 on success, 2 on unusable input).
"""

from __future__ import annotations

import json

import pytest

from repro.obs.analyze import (
    TraceDocument,
    aggregate,
    critical_path,
    diff_traces,
    load_trace,
    main,
    portfolio_autopsy,
)


def _x(name, pid, span_id, parent_id, ts, dur, status="ok", **attrs):
    args = dict(attrs)
    args["span_id"] = span_id
    args["parent_id"] = parent_id
    if status != "ok":
        args["status"] = status
    return {
        "name": name,
        "cat": "repro",
        "ph": "X",
        "ts": ts,
        "dur": dur,
        "pid": pid,
        "tid": pid,
        "args": args,
    }


def _process_name(pid, name):
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": pid, "args": {"name": name}}


def _race_document():
    """A miniature portfolio-race trace in our own sink's layout.

    Coordinator pid 100 holds the race span plus an ``obs.collect``
    bookkeeping span carrying a worker label; pids 200 (bmc, the winner)
    and 300 (bdd, cancelled) hold the re-parented worker spans.
    """
    return {
        "traceEvents": [
            _process_name(100, "coordinator"),
            _process_name(200, "worker:bmc"),
            _process_name(300, "worker:bdd"),
            _x(
                "portfolio.race",
                100,
                1,
                None,
                0,
                1000,
                winner="won by bmc (CONCLUSIVE)",
                engines="bmc,bdd",
            ),
            _x("mc.check", 200, 2, 1, 10, 800, worker="bmc"),
            _x("sat.solve", 200, 3, 2, 20, 400, worker="bmc"),
            _x(
                "mc.check",
                300,
                4,
                1,
                10,
                900,
                status="error:CancelledError",
                worker="bdd",
            ),
            _x("obs.collect", 100, 5, 1, 950, 40, worker="bmc"),
        ],
        "displayTimeUnit": "ms",
    }


@pytest.fixture
def race_trace(tmp_path):
    path = tmp_path / "race.json"
    path.write_text(json.dumps(_race_document()))
    return str(path)


# -- loading ----------------------------------------------------------------


def test_load_perfetto_links_the_tree_and_lane_labels(race_trace):
    doc = load_trace(race_trace)
    assert doc.pids == [100, 200, 300]
    assert doc.lanes == {100: None, 200: "bmc", 300: "bdd"}
    [race] = doc.roots
    assert race.name == "portfolio.race"
    assert sorted(c.name for c in race.children) == [
        "mc.check",
        "mc.check",
        "obs.collect",
    ]
    solve = next(s for s in doc.spans if s.name == "sat.solve")
    assert solve.lane == "bmc"
    assert solve.start_ns == 20_000 and solve.end_ns == 420_000  # µs -> ns
    loser = next(s for s in doc.spans if s.pid == 300)
    assert loser.status == "error:CancelledError"
    # span_id/parent_id/status are structure, not attributes.
    assert "span_id" not in solve.attrs and "parent_id" not in solve.attrs


def test_load_perfetto_infers_containment_for_foreign_traces(tmp_path):
    # A trace from another tool: no span_id args, nesting only implied
    # by interval containment (per process).
    document = {
        "traceEvents": [
            {"name": "outer", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 1},
            {"name": "inner", "ph": "X", "ts": 10, "dur": 50, "pid": 1, "tid": 1},
            {"name": "later", "ph": "X", "ts": 70, "dur": 20, "pid": 1, "tid": 1},
            {"name": "other", "ph": "X", "ts": 5, "dur": 10, "pid": 2, "tid": 2},
        ]
    }
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(document))
    doc = load_trace(str(path))
    outer = next(s for s in doc.spans if s.name == "outer")
    assert {c.name for c in outer.children} == {"inner", "later"}
    other = next(s for s in doc.spans if s.name == "other")
    assert other in doc.roots  # different pid: never nested under pid 1


def test_load_artifact_sniffs_bench_vs_trace(tmp_path, race_trace):
    bench = tmp_path / "BENCH_a.json"
    bench.write_text(json.dumps({"benchmarks": []}))
    with pytest.raises(ValueError, match="unrecognised JSON artifact"):
        load_trace(str(bench))
    assert isinstance(load_trace(race_trace), TraceDocument)
    unknown = tmp_path / "other.json"
    unknown.write_text(json.dumps({"foo": 1}))
    with pytest.raises(ValueError, match="unrecognised JSON artifact"):
        load_trace(str(unknown))


# -- analyses ---------------------------------------------------------------


def test_aggregate_counts_totals_and_self_time(race_trace):
    rows = aggregate(load_trace(race_trace))
    assert rows["mc.check"]["count"] == 2
    assert rows["mc.check"]["total_ns"] == 1_700_000
    assert rows["mc.check"]["max_ns"] == 900_000
    assert rows["mc.check"]["mean_ns"] == pytest.approx(850_000)
    # The winner's mc.check spent 400µs in sat.solve; self time excludes it.
    assert rows["mc.check"]["self_ns"] == (800_000 - 400_000) + 900_000
    assert rows["sat.solve"]["self_ns"] == 400_000


def test_critical_path_follows_the_last_finisher(race_trace):
    path = critical_path(load_trace(race_trace))
    # The race ends waiting on the obs.collect tail (ends at 990µs, after
    # the cancelled bdd worker's 910µs).
    assert [step["name"] for step in path] == ["portfolio.race", "obs.collect"]
    root = path[0]
    assert root["pct_of_root"] == pytest.approx(100.0)
    assert root["dur_ns"] == 1_000_000
    assert path[1]["lane"] == "bmc"


def test_critical_path_of_an_empty_trace_is_empty():
    assert critical_path(TraceDocument([])) == []


def test_portfolio_autopsy_reports_winner_and_losers(race_trace):
    [autopsy] = portfolio_autopsy(load_trace(race_trace))
    assert autopsy["winner"] == "bmc"
    assert autopsy["engines_raced"] == "bmc,bdd"
    assert autopsy["dur_ns"] == 1_000_000
    by_engine = {row["engine"]: row for row in autopsy["engines"]}
    assert set(by_engine) == {"bmc", "bdd"}  # obs.collect never counted
    bmc = by_engine["bmc"]
    assert bmc["won"] and bmc["spans"] == 2 and bmc["pids"] == [200]
    # Lane roots only: sat.solve is inside mc.check, not added again.
    assert bmc["busy_ns"] == 800_000
    assert bmc["last_span"] == "mc.check" and bmc["last_status"] == "ok"
    bdd = by_engine["bdd"]
    assert not bdd["won"]
    assert bdd["busy_ns"] == 900_000
    assert bdd["last_status"] == "error:CancelledError"


def test_diff_traces_attributes_the_shift_per_span_name(tmp_path, race_trace):
    slower = _race_document()
    for entry in slower["traceEvents"]:
        if entry.get("ph") == "X" and entry["name"] == "sat.solve":
            entry["dur"] = 700  # +300µs
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    rows = diff_traces(load_trace(race_trace), load_trace(str(path)))
    assert rows[0]["name"] == "sat.solve"  # largest |delta| first
    assert rows[0]["delta_ns"] == 300_000
    assert rows[0]["count_a"] == rows[0]["count_b"] == 1
    unchanged = next(row for row in rows if row["name"] == "portfolio.race")
    assert unchanged["delta_ns"] == 0


# -- the CLI ----------------------------------------------------------------


def test_main_report_renders_all_three_sections(race_trace, capsys):
    assert main(["report", race_trace]) == 0
    out = capsys.readouterr().out
    assert "3 process(es)" in out
    assert "== aggregates" in out
    assert "== critical path ==" in out
    assert "== portfolio autopsy" in out
    assert "won by bmc (CONCLUSIVE)" in out
    assert "error:CancelledError" in out


def test_main_report_json_payload(race_trace, capsys):
    assert main(["report", race_trace, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spans"] == 5
    assert payload["pids"] == [100, 200, 300]
    assert payload["critical_path"][0]["name"] == "portfolio.race"
    assert payload["portfolio"][0]["winner"] == "bmc"
    assert "mc.check" in payload["aggregates"]


def test_main_diff_traces_and_json(race_trace, capsys):
    assert main(["diff", race_trace, race_trace]) == 0
    out = capsys.readouterr().out
    assert "delta_ms" in out and "portfolio.race" in out
    assert main(["diff", race_trace, race_trace, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "trace"
    assert all(row["delta_ns"] == 0 for row in payload["rows"])


def test_main_exit_2_on_unusable_input(tmp_path, race_trace, capsys):
    assert main(["report", str(tmp_path / "missing.json")]) == 2
    assert "repro-obs:" in capsys.readouterr().err
    bench = tmp_path / "BENCH_a.json"
    bench.write_text(json.dumps({"benchmarks": []}))
    assert main(["diff", race_trace, str(bench)]) == 2  # a BENCH file is not a trace
    assert "unrecognised JSON artifact" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "diff"])
def test_main_exit_2_on_metrics_jsonl_and_other_json(tmp_path, race_trace, command, capsys):
    metrics = tmp_path / "m.jsonl"
    metrics.write_text(
        "\n".join(
            json.dumps({"kind": "counter", "name": name, "labels": {}, "value": 1})
            for name in ("mc.checks", "bdd.gc.runs")
        )
        + "\n"
    )
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"foo": 1}))
    for path in (metrics, other):
        argv = [command, str(path)] + ([race_trace] if command == "diff" else [])
        assert main(argv) == 2
        assert "unrecognised" in capsys.readouterr().err
