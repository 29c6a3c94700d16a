"""Offline trace analysis: the ``repro-obs`` console script.

Loads the one trace format ``--trace`` writes — the Chrome/Perfetto
trace-event document of :class:`~repro.obs.sinks.ChromeTraceSink` — and
answers the questions a profiling session actually asks:

``repro-obs report TRACE``
    Where did the time go?  Per-span-name aggregates (count, total,
    mean, max, self time), the critical path through the span tree (the
    chain of spans that determined the run's end time), and — when the
    trace contains a ``portfolio.race`` — a loser autopsy: how long each
    cancelled engine burned, and the last span it finished before the
    cancellation landed.

``repro-obs diff A B``
    What changed between two runs?  Per-span-name time attribution of
    the regression (or improvement).

Everything here is read-only over JSON files; like the rest of
:mod:`repro.obs` it imports nothing from the wider ``repro`` package, so
the toolkit works on artifacts from any run, any machine.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Any, Dict, List, Optional

__all__ = [
    "SpanNode",
    "TraceDocument",
    "load_trace",
    "aggregate",
    "critical_path",
    "portfolio_autopsy",
    "diff_traces",
    "main",
]


class SpanNode:
    """One span in a loaded trace, with resolved children."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "start_ns",
        "end_ns",
        "pid",
        "lane",
        "status",
        "attrs",
        "children",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_ns: int,
        end_ns: int,
        pid: Optional[int] = None,
        lane: Optional[str] = None,
        status: str = "ok",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.pid = pid
        self.lane = lane
        self.status = status
        self.attrs = attrs or {}
        self.children: List["SpanNode"] = []

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        """Duration not covered by direct children (clamped at zero)."""
        return max(0, self.duration_ns - sum(c.duration_ns for c in self.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SpanNode(%r, id=%r, dur=%dns)" % (self.name, self.span_id, self.duration_ns)


class TraceDocument:
    """A fully linked span forest plus per-process lane labels."""

    def __init__(self, spans: List[SpanNode], lanes: Optional[Dict[int, Optional[str]]] = None):
        self.spans = spans
        self.lanes = lanes or {}
        self.by_id: Dict[int, SpanNode] = {s.span_id: s for s in spans}
        self.roots: List[SpanNode] = []
        for node in spans:
            parent = None if node.parent_id is None else self.by_id.get(node.parent_id)
            if parent is None or parent is node:
                self.roots.append(node)
            else:
                parent.children.append(node)
        for node in spans:
            node.children.sort(key=lambda c: c.start_ns)
            if node.lane is None and node.pid is not None:
                node.lane = self.lanes.get(node.pid)

    @property
    def pids(self) -> List[int]:
        return sorted({s.pid for s in self.spans if s.pid is not None})

    @property
    def span_ns(self) -> int:
        """Wall span of the whole trace (first start to last end)."""
        if not self.spans:
            return 0
        return max(s.end_ns for s in self.spans) - min(s.start_ns for s in self.spans)

    def find(self, name: str) -> List[SpanNode]:
        return [s for s in self.spans if s.name == name]

    def descendants(self, node: SpanNode) -> List[SpanNode]:
        out: List[SpanNode] = []
        stack = list(node.children)
        while stack:
            child = stack.pop()
            out.append(child)
            stack.extend(child.children)
        return out


# -- loading ----------------------------------------------------------------

def _lane_from_process_name(name: Any) -> Optional[str]:
    if isinstance(name, str) and name.startswith("worker:"):
        return name.split(":", 1)[1]
    return None


def _load_perfetto(document: Dict[str, Any]) -> TraceDocument:
    lanes: Dict[int, Optional[str]] = {}
    raw: List[Dict[str, Any]] = []
    for entry in document["traceEvents"]:
        if not isinstance(entry, dict):
            continue
        phase = entry.get("ph")
        if phase == "M" and entry.get("name") == "process_name":
            lanes[entry.get("pid")] = _lane_from_process_name(
                (entry.get("args") or {}).get("name")
            )
        elif phase == "X":
            raw.append(entry)
    nodes: List[SpanNode] = []
    ids = itertools.count(-1, -1)  # synthetic ids for foreign traces
    need_containment = False
    for entry in raw:
        args = dict(entry.get("args") or {})
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_id", None)
        status = args.pop("status", "ok")
        if not isinstance(span_id, int):
            span_id = next(ids)
            need_containment = True
        start_ns = int(round(float(entry.get("ts", 0)) * 1000))
        nodes.append(
            SpanNode(
                span_id=span_id,
                parent_id=parent_id if isinstance(parent_id, int) else None,
                name=str(entry.get("name", "?")),
                start_ns=start_ns,
                end_ns=start_ns + int(round(float(entry.get("dur", 0)) * 1000)),
                pid=entry.get("pid"),
                lane=args.get("worker") or lanes.get(entry.get("pid")),
                status=str(status),
                attrs=args,
            )
        )
    if need_containment:
        _infer_containment(nodes)
    return TraceDocument(nodes, lanes)


def _infer_containment(nodes: List[SpanNode]) -> None:
    """Recover parentage by interval containment, per process.

    Only used for trace documents that lack explicit ``span_id`` args
    (traces produced by other tools); our own sinks always embed the tree.
    """
    by_pid: Dict[Any, List[SpanNode]] = {}
    for node in nodes:
        by_pid.setdefault(node.pid, []).append(node)
    for group in by_pid.values():
        group.sort(key=lambda n: (n.start_ns, -n.duration_ns))
        stack: List[SpanNode] = []
        for node in group:
            while stack and stack[-1].end_ns <= node.start_ns:
                stack.pop()
            node.parent_id = stack[-1].span_id if stack else None
            stack.append(node)


def load_trace(path: str) -> TraceDocument:
    """Load the Perfetto trace-event document ``--trace`` writes.

    Anything else (a ``--metrics`` JSONL file, a benchmark result, other
    JSON) raises :class:`ValueError`, so ``report`` and ``diff`` reject
    the same inputs.
    """
    with open(path) as handle:
        try:
            document = json.load(handle)
        except ValueError:
            document = None
    if not isinstance(document, dict) or not isinstance(document.get("traceEvents"), list):
        raise ValueError("%s: unrecognised JSON artifact" % path)
    return _load_perfetto(document)


# -- analyses ---------------------------------------------------------------

def aggregate(doc: TraceDocument) -> Dict[str, Dict[str, Any]]:
    """Per-span-name totals: count, total/mean/max duration, self time."""
    rows: Dict[str, Dict[str, Any]] = {}
    for node in doc.spans:
        row = rows.setdefault(
            node.name, {"count": 0, "total_ns": 0, "max_ns": 0, "self_ns": 0}
        )
        row["count"] += 1
        row["total_ns"] += node.duration_ns
        row["max_ns"] = max(row["max_ns"], node.duration_ns)
        row["self_ns"] += node.self_ns
    for row in rows.values():
        row["mean_ns"] = row["total_ns"] / row["count"]
    return rows


def critical_path(doc: TraceDocument) -> List[Dict[str, Any]]:
    """The chain of spans that determined the run's end time.

    Starts at the longest root and, at each step, descends into the child
    that finished last — the child the parent was (transitively) waiting
    on.  Each step carries its ``self_ns`` share: the part of the parent's
    time no child accounts for.
    """
    if not doc.roots:
        return []
    node: Optional[SpanNode] = max(doc.roots, key=lambda r: r.duration_ns)
    total = node.duration_ns or 1
    path = []
    while node is not None:
        last_child = max(node.children, key=lambda c: c.end_ns, default=None)
        path.append(
            {
                "name": node.name,
                "span_id": node.span_id,
                "pid": node.pid,
                "lane": node.lane,
                "status": node.status,
                "dur_ns": node.duration_ns,
                "self_ns": node.self_ns,
                "pct_of_root": 100.0 * node.duration_ns / total,
            }
        )
        node = last_child
    return path


def portfolio_autopsy(doc: TraceDocument) -> List[Dict[str, Any]]:
    """Per-engine post-mortem of every ``portfolio.race`` in the trace.

    For each race: the winner (parsed from the race span's ``winner``
    attribute), and per engine lane the time it burned, its span count,
    and the last span it finished before it won or was cancelled.
    """
    autopsies = []
    for race in doc.find("portfolio.race"):
        winner_text = str(race.attrs.get("winner") or "")
        winner = ""
        if winner_text.startswith("won by "):
            winner = winner_text[len("won by "):].split(" ", 1)[0].split("(", 1)[0]
        lanes: Dict[str, Dict[str, Any]] = {}
        for node in doc.descendants(race):
            if not node.lane:
                continue  # unlabelled coordinator-side spans
            if node.pid is not None and node.pid == race.pid:
                # Coordinator-side bookkeeping (obs.collect) carries the
                # worker label but is not the engine's own time.
                continue
            lane = lanes.setdefault(
                node.lane,
                {"engine": node.lane, "spans": 0, "busy_ns": 0, "pids": set(), "last": None},
            )
            lane["spans"] += 1
            if node.parent_id == race.span_id:
                # Lane roots only: children are contained in their parents,
                # so summing everything would double-count the nesting.
                lane["busy_ns"] += node.duration_ns
            if node.pid is not None:
                lane["pids"].add(node.pid)
            if lane["last"] is None or node.end_ns >= lane["last"].end_ns:
                lane["last"] = node
        engines = []
        for name in sorted(lanes):
            lane = lanes[name]
            last = lane["last"]
            engines.append(
                {
                    "engine": name,
                    "won": name == winner,
                    "spans": lane["spans"],
                    "busy_ns": lane["busy_ns"],
                    "pids": sorted(lane["pids"]),
                    "last_span": None if last is None else last.name,
                    "last_status": None if last is None else last.status,
                }
            )
        autopsies.append(
            {
                "race_span_id": race.span_id,
                "dur_ns": race.duration_ns,
                "engines_raced": race.attrs.get("engines", ""),
                "winner": winner,
                "detail": winner_text,
                "engines": engines,
            }
        )
    return autopsies


def diff_traces(a: TraceDocument, b: TraceDocument) -> List[Dict[str, Any]]:
    """Per-span-name time attribution of B minus A, largest shift first."""
    rows_a, rows_b = aggregate(a), aggregate(b)
    out = []
    for name in sorted(set(rows_a) | set(rows_b)):
        in_a = rows_a.get(name, {"count": 0, "total_ns": 0})
        in_b = rows_b.get(name, {"count": 0, "total_ns": 0})
        delta = in_b["total_ns"] - in_a["total_ns"]
        out.append(
            {
                "name": name,
                "count_a": in_a["count"],
                "count_b": in_b["count"],
                "total_ns_a": in_a["total_ns"],
                "total_ns_b": in_b["total_ns"],
                "delta_ns": delta,
            }
        )
    out.sort(key=lambda row: -abs(row["delta_ns"]))
    return out


# -- rendering --------------------------------------------------------------

def _ms(ns: Optional[float]) -> str:
    return "-" if ns is None else "%.3f" % (ns / 1e6)


def _render_report(doc: TraceDocument, top: int, out) -> None:
    print(
        "trace: %d spans, %d process(es) %s, wall span %s ms"
        % (len(doc.spans), len(doc.pids) or 1, doc.pids, _ms(doc.span_ns)),
        file=out,
    )
    rows = aggregate(doc)
    print("\n== aggregates (top %d by total time) ==" % top, file=out)
    print(
        "%-36s %7s %12s %12s %12s %12s"
        % ("span", "count", "total_ms", "mean_ms", "max_ms", "self_ms"),
        file=out,
    )
    for name in sorted(rows, key=lambda n: -rows[n]["total_ns"])[:top]:
        row = rows[name]
        print(
            "%-36s %7d %12s %12s %12s %12s"
            % (
                name,
                row["count"],
                _ms(row["total_ns"]),
                _ms(row["mean_ns"]),
                _ms(row["max_ns"]),
                _ms(row["self_ns"]),
            ),
            file=out,
        )
    path = critical_path(doc)
    print("\n== critical path ==", file=out)
    for depth, step in enumerate(path):
        lane = " [%s pid=%s]" % (step["lane"], step["pid"]) if step["lane"] else ""
        status = "" if step["status"] == "ok" else " status=%s" % step["status"]
        print(
            "%s%-s %s ms (self %s ms, %.1f%% of root)%s%s"
            % (
                "  " * depth,
                step["name"],
                _ms(step["dur_ns"]),
                _ms(step["self_ns"]),
                step["pct_of_root"],
                lane,
                status,
            ),
            file=out,
        )
    for autopsy in portfolio_autopsy(doc):
        print(
            "\n== portfolio autopsy (race %s ms, engines: %s) =="
            % (_ms(autopsy["dur_ns"]), autopsy["engines_raced"]),
            file=out,
        )
        if autopsy["detail"]:
            print(autopsy["detail"], file=out)
        print(
            "%-10s %6s %7s %12s %-28s %s"
            % ("engine", "won", "spans", "busy_ms", "last span", "last status"),
            file=out,
        )
        for engine in autopsy["engines"]:
            print(
                "%-10s %6s %7d %12s %-28s %s"
                % (
                    engine["engine"],
                    "yes" if engine["won"] else "no",
                    engine["spans"],
                    _ms(engine["busy_ns"]),
                    engine["last_span"] or "-",
                    engine["last_status"] or "-",
                ),
                file=out,
            )


def _report_payload(doc: TraceDocument, top: int) -> Dict[str, Any]:
    rows = aggregate(doc)
    ordered = sorted(rows, key=lambda n: -rows[n]["total_ns"])[:top]
    return {
        "spans": len(doc.spans),
        "pids": doc.pids,
        "wall_ns": doc.span_ns,
        "aggregates": {name: rows[name] for name in ordered},
        "critical_path": critical_path(doc),
        "portfolio": portfolio_autopsy(doc),
    }


# -- CLI --------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Analyse repro trace files (the Perfetto documents --trace writes).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="aggregates, critical path, autopsy")
    report.add_argument("trace", help="trace file (--trace output)")
    report.add_argument("--top", type=int, default=15, help="aggregate rows shown")
    report.add_argument("--json", action="store_true", help="machine-readable output")
    diff = sub.add_parser("diff", help="compare two traces")
    diff.add_argument("a", help="baseline trace")
    diff.add_argument("b", help="candidate trace")
    diff.add_argument("--top", type=int, default=15, help="rows shown")
    diff.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_diff(args)
    except (OSError, ValueError, KeyError) as error:
        print("repro-obs: %s" % error, file=sys.stderr)
        return 2


def _cmd_report(args) -> int:
    doc = load_trace(args.trace)
    if args.json:
        json.dump(_report_payload(doc, args.top), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        _render_report(doc, args.top, sys.stdout)
    return 0


def _cmd_diff(args) -> int:
    rows = diff_traces(load_trace(args.a), load_trace(args.b))[: args.top]
    if args.json:
        json.dump({"kind": "trace", "rows": rows}, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print(
        "%-36s %7s %7s %12s %12s %12s"
        % ("span", "n_a", "n_b", "total_a_ms", "total_b_ms", "delta_ms")
    )
    for row in rows:
        print(
            "%-36s %7d %7d %12s %12s %+12.3f"
            % (
                row["name"],
                row["count_a"],
                row["count_b"],
                _ms(row["total_ns_a"]),
                _ms(row["total_ns_b"]),
                row["delta_ns"] / 1e6,
            )
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
