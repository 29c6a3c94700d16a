"""Span recording for the traced run, installed from outside the library.

:meth:`Tracer.install` replaces a fixed set of public functions with
wrappers that record one span per call: name, start, end and self time (the
duration minus the part covered by child spans, tracked with a stack).  The
spans stay in memory until the job ends, when :meth:`Tracer.summary` folds
them into per-layer totals.  The wrapped calls are a few thousand per job,
so a wrapper's cost (two clock reads and a list append) stays small next to
the work it times.

The portfolio's ``run_engine_check`` runs in forked worker processes, whose
memory the job never sees: its wrapper writes one JSON record per worker pid
into the job's trace directory, and the summary charges each race's winner
(the first worker to finish with a verdict) to the race, so that
``runtime.race_s = runtime.worker_build_s + runtime.worker_check_s +
runtime.overhead_s``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

#: engine -> the span name its checks are recorded under.
CHECK_SPANS = {
    "bitset": "mc.bitset.check",
    "bdd": "mc.symbolic.check",
    "bmc": "mc.bmc.check",
    "ic3": "mc.ic3.check",
    "portfolio": "mc.portfolio.check",
}

#: Self-time metrics: metric name -> span name.
SELF_TIME_METRICS = {
    "import.repro_s": "import.repro",
    "systems.build_s": "systems.build",
    "mc.init_s": "mc.init",
    "mc.bitset.check_s": "mc.bitset.check",
    "mc.symbolic.check_s": "mc.symbolic.check",
    "mc.ic3.check_s": "mc.ic3.check",
    "mc.bmc.check_s": "mc.bmc.check",
    "kripke.symbolic.preimage_s": "kripke.symbolic.preimage",
    "kripke.symbolic.image_s": "kripke.symbolic.image",
    "bdd.relprod_s": "bdd.relprod",
    "bdd.apply_s": "bdd.apply",
    "bdd.rename_s": "bdd.rename",
    "sat.solve_s": "sat.solve",
}


class Tracer:
    """In-memory span recorder of one process (a job or a portfolio worker)."""

    def __init__(self, trace_dir):
        self.trace_dir = trace_dir
        #: Closed spans: ``(name, start, end, self_seconds)``.
        self.spans = []
        self._open = []
        #: Structures returned by the wrapped builders in this process.
        self.structures = []
        #: Portfolio races: ``(start, end, workers_launched, restarts)``.
        self.races = []

    def begin(self, name):
        self._open.append([name, time.monotonic(), 0.0])

    def end(self):
        name, start, child = self._open.pop()
        end = time.monotonic()
        self.spans.append((name, start, end, end - start - child))
        if self._open:
            self._open[-1][2] += end - start
        return start, end

    def _wrap(self, fn, name):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def _wrap_builder(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin("systems.build")
            try:
                structure = fn(*args, **kwargs)
            finally:
                self.end()
            self.structures.append(structure)
            return structure

        return traced

    def _wrap_race(self, fn):
        @functools.wraps(fn)
        def traced(supervisor, *args, **kwargs):
            self.begin("runtime.race")
            outcomes = {}
            try:
                outcomes = fn(supervisor, *args, **kwargs)
                return outcomes
            finally:
                start, end = self.end()
                attempts = [outcome.attempts for outcome in outcomes.values()]
                self.races.append(
                    (start, end, sum(attempts), sum(max(a - 1, 0) for a in attempts))
                )

        return traced

    def _wrap_worker(self, fn):
        @functools.wraps(fn)
        def traced(engine, *args, **kwargs):
            # A forked copy of the job: forget the parent's open spans.
            self._open, mark, self.structures = [], len(self.spans), []
            self.begin(CHECK_SPANS[engine])
            ok = False
            try:
                result = fn(engine, *args, **kwargs)
                ok = True
                return result
            finally:
                start, end = self.end()
                self._write_worker_record(engine, start, end, ok, self.spans[mark:])

        return traced

    def _write_worker_record(self, engine, start, end, ok, spans):
        self_s, calls = _fold(spans)
        record = {
            "pid": os.getpid(),
            "engine": engine,
            "start": start,
            "end": end,
            "ok": ok,
            "build_s": sum(e - s for name, s, e, _ in spans if name == "systems.build"),
            "self": self_s,
            "calls": calls,
            "bdd": _manager_counts(self.structures),
        }
        path = os.path.join(self.trace_dir, "worker-%d.json" % os.getpid())
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def install(self, builders):
        """Wrap the traced public functions; ``builders`` as in ``job.BUILDERS``."""
        import importlib

        from repro.bdd.manager import BDDManager
        from repro.kripke.symbolic import SymbolicKripkeStructure
        from repro.runtime import portfolio
        from repro.runtime.supervisor import Supervisor
        from repro.sat.solver import Solver

        targets = [
            (BDDManager, "relprod", "bdd.relprod"),
            (BDDManager, "apply_and", "bdd.apply"),
            (BDDManager, "apply_or", "bdd.apply"),
            (BDDManager, "ite", "bdd.apply"),
            (BDDManager, "exists", "bdd.exists"),
            (BDDManager, "rename", "bdd.rename"),
            (SymbolicKripkeStructure, "preimage_fn", "kripke.symbolic.preimage"),
            (SymbolicKripkeStructure, "image_fn", "kripke.symbolic.image"),
            (Solver, "solve", "sat.solve"),
        ]
        for owner, attribute, name in targets:
            setattr(owner, attribute, self._wrap(getattr(owner, attribute), name))
        Supervisor.run = self._wrap_race(Supervisor.run)
        portfolio.run_engine_check = self._wrap_worker(portfolio.run_engine_check)
        for module_name, *names in builders:
            module = importlib.import_module(module_name)
            for name in names:
                setattr(module, name, self._wrap_builder(getattr(module, name)))

    def _worker_records(self):
        records = []
        for entry in sorted(os.listdir(self.trace_dir)):
            with open(os.path.join(self.trace_dir, entry)) as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
        return records

    def summary(self, engine, structure, checker):
        """Per-layer totals of this job: metrics plus self time per layer."""
        self_s, calls = _fold(self.spans)
        bdd = _manager_counts(self.structures)
        metrics = dict.fromkeys(
            (
                "runtime.race_s",
                "runtime.worker_build_s",
                "runtime.worker_check_s",
                "runtime.workers_launched",
                "runtime.restarts",
            ),
            0,
        )
        records = self._worker_records() if self.races else []
        for start, end, launched, restarts in self.races:
            metrics["runtime.race_s"] += end - start
            metrics["runtime.workers_launched"] += launched
            metrics["runtime.restarts"] += restarts
            finished = [
                r for r in records if r["ok"] and start <= r["start"] and r["end"] <= end
            ]
            if not finished:
                continue
            winner = min(finished, key=lambda r: r["end"])
            duration = winner["end"] - winner["start"]
            metrics["runtime.worker_build_s"] += winner["build_s"]
            metrics["runtime.worker_check_s"] += duration - winner["build_s"]
            # The winner's work is on the race's blocking path: move it from
            # the race's self time to the layers the winner spent it in.
            self_s["runtime.race"] -= duration
            for name, seconds in winner["self"].items():
                self_s[name] += seconds
            for name, count in winner["calls"].items():
                calls[name] += count
            _merge_counts(bdd, winner["bdd"])
        metrics["runtime.overhead_s"] = (
            metrics["runtime.race_s"]
            - metrics["runtime.worker_build_s"]
            - metrics["runtime.worker_check_s"]
        )
        layers = defaultdict(float)
        for name, seconds in self_s.items():
            layers[name.split(".")[0]] += seconds
        for metric, span in SELF_TIME_METRICS.items():
            metrics[metric] = self_s[span]
        metrics["bdd.relprod_calls"] = calls["bdd.relprod"]
        metrics["sat.solve_calls"] = calls["sat.solve"]
        for key, value in bdd.items():
            metrics["bdd." + key] = value
        stats = checker.stats() if engine in ("bmc", "ic3") else {}
        for key in ("conflicts", "propagations", "decisions"):
            metrics["sat." + key] = stats.get(key, 0)
        for key in ("obligations", "generalization_queries"):
            metrics["mc.ic3." + key] = stats.get(key, 0)
        metrics["kripke.states"] = (
            structure.num_states if engine in ("naive", "bitset", "bdd") else 0
        )
        return {"metrics": dict(metrics), "layers": dict(layers)}


def _fold(spans):
    """Self seconds and call counts per span name."""
    self_s, calls = defaultdict(float), defaultdict(int)
    for name, _, _, seconds in spans:
        self_s[name] += seconds
        calls[name] += 1
    return self_s, calls


def _manager_counts(structures):
    """Counters read from ``manager.stats()`` of the symbolic structures built."""
    counts = {"peak_live_nodes": 0, "gc_runs": 0, "cache_hits": 0, "cache_lookups": 0}
    for structure in structures:
        manager = getattr(structure, "manager", None)
        if manager is None:
            continue
        stats = manager.stats()
        _merge_counts(
            counts,
            {
                "peak_live_nodes": stats.peak_live_nodes,
                "gc_runs": stats.gc_runs,
                "cache_hits": sum(cache.hits for cache in stats.caches),
                "cache_lookups": sum(cache.hits + cache.misses for cache in stats.caches),
            },
        )
    return counts


def _merge_counts(total, more):
    for key, value in more.items():
        if key == "peak_live_nodes":
            total[key] = max(total[key], value)
        else:
            total[key] += value
