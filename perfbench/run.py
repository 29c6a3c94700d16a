"""End-to-end benchmark of ``repro``: verification jobs in a closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload small-checks --seed 1 --seconds 20 --trace 0

One client runs the workload's job list (``perfbench/workloads.py``) one job
at a time, each in a fresh interpreter (``perfbench/job.py``), so every job
pays interpreter start, ``import repro``, the build, the checks and the
exit, as a ``repro-mc`` user does.  The list runs in cycles, each in an
order the seed permutes, until the next job would end after ``--seconds``
(at least one full cycle).  Every job's verdicts are compared with the
hand-written reference table.

With ``--trace 0`` the result reports the end-to-end metrics: per-job
minima over the job's runs in the run's complete cycles, summed over the
job list (``peak_rss_mb`` is the largest).  Contention from other load
only ever adds time, so the minimum is the statistic it moves least; the
long lists get only two or three cycles in a run, too few for a median to
shed one slow cycle.

With ``--trace 1`` untraced and traced cycles alternate; the result reports
the per-layer metrics of the traced runs, and standard error names the
layer with the most self time next to its prediction.

The last line of standard output is the result object; the line before it
holds the provenance (git SHA, dirty flag, Python, CPUs, seed, job-list
digest).  Standard error gets a readable table.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB = os.path.join(ROOT, "perfbench", "job.py")
SRC = os.path.join(ROOT, "src")

#: A job running longer than this is killed and counted as failed.
JOB_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "check_s": "s",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "import.repro_s": "s",
    "systems.build_s": "s",
    "mc.init_s": "s",
    "kripke.states": "count",
    "mc.bitset.check_s": "s",
    "mc.symbolic.check_s": "s",
    "kripke.symbolic.preimage_s": "s",
    "kripke.symbolic.image_s": "s",
    "bdd.relprod_s": "s",
    "bdd.apply_s": "s",
    "bdd.rename_s": "s",
    "bdd.relprod_calls": "count",
    "bdd.peak_live_nodes": "count",
    "bdd.cache_hit_ratio": "ratio",
    "bdd.gc_runs": "count",
    "sat.solve_s": "s",
    "sat.solve_calls": "count",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.decisions": "count",
    "mc.ic3.check_s": "s",
    "mc.ic3.obligations": "count",
    "mc.ic3.generalization_queries": "count",
    "mc.bmc.check_s": "s",
    "runtime.race_s": "s",
    "runtime.worker_build_s": "s",
    "runtime.worker_check_s": "s",
    "runtime.overhead_s": "s",
    "runtime.workers_launched": "count",
    "runtime.restarts": "count",
    "process.start_exit_s": "s",
    "trace.overhead_s": "s",
}


class JobFailed(Exception):
    """A job exited abnormally or printed no result."""


def run_job(spec, trace_dir=None):
    """Spawn one job, wait for it, and time it from this side.

    Returns the job's own result plus ``wall_s`` (spawn to reap),
    ``setup_s`` (spawn to the first ``check``) and ``rss_mb`` (the child's
    max RSS from ``wait4``).
    """
    payload = dict(spec, trace_dir=trace_dir)
    # A fixed hash seed keeps set and dict orders, and so the work, the same.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, JOB, json.dumps(payload)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    # A hung job is killed with its whole process group (portfolio workers).
    watchdog = threading.Timer(JOB_TIMEOUT_S, os.killpg, (child.pid, signal.SIGKILL))
    watchdog.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
        child.stdout.close()
    reaped = time.monotonic()
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").strip().splitlines()
    if child.returncode != 0 or not lines:
        raise JobFailed("%s exited with %d" % (workloads.label(spec), child.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = reaped - spawned
    result["setup_s"] = result["first_check"] - spawned
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    return result


class Tally:
    """Verdict accounting of a run, against the reference table."""

    def __init__(self):
        self.attempted = 0
        self.decided = 0
        self.wrong = []
        self.failed_jobs = []

    def add(self, spec, verdicts):
        for name, verdict in verdicts.items():
            if verdict == "skipped":
                continue  # outside the engine's fragment: not an attempt
            self.attempted += 1
            if verdict not in ("True", "False"):
                continue
            self.decided += 1
            if (verdict == "True") != workloads.expected(spec, name):
                self.wrong.append("%s: %s = %s" % (workloads.label(spec), name, verdict))

    @property
    def failed(self):
        return self.attempted - self.decided + len(self.wrong) + len(self.failed_jobs)


def run_loop(jobs, seed, seconds, trace, scratch):
    """Run the job list in seeded permutations until the next job would overrun.

    Every pass kind (untraced, and traced with ``trace``) first gets one
    full cycle over the list.  Traced jobs write their records under
    ``scratch``.  Returns ``(samples, tally)``: per pass kind, the list of
    each job's results.
    """
    rng = random.Random(seed)
    kinds = [False, True] if trace else [False]
    samples = {kind: [[] for _ in jobs] for kind in kinds}
    took = [0.0] * len(jobs)
    tally = Tally()
    start = time.monotonic()
    for cycle in itertools.count():
        traced = kinds[cycle % len(kinds)]
        order = list(range(len(jobs)))
        rng.shuffle(order)
        for index in order:
            if cycle >= len(kinds) and time.monotonic() - start + took[index] > seconds:
                return samples, tally
            trace_dir = None
            if traced:
                trace_dir = os.path.join(scratch, "cycle%d-job%d" % (cycle, index))
                os.makedirs(trace_dir)
            began = time.monotonic()
            try:
                result = run_job(jobs[index], trace_dir)
            except JobFailed as error:
                tally.failed_jobs.append(str(error))
                return samples, tally
            took[index] = time.monotonic() - began
            samples[traced][index].append(result)
            tally.add(jobs[index], result["verdicts"])


def per_job_minima(samples, key):
    """For each job, the minimum of ``key(result)`` over its first n samples.

    n is the fewest samples any job has: a minimum falls as samples are
    added, so a job must not read faster because the others got quicker
    and left time for one more of its runs.
    """
    n = min(len(rs) for rs in samples)
    return [min(key(result) for result in rs[:n]) for rs in samples]


def end_to_end(samples, tally):
    def total(key):
        return sum(per_job_minima(samples, lambda r: r[key]))

    return {
        "wall_s": total("wall_s"),
        "setup_s": total("setup_s"),
        "check_s": total("check_s"),
        "decided_ratio": tally.decided / tally.attempted,
        "peak_rss_mb": max(per_job_minima(samples, lambda r: r["rss_mb"])),
    }


def per_layer(untraced, traced):
    """Per-layer metrics and self time per layer of the traced runs."""

    def total(key):
        return sum(per_job_minima(traced, key))

    metric_names = traced[0][0]["layers"]["metrics"]
    metrics = {}
    for name in metric_names:
        if name == "bdd.peak_live_nodes":
            metrics[name] = max(
                per_job_minima(traced, lambda r: r["layers"]["metrics"][name])
            )
        else:
            metrics[name] = total(lambda r: r["layers"]["metrics"][name])
    lookups = metrics.pop("bdd.cache_lookups")
    hits = metrics.pop("bdd.cache_hits")
    metrics["bdd.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["process.start_exit_s"] = total(
        lambda r: r["wall_s"] - sum(r["layers"]["layers"].values())
    )
    metrics["trace.overhead_s"] = total(lambda r: r["wall_s"]) - sum(
        per_job_minima(untraced, lambda r: r["wall_s"])
    )
    names = {name for rs in traced for r in rs for name in r["layers"]["layers"]}
    layers = {
        name: total(lambda r: r["layers"]["layers"].get(name, 0.0)) for name in names
    }
    layers["process"] = metrics["process.start_exit_s"]
    return metrics, layers


def provenance(workload, seed):
    def git(*args):
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # Only the checkout's own repository counts, not one enclosing it.
    top = git("rev-parse", "--show-toplevel")
    inside = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    sha = git("rev-parse", "HEAD") if inside else None
    dirty = git("status", "--porcelain", "--untracked-files=no") if inside else None
    return {
        "git_sha": sha or "unknown",
        "dirty": None if sha is None or dirty is None else bool(dirty),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": workload,
        "jobs_digest": workloads.digest(workload),
    }


def measure(workload, seed, seconds, trace):
    """One benchmark run: ``(result, layers, wrong verdicts, provenance)``."""
    origin = provenance(workload, seed)
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    jobs = workloads.WORKLOADS[workload]
    # Inside the checkout, and private to this run.
    scratch = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        samples, tally = run_loop(jobs, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in tally.failed_jobs + tally.wrong:
        print("error: " + line, file=sys.stderr)
    layers = None
    if tally.failed_jobs:
        metrics = {}
    elif trace:
        metrics, layers = per_layer(samples[False], samples[True])
    else:
        metrics = end_to_end(samples[False], tally)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": not tally.wrong and not tally.failed_jobs,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    return result, layers, len(tally.wrong), origin


def print_table(workload, result, layers, wrong, out):
    print(
        "%s: wrong_verdicts=%d failed=%d attempted=%d"
        % (workload, wrong, result["failed"], result["attempted"]),
        file=out,
    )
    for name, metric in result["metrics"].items():
        print("  %-32s %14.6g %s" % (name, metric["value"], metric["unit"]), file=out)
    if layers:
        print("  self time by layer:", file=out)
        for name, seconds in sorted(layers.items(), key=lambda item: -item[1]):
            print("    %-12s %10.4f s" % (name, seconds), file=out)
        largest = max(layers, key=layers.get)
        predicted = workloads.PREDICTED_LAYER[workload]
        print(
            "  largest self-time layer: %s (predicted %s: %s)"
            % (largest, "/".join(predicted), "met" if largest in predicted else "NOT met"),
            file=out,
        )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no repro sources under %s" % SRC, file=sys.stderr)
        return 2
    result, layers, wrong, origin = measure(
        args.workload, args.seed, args.seconds, args.trace
    )
    print_table(args.workload, result, layers, wrong, sys.stderr)
    print(json.dumps({"provenance": origin}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
