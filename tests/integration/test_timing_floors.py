"""Wall-clock floors: the few performance claims asserted inside the suite.

* the bitset engine beats the naive oracle on M_6, plain and fair;
* a disabled span site, sanitizer hook or budget checkpoint costs under 5%
  of the work it instruments (and a disabled hook site under 2 µs);
* on four or more cores, a portfolio race costs under 1.3× the best solo
  engine and a 4-worker shard is at least 2× faster than running serially.

The overhead guards use a product form: (how often the site fires) ×
(per-call cost of the disabled site, from a tight loop) against the wall
time of the instrumented workload.  Comparing two full timings at a 5%
threshold would flake on machine noise; the firing count and the
nanosecond-scale site cost are both stable.
"""

import os
import time

import pytest

import repro.bdd.sanitize as bdd_sanitize
import repro.sat.sanitize as sat_sanitize
from repro.mc import ICTLStarModelChecker, SymbolicCTLModelChecker
from repro.mc.bmc import BoundedModelChecker
from repro.obs.sinks import MemorySink
from repro.obs.trace import is_enabled, recording, span
from repro.runtime import limits
from repro.runtime.chaos import ChaosConfig
from repro.runtime.portfolio import PortfolioModelChecker, builder_source, run_engine_check
from repro.runtime.supervisor import Supervisor, WorkerTask
from repro.systems import counter, mutex, token_ring

#: Disabled instrumentation may claim at most this share of a workload.
_MAX_OVERHEAD_FRACTION = 0.05

#: Portfolio race wall-clock vs the best solo engine, multi-core only.
_MAX_PORTFOLIO_OVERHEAD = 1.3

#: Required speedup of the 4-worker shard over the serial run.
_MIN_SHARD_SPEEDUP = 2.0

#: Ring size of the guarded symbolic sweep (beyond the explicit engines' range).
_SWEEP_SIZE = 10

#: Forces chaos off inside workers even when REPRO_CHAOS is exported.
_NO_CHAOS = ChaosConfig()

_needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel-speedup guards need at least 4 CPU cores",
)


def _run_sweep():
    structure = token_ring.symbolic_token_ring(_SWEEP_SIZE)
    checker = SymbolicCTLModelChecker(structure)
    verdicts = checker.check_batch(token_ring.ring_properties())
    assert all(verdicts.values())


def _wall_ns(fn) -> int:
    start = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - start


def _assert_overhead(what, count, per_call_ns, workload_ns):
    fraction = count * per_call_ns / workload_ns
    assert fraction < _MAX_OVERHEAD_FRACTION, (
        "disabled %s worst case %.3f%% (%d firings at %.0fns each over %.0fms)"
        % (what, 100 * fraction, count, per_call_ns, workload_ns / 1e6)
    )


# -- the bitset engine against the naive oracle ----------------------------


def _check_family(structure, engine, fairness=None):
    checker = ICTLStarModelChecker(structure, engine=engine, fairness=fairness)
    properties = token_ring.fair_ring_properties() if fairness else token_ring.ring_properties()
    results = checker.check_batch(properties)
    assert all(results.values())


def test_bitset_speedup_at_largest_seed_size(ring6):
    """Best of three per engine after a warm-up; a 2x floor (observed ~6-7x)."""
    timings = {}
    for engine in ("bitset", "naive"):
        _check_family(ring6, engine)  # warm-up: exclude one-off import costs
        timings[engine] = min(_wall_ns(lambda: _check_family(ring6, engine)) for _ in range(3))
    assert timings["bitset"] * 2 < timings["naive"], timings


def test_fair_bitset_beats_naive_at_ring6(ring6):
    constraint = token_ring.ring_scheduler_fairness(6)

    def wall(engine):
        return _wall_ns(lambda: _check_family(ring6, engine, constraint))

    # Warm the shared compilation so both engines measure checking only.
    wall("bitset")
    fast = min(wall("bitset") for _ in range(3))
    slow = min(wall("naive") for _ in range(3))
    assert fast < slow, "fair bitset checking (%dns) not faster than naive (%dns)" % (fast, slow)


# -- disabled instrumentation ----------------------------------------------


#: Iterations of each tight loop that measures a disabled site.
_PROBE_CALLS = 200_000


def _disabled_span_cost_ns() -> float:
    assert not is_enabled()
    start = time.perf_counter_ns()
    for _ in range(_PROBE_CALLS):
        with span("obs.overhead.probe", k=1):
            pass
    return (time.perf_counter_ns() - start) / _PROBE_CALLS


def test_disabled_tracing_overhead_under_5_percent_on_r10_sweep():
    sink = MemorySink()
    with recording(sinks=[sink]):
        _run_sweep()
    span_count = len(sink.spans) + len(sink.events)
    assert span_count > 0
    per_call_ns = _disabled_span_cost_ns()
    assert not is_enabled()
    _assert_overhead("tracing", span_count, per_call_ns, _wall_ns(_run_sweep))


def _count_hook_firings(workload) -> int:
    """Run ``workload`` in count-only mode and return the hook firings."""
    before = (bdd_sanitize.CALLS, sat_sanitize.CALLS)
    previous = (bdd_sanitize.MODE, sat_sanitize.MODE)
    bdd_sanitize.MODE = sat_sanitize.MODE = 2
    try:
        workload()
    finally:
        bdd_sanitize.MODE, sat_sanitize.MODE = previous
    return (bdd_sanitize.CALLS - before[0]) + (sat_sanitize.CALLS - before[1])


def _disabled_hook_cost_ns() -> float:
    # The same shape as the inline sites in BDDManager/Solver: one
    # module-global load and a falsy test, nothing else.
    assert not bdd_sanitize.enabled() and not sat_sanitize.enabled()
    probe = object()
    start = time.perf_counter_ns()
    for _ in range(_PROBE_CALLS):
        if bdd_sanitize.MODE:
            bdd_sanitize.maybe_check_manager(probe)  # pragma: no cover
    return (time.perf_counter_ns() - start) / _PROBE_CALLS


def _run_bmc_proof():
    checker = BoundedModelChecker(mutex.build_mutex(2), bound=10)
    assert checker.check(mutex.mutex_safety(2))


def test_disabled_sanitizer_overhead_under_5_percent_on_r10_sweep():
    hook_count = _count_hook_firings(_run_sweep)
    per_call_ns = _disabled_hook_cost_ns()
    _assert_overhead("sanitizer", hook_count, per_call_ns, _wall_ns(_run_sweep))
    # The pure-symbolic sweep may fire no hooks at all (no GC pressure,
    # no SAT) — then the overhead is genuinely zero, but keep the
    # per-site cost itself honest so the guard never goes vacuous.
    assert per_call_ns < 2_000, "a disabled sanitizer hook site costs %.0fns" % per_call_ns


def test_disabled_sanitizer_overhead_under_5_percent_on_sat_proof():
    """A k-induction mutex proof calls ``solve()`` repeatedly: the hooks really fire."""
    hook_count = _count_hook_firings(_run_bmc_proof)
    assert hook_count > 0, "the BMC proof should hit the solve() hook"
    per_call_ns = _disabled_hook_cost_ns()
    _assert_overhead("sanitizer", hook_count, per_call_ns, _wall_ns(_run_bmc_proof))


def test_disabled_checkpoint_overhead_under_5_percent_on_r10_sweep():
    hits = []
    limits.set_chaos_hook(hits.append)
    try:
        _run_sweep()
    finally:
        limits.set_chaos_hook(None)
    assert hits, "the sweep must pass through engine checkpoints"
    assert limits.current_budget() is None
    start = time.perf_counter_ns()
    for _ in range(_PROBE_CALLS):
        limits.checkpoint("bench.probe", bdd_nodes=1)
    per_call_ns = (time.perf_counter_ns() - start) / _PROBE_CALLS
    _assert_overhead("checkpoint", len(hits), per_call_ns, _wall_ns(_run_sweep))


# -- parallel runtime ------------------------------------------------------


def _ring_sources(size):
    """Each engine's natural encoding, built inside the worker (CLI parity)."""
    module = "repro.systems.token_ring"
    return {
        "bitset": builder_source(module, "build_token_ring", size),
        "bdd": builder_source(module, "symbolic_token_ring", size),
        "bmc": builder_source(module, "symbolic_token_ring", size, domain="free"),
        "ic3": builder_source(module, "symbolic_token_ring", size, domain="free"),
    }


@_needs_cores
def test_portfolio_overhead_vs_best_solo_under_1_3x():
    """Racing four engines must cost < 1.3× the best solo on the r=10 sweep.

    Each raced engine keeps one worker for the whole sweep and builds once,
    as the solo engine does, so the price of the race is process plumbing.
    """
    formulas = token_ring.ring_properties()

    # Best solo on this sweep is the symbolic engine; measure it the way a
    # race winner pays for it: one build, then one check at a time.
    def solo():
        checker = SymbolicCTLModelChecker(token_ring.symbolic_token_ring(_SWEEP_SIZE))
        for formula in formulas.values():
            assert checker.check(formula) is True

    solo_ns = _wall_ns(solo)
    checker = PortfolioModelChecker(sources=_ring_sources(_SWEEP_SIZE), bound=8, chaos=_NO_CHAOS)

    def race():
        with checker:
            assert all(checker.check_batch(formulas).values())

    portfolio_ns = _wall_ns(race)
    overhead = portfolio_ns / solo_ns
    assert overhead < _MAX_PORTFOLIO_OVERHEAD, (
        "portfolio sweep took %.2fx the best solo engine (%.0fms vs %.0fms)"
        % (overhead, portfolio_ns / 1e6, solo_ns / 1e6)
    )


@_needs_cores
def test_four_worker_shard_is_at_least_2x_faster():
    """Four independent bdd checks, supervised in parallel, vs serially."""
    shards = [
        ("repro.systems.token_ring", "symbolic_token_ring", 8, token_ring.ring_mutual_exclusion(8)),
        ("repro.systems.token_ring", "symbolic_token_ring", 9, token_ring.ring_mutual_exclusion(9)),
        ("repro.systems.mutex", "symbolic_mutex", 6, mutex.mutex_safety(6)),
        ("repro.systems.counter", "symbolic_counter", 10, counter.counter_nonzero(10)),
    ]
    tasks = [
        WorkerTask(
            id="shard-%d" % index,
            fn=run_engine_check,
            args=("bdd", builder_source(module, builder, size), formula),
            chaos=_NO_CHAOS,
        )
        for index, (module, builder, size, formula) in enumerate(shards)
    ]

    def serial():
        for task in tasks:
            assert run_engine_check(*task.args)["verdict"] is True

    def parallel():
        with Supervisor(hang_timeout=120.0) as supervisor:
            outcomes = supervisor.run(tasks)
        assert all(outcome.ok for outcome in outcomes.values())

    serial_ns = _wall_ns(serial)
    parallel_ns = _wall_ns(parallel)
    speedup = serial_ns / parallel_ns
    assert speedup >= _MIN_SHARD_SPEEDUP, (
        "4-worker shard speedup %.2fx (serial %.0fms, parallel %.0fms)"
        % (speedup, serial_ns / 1e6, parallel_ns / 1e6)
    )
