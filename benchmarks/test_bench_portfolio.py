"""Portfolio / runtime overhead guards.

Three claims from ``docs/RESILIENCE.md`` are measured here instead of
trusted:

1. a **disabled checkpoint** (no budget armed, no chaos hook) is cheap
   enough to live in the engine hot loops permanently — same product-form
   guard as the tracing overhead check in ``test_bench_obs.py``;
2. on a multi-core box the **portfolio race costs < 1.3×** the best solo
   engine on the ``r = 10`` symbolic property sweep — each raced engine
   keeps one worker for the whole sweep and builds once, as the solo
   engine does, so the price of the race is process plumbing, not
   recomputation;
3. sharding independent checks across **4 supervised workers is ≥ 2×**
   faster than running them serially.

Guards 2 and 3 need real parallelism and are skipped below 4 CPU cores;
the smoke row and the checkpoint guard run everywhere, so
``BENCH_results.json`` always carries a portfolio baseline.
"""

import os
import time

import pytest

from repro.mc import SymbolicCTLModelChecker
from repro.runtime import limits
from repro.runtime.chaos import ChaosConfig
from repro.runtime.portfolio import PortfolioModelChecker, builder_source, run_engine_check
from repro.runtime.supervisor import Supervisor, WorkerTask
from repro.systems import token_ring

#: Disabled checkpoints may claim at most this share of the r=10 sweep.
_MAX_CHECKPOINT_FRACTION = 0.05

#: Portfolio race wall-clock vs the best solo engine, multi-core only.
_MAX_PORTFOLIO_OVERHEAD = 1.3

#: Required speedup of the 4-worker shard over the serial run.
_MIN_SHARD_SPEEDUP = 2.0

_SWEEP_SIZE = 10

#: Forces chaos off inside benchmark workers under the CI chaos lane.
_NO_CHAOS = ChaosConfig()

_needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel-speedup guards need at least 4 CPU cores",
)


def _ring_sources(size):
    """Each engine's natural encoding, built inside the worker (CLI parity)."""
    return {
        "bitset": builder_source("repro.systems.token_ring", "build_token_ring", size),
        "bdd": builder_source("repro.systems.token_ring", "symbolic_token_ring", size),
        "bmc": builder_source(
            "repro.systems.token_ring", "symbolic_token_ring", size, domain="free"
        ),
        "ic3": builder_source(
            "repro.systems.token_ring", "symbolic_token_ring", size, domain="free"
        ),
    }


def _run_sweep():
    structure = token_ring.symbolic_token_ring(_SWEEP_SIZE)
    checker = SymbolicCTLModelChecker(structure)
    verdicts = checker.check_batch(token_ring.ring_properties())
    assert all(verdicts.values())


def _count_sweep_checkpoints() -> int:
    hits = []
    limits.set_chaos_hook(lambda site: hits.append(site))
    try:
        _run_sweep()
    finally:
        limits.set_chaos_hook(None)
    return len(hits)


def _disabled_checkpoint_cost_ns(calls: int = 200_000) -> float:
    assert limits.current_budget() is None
    start = time.perf_counter_ns()
    for _ in range(calls):
        limits.checkpoint("bench.probe", bdd_nodes=1)
    return (time.perf_counter_ns() - start) / calls


@pytest.mark.bench_smoke
def test_disabled_checkpoint_overhead_under_5_percent_on_r10_sweep(benchmark):
    benchmark.group = "runtime-overhead"
    benchmark.extra_info["n"] = _SWEEP_SIZE

    checkpoint_count = _count_sweep_checkpoints()
    assert checkpoint_count > 0, "the sweep must pass through engine checkpoints"

    per_call_ns = _disabled_checkpoint_cost_ns()

    start = time.perf_counter_ns()
    benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    sweep_ns = time.perf_counter_ns() - start

    fraction = checkpoint_count * per_call_ns / sweep_ns
    benchmark.extra_info["checkpoint_count"] = checkpoint_count
    benchmark.extra_info["disabled_checkpoint_cost_ns"] = round(per_call_ns, 2)
    benchmark.extra_info["overhead_fraction"] = round(fraction, 6)
    assert fraction < _MAX_CHECKPOINT_FRACTION, (
        "disabled-checkpoint worst case %.3f%% of the r=%d sweep (%d checkpoints "
        "at %.0fns each over %.0fms)"
        % (100 * fraction, _SWEEP_SIZE, checkpoint_count, per_call_ns, sweep_ns / 1e6)
    )


@pytest.mark.bench_smoke
def test_portfolio_race_smoke(benchmark):
    """One supervised race, any machine: the baseline row for the portfolio."""
    benchmark.group = "portfolio-race"
    checker = PortfolioModelChecker(
        sources=_ring_sources(4), bound=8, chaos=_NO_CHAOS
    )
    formula = token_ring.ring_mutual_exclusion(4)
    with checker:
        verdict = benchmark.pedantic(checker.check, args=(formula,), rounds=1, iterations=1)
    assert verdict is True
    benchmark.extra_info["winner"] = checker.last_detail
    benchmark.extra_info["outcomes"] = dict(checker.last_outcomes)


@_needs_cores
def test_portfolio_overhead_vs_best_solo_under_1_3x(benchmark):
    """Racing four engines must cost < 1.3× the best solo on the r=10 sweep."""
    benchmark.group = "portfolio-overhead"
    benchmark.extra_info["n"] = _SWEEP_SIZE
    formulas = token_ring.ring_properties()
    sources = _ring_sources(_SWEEP_SIZE)

    # Best solo on this sweep is the symbolic engine; measure it the way a
    # race winner pays for it: one build, then one check at a time.
    start = time.perf_counter_ns()
    solo = SymbolicCTLModelChecker(token_ring.symbolic_token_ring(_SWEEP_SIZE))
    for formula in formulas.values():
        assert solo.check(formula) is True
    solo_ns = time.perf_counter_ns() - start

    checker = PortfolioModelChecker(sources=sources, bound=8, chaos=_NO_CHAOS)

    def _race_sweep():
        verdicts = checker.check_batch(formulas)
        assert all(verdicts.values())

    start = time.perf_counter_ns()
    with checker:
        benchmark.pedantic(_race_sweep, rounds=1, iterations=1)
    portfolio_ns = time.perf_counter_ns() - start

    overhead = portfolio_ns / solo_ns
    benchmark.extra_info["solo_seconds"] = solo_ns / 1e9
    benchmark.extra_info["overhead_ratio"] = round(overhead, 3)
    assert overhead < _MAX_PORTFOLIO_OVERHEAD, (
        "portfolio sweep took %.2fx the best solo engine (%.0fms vs %.0fms)"
        % (overhead, portfolio_ns / 1e6, solo_ns / 1e6)
    )


@_needs_cores
def test_four_worker_shard_is_at_least_2x_faster(benchmark):
    """Four independent sweep shards, supervised in parallel, vs serially."""
    benchmark.group = "portfolio-shard"
    shards = [("ring", 8), ("ring", 9), ("mutex", 6), ("counter", 10)]
    tasks = []
    for index, (system, size) in enumerate(shards):
        module = "repro.systems.%s" % ("token_ring" if system == "ring" else system)
        builder = {
            "ring": "symbolic_token_ring",
            "mutex": "symbolic_mutex",
            "counter": "symbolic_counter",
        }[system]
        tasks.append(
            WorkerTask(
                id="shard-%d" % index,
                fn=run_engine_check,
                args=("bdd", builder_source(module, builder, size), None),
                chaos=_NO_CHAOS,
            )
        )

    # The worker entry point needs a real formula; give each shard its
    # family's mutual-exclusion property.
    from repro.systems import counter as counter_system
    from repro.systems import mutex as mutex_system

    formulas = [
        token_ring.ring_mutual_exclusion(8),
        token_ring.ring_mutual_exclusion(9),
        mutex_system.mutex_safety(6),
        counter_system.counter_nonzero(10),
    ]
    for task, formula in zip(tasks, formulas):
        task.args = (task.args[0], task.args[1], formula)

    start = time.perf_counter_ns()
    for task in tasks:
        result = run_engine_check(*task.args)
        assert result["verdict"] is True
    serial_ns = time.perf_counter_ns() - start

    def _parallel():
        with Supervisor(hang_timeout=120.0) as supervisor:
            outcomes = supervisor.run(tasks)
        assert all(outcome.ok for outcome in outcomes.values())

    start = time.perf_counter_ns()
    benchmark.pedantic(_parallel, rounds=1, iterations=1)
    parallel_ns = time.perf_counter_ns() - start

    speedup = serial_ns / parallel_ns
    benchmark.extra_info["serial_seconds"] = serial_ns / 1e9
    benchmark.extra_info["speedup"] = round(speedup, 3)
    assert speedup >= _MIN_SHARD_SPEEDUP, (
        "4-worker shard speedup %.2fx (serial %.0fms, parallel %.0fms)"
        % (speedup, serial_ns / 1e6, parallel_ns / 1e6)
    )
