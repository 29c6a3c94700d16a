"""Command-line interface: run the paper's experiments from a shell.

``python -m repro`` (or the ``repro-mc`` console script) checks a property
family on a system of the requested size with the requested engine, printing
a small results table::

    $ python -m repro --engine bdd --size 10
    M_10 via engine=bdd (direct symbolic encoding)
      states      : 10240
      transitions : 61430
      ...

``--system`` picks the process family: the Section 5 token ``ring`` (the
default, checked against the paper's properties and invariants), the
lock-based ``mutex`` protocol, or the saturating ripple ``counter``.  The
engine choices come from :data:`repro.mc.bitset.ENGINE_NAMES`
(``docs/ENGINES.md`` is the when-to-use-which guide).  With ``--engine bdd``
the system is encoded *directly* as binary decision diagrams (the explicit
global state graph is never built), so sizes well beyond the explicit
engines' range remain tractable; with the explicit engines the global graph
is built first, exactly like the library's programmatic path.  The SAT
engines also start from the direct encoding but never run a reachability
fixpoint: ``--engine bmc`` unrolls it into an incremental solver and proves
invariants by k-induction (or refutes them with a depth-minimal
counterexample within ``--bound``), while ``--engine ic3`` proves them
*unboundedly* by property-directed reachability, reporting a re-verified
inductive-invariant certificate (``--bound`` then caps the frame count, a
divergence safety net rather than a proof parameter).  Properties outside a
SAT engine's fragment are reported as skipped.  ``--engine portfolio``
races the other engines on every property, one supervised worker process
per engine for the whole run — first conclusive verdict wins, crashed or
hung workers are restarted, and ``--workers`` caps the pool (see
``docs/RESILIENCE.md``).  ``--timeout``
and ``--memory-limit`` attach a resource budget that every engine observes
at its cooperative checkpoints; ``--buggy`` builds the seeded-bug system
variants.  ``--fairness`` switches
every check to the fairness-constrained semantics and adds the
fairness-dependent liveness family.  ``--experiments`` instead replays the
full E1–E11 experiment suite and prints one summary line per experiment.

The process exits non-zero when a checked property is violated (or an
experiment's headline claim fails to reproduce), so the command doubles as a
CI smoke check.

Observability (see ``docs/OBSERVABILITY.md``): ``--trace FILE`` records a
Chrome/Perfetto trace-event JSON of the run's nested spans (load it at
``ui.perfetto.dev``), ``--metrics FILE`` dumps the metrics registry as JSONL
(one labeled series per line), ``--progress`` prints rate-limited heartbeat
lines from the engines' outer loops, and ``--profile`` emits exactly one
JSON document on stderr: the phase timings plus the same registry snapshot
``--metrics`` writes.  For ``--engine portfolio`` the trace and metrics include
the raced workers' own telemetry (one Perfetto lane per engine,
``worker=<engine>``-labelled metric rows); analyse the artifacts offline
with the ``repro-obs`` console script (``repro-obs report``,
``repro-obs diff``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional

# The registry module only: each engine is imported when a run builds it.
from repro.mc.bitset import DEFAULT_BOUND, DEFAULT_MAX_FRAMES, ENGINE_NAMES, SAT_ENGINES

__all__ = ["main", "build_parser"]

#: The system families the CLI can check, in presentation order.
SYSTEM_NAMES = ("ring", "mutex", "counter")

#: The ``schema`` of every ``--profile`` document (single checks and experiments).
PROFILE_SCHEMA = "repro.profile/v3"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mc",
        description=(
            "Model check a process family from the Clarke-Grumberg-Browne "
            "PODC '86 reproduction (systems: %s) with one of the engines: "
            "%s." % (", ".join(SYSTEM_NAMES), ", ".join(ENGINE_NAMES))
        ),
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="bitset",
        help=(
            # Deliberate subset: the engines that skip the explicit graph.
            "engine to use (default: bitset; bdd, bmc and ic3 never build "  # repro-lint: disable=R001
            "the explicit graph — see docs/ENGINES.md)"
        ),
    )
    parser.add_argument(
        "--system",
        choices=SYSTEM_NAMES,
        default="ring",
        help=(
            "process family to check (default: ring — the paper's Section 5 "
            "token ring)"
        ),
    )
    parser.add_argument(
        "--size",
        "--ring-size",
        dest="size",
        type=int,
        default=4,
        metavar="N",
        help=(
            "number of processes of the family (default: 4); --ring-size is "
            "the backward-compatible alias"
        ),
    )
    parser.add_argument(
        "--bound",
        type=int,
        default=None,
        metavar="K",
        help=(
            "with --engine bmc: falsification/induction depth ceiling "
            "(default: %d); with --engine ic3: frame-count ceiling "
            "(default: %d)" % (DEFAULT_BOUND, DEFAULT_MAX_FRAMES)
        ),
    )
    parser.add_argument(
        "--fairness",
        action="store_true",
        help=(
            "check under per-process scheduler fairness and include the "
            "fairness-dependent liveness family (ring and mutex only)"
        ),
    )
    parser.add_argument(
        "--experiments",
        action="store_true",
        help="run the full E1-E11 experiment suite instead of a single check",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "emit a JSON profile to stderr: per-phase wall times (build, each "
            "check) plus the metrics registry snapshot, which holds the "
            "engines' counters (bdd.* node/cache/GC gauges, sat.* solver "
            "statistics, ic3.* frame/obligation counters)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="with --experiments: use the smaller quick parameters",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help=(
            "record a Chrome/Perfetto trace-event JSON of the run's nested "
            "spans to FILE (open it at ui.perfetto.dev, or analyse it with "
            "repro-obs report)"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help=(
            "write the metrics registry to FILE as JSONL, one labeled "
            "series per line"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print rate-limited [progress] heartbeat lines from the "
            "engines' outer loops (fixpoint rounds, BMC depths, IC3 frames)"
        ),
    )
    parser.add_argument(
        "--buggy",
        action="store_true",
        help=(
            "build the seeded-bug variant of the system (every family has "
            "one) so violated properties exercise the counterexample and "
            "portfolio-disagreement paths"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget for the checks; engines observe it at their "
            "cooperative checkpoints and report BUDGET EXHAUSTED instead of "
            "running away (portfolio workers each get the full budget)"
        ),
    )
    parser.add_argument(
        "--memory-limit",
        type=int,
        default=None,
        metavar="MB",
        help=(
            "address-space ceiling in mebibytes, enforced with setrlimit; "
            "with --engine portfolio each worker process gets the ceiling, "
            "otherwise it applies to this process"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --engine portfolio: cap the number of racing worker "
            "processes (default: one per raced engine)"
        ),
    )
    return parser


#: Per-system (``repro.systems`` module, property family, explicit builder,
#: symbolic builder, display name).
_SYSTEMS = {
    "ring": ("token_ring", "ring_family", "build_token_ring", "symbolic_token_ring", "M_%d"),
    "mutex": ("mutex", "mutex_family", "build_mutex", "symbolic_mutex", "mutex(%d)"),
    "counter": ("counter", "counter_family", "build_counter", "symbolic_counter", "counter(%d)"),
}


def _recipes(system: str, size: int, buggy: bool):
    """Engine -> ``(builder, args, kwargs)``: how to build the structure it checks.

    Each engine gets its natural encoding: the explicit engines the global
    state graph, ``bdd`` the direct symbolic encoding, and the SAT engines
    its free domain, which skips the symbolic reachability fixpoint — the
    whole point of the SAT engines is that the bound (bmc) or the
    discovered invariant (ic3), not the reachable set, pays.  The builders
    are functions of the family's ``repro.systems`` module.
    """
    _, _, explicit, symbolic, _ = _SYSTEMS[system]
    graph = (explicit, (size,), {"buggy": buggy})
    free = (symbolic, (size,), {"buggy": buggy, "domain": "free"})
    return {
        "bitset": graph,
        "naive": graph,
        "bdd": (symbolic, (size,), {"buggy": buggy}),
        "bmc": free,
        "ic3": free,
    }


def _make_budget(timeout: Optional[float], memory_limit: Optional[int]):
    """Build a :class:`~repro.runtime.limits.ResourceBudget`, or ``None``."""
    if timeout is None and memory_limit is None:
        return None
    from repro.runtime.limits import ResourceBudget

    return ResourceBudget(
        deadline_s=timeout,
        memory_bytes=None if memory_limit is None else memory_limit * 1024 * 1024,
    )


def _timed_phase(
    phases: List[Dict[str, Any]], name: str, function: Callable[..., Any], *args: Any, **kwargs: Any
) -> Any:
    """Call ``function`` and append its monotonic seconds to ``phases`` as phase ``name``.

    The phase is recorded even when the call raises, so undecided checks
    (skipped, inconclusive, out of budget, crashed) are timed too.  With
    tracing enabled the call is a ``timed.<function>`` span.
    """
    from repro.obs.trace import monotonic_ns, span

    start = monotonic_ns()
    try:
        with span("timed." + getattr(function, "__name__", "call")):
            return function(*args, **kwargs)
    finally:
        phases.append({"name": name, "seconds": (monotonic_ns() - start) / 1e9})


def _run_check(
    system: str,
    engine: str,
    size: int,
    fairness: bool,
    out,
    profile: bool = False,
    bound: Optional[int] = None,
    buggy: bool = False,
    timeout: Optional[float] = None,
    memory_limit: Optional[int] = None,
    workers: Optional[int] = None,
) -> bool:
    import contextlib
    import importlib

    from repro.errors import (
        BudgetExceededError,
        EngineCrashError,
        FragmentError,
        InconclusiveError,
    )

    module, family_name, _, _, display = _SYSTEMS[system]
    systems = importlib.import_module("repro.systems." + module)
    family, constraint = getattr(systems, family_name)(size, fairness)
    recipes = _recipes(system, size, buggy)
    label = display % size
    if buggy:
        label += " (buggy)"
    budget = _make_budget(timeout, memory_limit)
    phases: List[Dict[str, Any]] = []

    if engine == "portfolio":
        from repro.runtime.portfolio import (
            DEFAULT_RACE_ENGINES,
            PortfolioModelChecker,
            builder_source,
        )

        if constraint is not None:  # pragma: no cover - rejected by main()
            raise FragmentError("the portfolio engine rejects fairness")
        checker = _timed_phase(
            phases,
            "build",
            PortfolioModelChecker,
            sources={
                name: builder_source(systems.__name__, builder, *args, **kwargs)
                for name, (builder, args, kwargs) in recipes.items()
                if name in DEFAULT_RACE_ENGINES
            },
            workers=workers,
            bound=bound,
            budget=budget,
        )
        structure = None
        descriptor = "parallel portfolio racing %s" % ", ".join(checker.engines)
    else:
        from repro.mc.indexed import make_checker

        builder, args, kwargs = recipes[engine]
        structure = _timed_phase(phases, "build", getattr(systems, builder), *args, **kwargs)
        checker = make_checker(structure, engine=engine, fairness=constraint, bound=bound)
        if engine == "bmc":
            descriptor = "SAT unrolling of the direct encoding, bound=%d" % checker.bound
        elif engine == "ic3":
            descriptor = "IC3 over the direct encoding, max %d frames" % checker.max_frames
        elif engine == "bdd":
            descriptor = "direct symbolic encoding"
        else:
            descriptor = "explicit state graph"

    print("%s via engine=%s (%s)" % (label, engine, descriptor), file=out)
    if constraint is not None:
        print("  fairness    : %d conditions" % len(constraint), file=out)
    if engine == "portfolio":
        # Structures are built worker-side, one natural encoding per engine.
        print("  workers     : %d" % len(checker.engines), file=out)
        if budget is not None:
            print("  budget      : %s" % budget.as_dict(), file=out)
    elif engine in SAT_ENGINES:
        # No reachability fixpoint ran, so state counts are not available.
        print("  state bits  : %d" % structure.num_bits, file=out)
    else:
        print("  states      : %d" % structure.num_states, file=out)
        print("  transitions : %d" % structure.num_transitions, file=out)
    print("  build       : %.4fs" % phases[0]["seconds"], file=out)
    print("", file=out)
    print("  %-34s %-8s %s" % ("check", "verdict", "seconds"), file=out)
    all_hold = True
    # (name, verdict text, seconds) of every property no engine decided; an
    # undecided property is not a violation — the exit code reflects what
    # was decided.
    undecided = []
    # For the in-process engines a budget is enforced at their cooperative
    # checkpoints; the portfolio hands it to the workers instead.
    budget_scope = contextlib.nullcontext()
    if budget is not None and engine != "portfolio":
        from repro.runtime import limits as _limits

        if budget.memory_bytes is not None:
            _limits.apply_memory_limit(budget.memory_bytes)
        budget_scope = _limits.active(budget)
    # The portfolio's workers live as long as the checker: leaving this block
    # closes it on every path (shutdown_all() covers the Ctrl-C path).
    teardown = checker if engine == "portfolio" else contextlib.nullcontext()
    with budget_scope, teardown:
        for name, formula in family.items():
            try:
                holds = _timed_phase(phases, "check %s" % name, checker.check, formula)
            except FragmentError:
                verdict = "skipped (outside the %s fragment)" % engine
                undecided.append((name, verdict, phases[-1]["seconds"]))
                continue
            except InconclusiveError:
                undecided.append((name, "INCONCLUSIVE (raise --bound)", phases[-1]["seconds"]))
                continue
            except BudgetExceededError as error:
                verdict = "BUDGET EXHAUSTED (%s)" % error.resource
                undecided.append((name, verdict, phases[-1]["seconds"]))
                continue
            except EngineCrashError as error:
                undecided.append((name, "CRASHED (%s)" % error, phases[-1]["seconds"]))
                continue
            all_hold = all_hold and holds
            verdict = str(holds)
            if (engine in SAT_ENGINES or engine == "portfolio") and checker.last_detail:
                verdict = "%s (%s)" % (holds, checker.last_detail)
            print("  %-34s %-8s %.4f" % (name, verdict, phases[-1]["seconds"]), file=out)
    for name, verdict, seconds in undecided:
        print("  %-34s %-8s %.4f" % (name, verdict, seconds), file=out)
    print("", file=out)
    counts = "decided %d, undecided %d" % (len(family) - len(undecided), len(undecided))
    if not all_hold:
        print(
            "  FAILURE: some property/invariant is violated on %s (%s)" % (label, counts),
            file=out,
        )
    elif len(undecided) == len(family):
        # Nothing was decided, so nothing can be said to hold; not a failure.
        print("  no property or invariant was decided on %s (%s)" % (label, counts), file=out)
    else:
        checked_what = (
            "checked properties and invariants" if undecided else "all properties and invariants"
        )
        print("  %s hold on %s (%s)" % (checked_what, label, counts), file=out)
    if profile:
        import json

        from repro.obs.metrics import REGISTRY

        payload = {
            "schema": PROFILE_SCHEMA,
            "mode": "check",
            "engine": engine,
            "system": system,
            "size": size,
            "fairness": fairness,
            "phases": phases,
            "total_seconds": sum(phase["seconds"] for phase in phases),
            "metrics": REGISTRY.snapshot(),
        }
        if engine == "portfolio":
            payload["portfolio"] = dict(checker.last_outcomes)
        if engine == "bmc":
            payload["bound"] = checker.bound
        elif engine == "ic3":
            payload["max_frames"] = checker.max_frames
            if checker.certificate is not None:
                payload["certificate_clauses"] = checker.certificate.num_clauses
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
    return all_hold


#: Per-experiment extractor of the headline "did the paper's claim reproduce"
#: boolean from the experiment's result dictionary.
_EXPERIMENT_HEADLINES = {
    "E1_fig31": lambda r: r["corresponds"] and r["all_agree"],
    "E2_fig41": lambda r: r["counting_matches_size"],
    "E3_nexttime": lambda r: r["holds_only_when_size_divides_3"],
    "E4_fig51": lambda r: r["is_total"] and r["partition_invariant"],
    "E5_invariants": lambda r: r["all_hold"],
    "E6_properties": lambda r: r["all_hold"],
    # The paper's M_2 claim is refuted (documented deviation); the corrected
    # base-3 claim and the transfer workflow must reproduce.
    "E7_correspondence": lambda r: (
        r["corrected_claim_base3_corresponds"] and r["transfers_match_direct"]
    ),
    "E8_explosion": lambda r: (
        r["states_grow_monotonically"]
        and all(row["all_hold"] for row in r["symbolic_sweep"])
    ),
    "E9_conjecture": lambda r: r["conjecture_holds_on_family"],
    "E10_scaling": lambda r: all(row["corresponds"] for row in r["rows"]),
    "E11_fairness": lambda r: (
        r["unfair_fails_everywhere"]
        and r["fair_holds_everywhere"]
        and r["engines_agree"]
        and r["counterexample_valid"]
    ),
}


def _run_experiments(engine: str, quick: bool, out, profile: bool = False) -> bool:
    from repro.analysis import experiments
    from repro.analysis.timing import timed_call

    print("running E1-E11 (engine=%s, quick=%s)" % (engine, quick), file=out)
    ran = timed_call(experiments.run_all, quick=quick, engine=engine)
    print("  %-20s %s" % ("experiment", "reproduced"), file=out)
    ok = True
    headlines = {}
    for name, result in ran.value.items():
        headline = _EXPERIMENT_HEADLINES[name](result)
        headlines[name] = headline
        ok = ok and headline
        print("  %-20s %s" % (name, headline), file=out)
    print("  total: %.2fs" % ran.seconds, file=out)
    if profile:
        import json

        from repro.obs.metrics import REGISTRY

        payload = {
            "schema": PROFILE_SCHEMA,
            "mode": "experiments",
            "engine": engine,
            "quick": quick,
            "experiments": headlines,
            "total_seconds": ran.seconds,
            "metrics": REGISTRY.snapshot(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro`` / the ``repro-mc`` console script."""
    args = build_parser().parse_args(argv)
    out = sys.stdout
    if args.size < 1:
        print("error: --size (--ring-size) must be at least 1", file=sys.stderr)
        return 2
    if args.bound is not None and args.engine not in SAT_ENGINES + ("portfolio",):
        print(
            "error: --bound only applies to the SAT engines or the portfolio "
            "(where it caps its SAT members)",
            file=sys.stderr,
        )
        return 2
    if args.bound is not None and args.bound < 0:
        print("error: --bound must be non-negative", file=sys.stderr)
        return 2
    if args.engine == "ic3" and args.bound is not None and args.bound < 1:
        print("error: the ic3 frame ceiling must be positive", file=sys.stderr)
        return 2
    if args.engine in SAT_ENGINES and args.fairness:
        print(
            "error: the SAT engines (bmc, ic3) do not implement fairness-"
            "constrained semantics; use bitset, naive, or bdd",
            file=sys.stderr,
        )
        return 2
    if args.engine == "portfolio" and args.fairness:
        print(
            "error: the portfolio races the SAT engines, which reject "
            "fairness; use bitset, naive, or bdd",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None and args.engine != "portfolio":
        print("error: --workers only applies to --engine portfolio", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 2
    if args.memory_limit is not None and args.memory_limit < 1:
        print("error: --memory-limit must be at least 1 MiB", file=sys.stderr)
        return 2
    if args.system == "counter" and args.fairness:
        print(
            "error: the counter family has no fairness story (it is "
            "deterministic); use --system ring or mutex",
            file=sys.stderr,
        )
        return 2
    if args.experiments:
        if args.engine in SAT_ENGINES or args.engine == "portfolio":
            print(
                "error: the experiment suite sweeps the full-CTL engines; use "
                "bitset, naive, or bdd",
                file=sys.stderr,
            )
            return 2
        if (
            args.buggy
            or args.workers is not None
            or args.timeout is not None
            or args.memory_limit is not None
        ):
            print(
                "error: --buggy/--timeout/--memory-limit/--workers apply to "
                "single checks, not the experiment suite",
                file=sys.stderr,
            )
            return 2
        if args.system != "ring":
            print(
                "error: --system applies to single checks; the experiment "
                "suite sweeps the paper's ring family",
                file=sys.stderr,
            )
            return 2
        if args.fairness:
            print(
                "error: --fairness applies to single checks; the experiment "
                "suite already replays the fairness story as E11",
                file=sys.stderr,
            )
            return 2

    from repro.obs import progress as obs_progress
    from repro.obs import trace as obs_trace
    from repro.obs.metrics import REGISTRY
    from repro.obs.sinks import ChromeTraceSink, write_metrics_jsonl

    # One run, one registry: repeated in-process main() calls (tests) must
    # not leak counts into each other's --profile/--metrics exports.
    REGISTRY.reset()
    sinks = []
    if args.trace is not None:
        sinks.append(ChromeTraceSink(args.trace))
    if sinks:
        obs_trace.enable(sinks, keep_records=False)
    if args.progress:
        # With --profile, stderr must stay exactly one JSON document, so
        # heartbeats move to stdout alongside the results table.
        obs_progress.enable_progress(stream=out if args.profile else None)
    ok = False
    interrupted = False
    try:
        if args.experiments:
            ok = _run_experiments(args.engine, args.quick, out, profile=args.profile)
        else:
            ok = _run_check(
                args.system,
                args.engine,
                args.size,
                args.fairness,
                out,
                profile=args.profile,
                bound=args.bound,
                buggy=args.buggy,
                timeout=args.timeout,
                memory_limit=args.memory_limit,
                workers=args.workers,
            )
    except KeyboardInterrupt:
        # Ctrl-C must never strand worker processes or lose the artifacts
        # collected so far: tear the supervisors down, fall through to the
        # flushes below, and exit with the conventional 130.
        interrupted = True
        from repro.runtime.supervisor import shutdown_all

        reaped = shutdown_all()
        print("", file=out)
        print(
            "interrupted: stopped after partial results"
            + (" (%d worker pool(s) torn down)" % reaped if reaped else ""),
            file=sys.stderr,
        )
    finally:
        if sinks:
            tracer = obs_trace.disable()
            if tracer is not None:
                tracer.close()
        if args.progress:
            obs_progress.disable_progress()
        if args.metrics is not None:
            write_metrics_jsonl(
                REGISTRY,
                args.metrics,
                extra={
                    "engine": args.engine,
                    "system": args.system,
                    "size": args.size,
                },
            )
    if interrupted:
        return 130
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
