"""Run one verification job the way ``repro-mc`` runs a single check.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/job.py '{"system": "ring", "engine": "bdd", "size": 12,
                               "fairness": true, "buggy": false, "workers": null}'

The job follows the CLI's single-check path through the library's public
API: the system builder, then the checker constructor, then ``check`` once
per property of the family.  The last line of standard output is one JSON
object with the verdicts, the ``time.monotonic()`` stamp of the first
``check`` call (the parent subtracts its spawn stamp from it; the clock is
system-wide on Linux) and the seconds spent inside ``check`` calls, timed
here, outside the library.

With ``"trace_dir"`` set in the spec, the span-recording wrappers of
``perfbench/tracing.py`` are installed right after the import and the
job's per-layer totals are added under ``"layers"``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def family(system, size, fairness):
    """The CLI's property family for ``system``: ``(name -> formula, fairness)``.

    Names carry the CLI's ``property``/``invariant``/``fair liveness``
    prefixes so verdict tables compare row for row.
    """
    if system == "ring":
        from repro.systems import token_ring

        props = {"property " + n: f for n, f in token_ring.ring_properties().items()}
        for name, formula in token_ring.ring_invariants().items():
            props["invariant " + name] = formula
        props["invariant mutual_exclusion"] = token_ring.ring_mutual_exclusion(size)
        if not fairness:
            return props, None
        for name, formula in token_ring.fair_ring_properties().items():
            props["fair liveness " + name] = formula
        return props, token_ring.ring_scheduler_fairness(size)
    if system == "mutex":
        from repro.systems import mutex

        props = {"invariant mutual_exclusion": mutex.mutex_safety(size)}
        if not fairness:
            return props, None
        props["fair liveness eventual_entry"] = mutex.mutex_liveness()
        return props, mutex.mutex_scheduler_fairness(size)
    from repro.systems import counter

    return {"invariant nonzero": counter.counter_nonzero(size)}, None


#: system -> (module, explicit builder, symbolic builder), as in the CLI.
BUILDERS = {
    "ring": ("repro.systems.token_ring", "build_token_ring", "symbolic_token_ring"),
    "mutex": ("repro.systems.mutex", "build_mutex", "symbolic_mutex"),
    "counter": ("repro.systems.counter", "build_counter", "symbolic_counter"),
}


def build(spec):
    """The CLI's builder call; ``None`` for the portfolio (workers build)."""
    module_name, explicit_name, symbolic_name = BUILDERS[spec["system"]]
    module = importlib.import_module(module_name)
    engine, size, buggy = spec["engine"], spec["size"], spec["buggy"]
    if engine == "portfolio":
        return None
    if engine == "bdd":
        return getattr(module, symbolic_name)(size, buggy=buggy)
    if engine in ("bmc", "ic3"):
        # The SAT engines skip the reachability fixpoint (free domain).
        return getattr(module, symbolic_name)(size, buggy=buggy, domain="free")
    return getattr(module, explicit_name)(size, buggy=buggy)


def make_checker(spec, structure, constraint):
    """The CLI's checker constructor for ``spec["engine"]``."""
    engine = spec["engine"]
    if engine == "portfolio":
        from repro.runtime.portfolio import PortfolioModelChecker, builder_source

        module_name, explicit_name, symbolic_name = BUILDERS[spec["system"]]
        size, buggy = spec["size"], spec["buggy"]
        sources = {
            "bitset": builder_source(module_name, explicit_name, size, buggy=buggy),
            "bdd": builder_source(module_name, symbolic_name, size, buggy=buggy),
            "bmc": builder_source(
                module_name, symbolic_name, size, buggy=buggy, domain="free"
            ),
            "ic3": builder_source(
                module_name, symbolic_name, size, buggy=buggy, domain="free"
            ),
        }
        return PortfolioModelChecker(sources=sources, workers=spec.get("workers"))
    if engine == "bdd":
        from repro.mc.symbolic import SymbolicCTLModelChecker

        return SymbolicCTLModelChecker(structure, fairness=constraint)
    if engine == "bmc":
        from repro.mc.bmc import DEFAULT_BOUND, BoundedModelChecker

        return BoundedModelChecker(structure, bound=DEFAULT_BOUND)
    if engine == "ic3":
        from repro.mc.ic3 import DEFAULT_MAX_FRAMES, IC3ModelChecker

        return IC3ModelChecker(structure, max_frames=DEFAULT_MAX_FRAMES)
    from repro.mc.indexed import ICTLStarModelChecker

    # As in the CLI: concrete-index families are already instantiated.
    return ICTLStarModelChecker(
        structure, engine=engine, fairness=constraint, enforce_restrictions=False
    )


def run(spec):
    """Run one job; returns the JSON-ready result dictionary."""
    tracer = None
    if spec.get("trace_dir"):
        import tracing

        tracer = tracing.Tracer(spec["trace_dir"])
        tracer.begin("import.repro")
    import repro  # noqa: F401  - the import a user pays for
    from repro.errors import (
        BudgetExceededError,
        EngineCrashError,
        FragmentError,
        InconclusiveError,
    )

    props, constraint = family(spec["system"], spec["size"], spec["fairness"])
    if tracer is not None:
        tracer.end()
        # Wraps the builders too, so build() records the systems.build span.
        tracer.install(BUILDERS.values())
    structure = build(spec)
    if tracer is not None:
        tracer.begin("mc.init")
    checker = make_checker(spec, structure, constraint)
    if tracer is not None:
        tracer.end()
    check_span = tracing.CHECK_SPANS[spec["engine"]] if tracer is not None else None
    verdicts = {}
    check_s = 0.0
    first_check = time.monotonic()
    for name, formula in props.items():
        if tracer is not None:
            tracer.begin(check_span)
        start = time.monotonic()
        try:
            verdicts[name] = str(bool(checker.check(formula)))
        except FragmentError:
            verdicts[name] = "skipped"
        except InconclusiveError:
            verdicts[name] = "inconclusive"
        except BudgetExceededError:
            verdicts[name] = "budget"
        except EngineCrashError:
            verdicts[name] = "crashed"
        finally:
            check_s += time.monotonic() - start
            if tracer is not None:
                tracer.end()
    result = {"first_check": first_check, "check_s": check_s, "verdicts": verdicts}
    if tracer is not None:
        result["layers"] = tracer.summary(spec["engine"], structure, checker)
    return result


def main(argv):
    result = run(json.loads(argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
