"""Fault-tolerant execution runtime: budgets, supervision, chaos testing.

``repro.runtime`` is the layer between the engines and the operating
system.  It owns everything about *how* a check runs rather than *what*
it decides:

``repro.runtime.limits``
    :class:`~repro.runtime.limits.ResourceBudget` ceilings (wall-clock
    deadline, RSS, BDD peak nodes, SAT conflicts) and the cooperative
    :func:`~repro.runtime.limits.checkpoint` hooks threaded through the
    engine hot loops.

``repro.runtime.supervisor``
    A supervised pool of long-lived ``multiprocessing`` workers with
    heartbeat-based hang detection, crash detection, payload integrity
    checking, per-request cancellation, and capped exponential-backoff
    restarts.

``repro.runtime.portfolio``
    The ``portfolio`` meta-engine racing the other engines per property,
    one worker per engine for the checker's lifetime; first conclusive
    verdict wins, losers cancelled, graceful degradation when workers die.

``repro.runtime.chaos``
    Deterministic seeded fault injection (``REPRO_CHAOS``) that kills,
    hangs, OOMs, and garbles workers so the recovery guarantees stay
    tested.

The package re-exports the ``limits`` and ``chaos`` names below, loaded
by name on first use (:mod:`repro._lazy`): the engine modules import
:func:`repro.runtime.limits.checkpoint` from their hot paths, and pulling
the supervisor/portfolio (which import the engines back) in here would
create an import cycle.  Semantics are documented in
``docs/RESILIENCE.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ChaosConfig": "chaos",
        "CancelToken": "limits",
        "ResourceBudget": "limits",
        "active": "limits",
        "activate": "limits",
        "apply_memory_limit": "limits",
        "checkpoint": "limits",
        "current_budget": "limits",
        "deactivate": "limits",
    },
)

__all__ = [
    "CancelToken",
    "ChaosConfig",
    "ResourceBudget",
    "activate",
    "active",
    "apply_memory_limit",
    "checkpoint",
    "current_budget",
    "deactivate",
]
