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

Only ``limits`` and ``chaos`` are imported eagerly: the engine modules
import :func:`repro.runtime.limits.checkpoint` from their hot paths, and
pulling the supervisor/portfolio (which import the engines back) here
would create an import cycle.  Semantics are documented in
``docs/RESILIENCE.md``.
"""

from repro.runtime.chaos import ChaosConfig
from repro.runtime.limits import (
    CancelToken,
    ResourceBudget,
    active,
    activate,
    apply_memory_limit,
    checkpoint,
    current_budget,
    deactivate,
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
