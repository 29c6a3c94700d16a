"""Resource budgets and cooperative cancellation for engine runs.

Every engine today runs to completion no matter what: a pathological BDD
blowup or a diverging k-induction holds the process hostage.  This module
gives a run four ceilings — a wall-clock deadline, an RSS memory ceiling,
a BDD peak-live-node ceiling, and a SAT conflict ceiling — bundled into a
:class:`ResourceBudget`, plus a cooperative cancellation token, enforced
at *checkpoints* threaded through the engine hot loops:

* the bitset worklist pop loops (every 256 pops),
* the symbolic fixpoint rounds and BDD ``collect()``/op-cache spill points,
* the CDCL conflict loop (every 256 conflicts) and every restart boundary,
* the IC3 proof-obligation queue (every pop),
* the BMC depth loop (every depth).

:func:`checkpoint` is the single entry point and follows the obs
discipline for hot-path hooks: while nothing is armed it is one
module-global load and an ``is None`` test (measured alongside the obs
overhead guard in ``tests/integration/test_timing_floors.py``).  When a budget
is active a checkpoint

1. raises :class:`~repro.errors.CancelledError` if the cancellation token
   is set (how a portfolio race stands its losers down),
2. raises :class:`~repro.errors.BudgetExceededError` if the deadline (read
   via the obs-sanctioned :func:`repro.obs.trace.monotonic_ns` clock) or a
   gauge ceiling (``bdd_nodes=...``, ``sat_conflicts=...``) is crossed,
3. pumps a rate-limited heartbeat through :mod:`repro.obs.progress`, which
   is what the worker supervisor's hang detection listens to, and
4. gives the chaos harness (:mod:`repro.runtime.chaos`) its declared
   injection site.

The RSS ceiling is enforced out-of-band: :func:`apply_memory_limit` sets
``RLIMIT_AS`` via :mod:`resource` in the worker process so a runaway
allocation fails with ``MemoryError`` instead of taking the machine down.
Budget semantics are documented in ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Dict, Iterator, Optional

from repro.errors import BudgetExceededError, CancelledError
from repro.obs.progress import heartbeat as _heartbeat
from repro.obs.trace import monotonic_ns

__all__ = [
    "ResourceBudget",
    "CancelToken",
    "activate",
    "deactivate",
    "active",
    "shielded",
    "checkpoint",
    "current_budget",
    "apply_memory_limit",
    "set_chaos_hook",
]


class ResourceBudget:
    """Ceilings for one engine run; ``None`` means unlimited.

    ``deadline_s``
        Wall-clock seconds from activation (monotonic).
    ``memory_bytes``
        Address-space ceiling applied to worker processes via
        :func:`apply_memory_limit` (``resource.setrlimit``).
    ``bdd_nodes``
        Peak live BDD nodes, checked at manager checkpoints.
    ``sat_conflicts``
        Total CDCL conflicts, checked at solver checkpoints.
    """

    __slots__ = ("deadline_s", "memory_bytes", "bdd_nodes", "sat_conflicts")

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        memory_bytes: Optional[int] = None,
        bdd_nodes: Optional[int] = None,
        sat_conflicts: Optional[int] = None,
    ) -> None:
        for name, value in (
            ("deadline_s", deadline_s),
            ("memory_bytes", memory_bytes),
            ("bdd_nodes", bdd_nodes),
            ("sat_conflicts", sat_conflicts),
        ):
            if value is not None and value <= 0:
                raise ValueError("%s must be positive when set; got %r" % (name, value))
        self.deadline_s = deadline_s
        self.memory_bytes = memory_bytes
        self.bdd_nodes = bdd_nodes
        self.sat_conflicts = sat_conflicts

    def is_unlimited(self) -> bool:
        """Whether every ceiling is ``None`` (heartbeat/cancel-only budget)."""
        return (
            self.deadline_s is None
            and self.memory_bytes is None
            and self.bdd_nodes is None
            and self.sat_conflicts is None
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "deadline_s": self.deadline_s,
            "memory_bytes": self.memory_bytes,
            "bdd_nodes": self.bdd_nodes,
            "sat_conflicts": self.sat_conflicts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            "%s=%r" % (key, value)
            for key, value in self.as_dict().items()
            if value is not None
        )
        return "ResourceBudget(%s)" % parts


class CancelToken:
    """An in-process cancellation token (``multiprocessing.Event``-shaped).

    Workers receive a real ``multiprocessing.Event``; single-process users
    (the CLI's ``--timeout`` path, tests) use this thread-safe stand-in —
    anything with ``is_set()``/``set()`` works as a token.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def set(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()


#: Nanoseconds between heartbeat pumps from checkpoints (rate limit on top
#: of the progress reporter's own per-source limit, so a disabled reporter
#: costs one comparison, not a function call, per checkpoint).
_HEARTBEAT_EVERY_NS = 50_000_000


class _ActiveBudget:
    """A :class:`ResourceBudget` armed against a cancellation token."""

    __slots__ = ("budget", "cancel", "deadline_ns", "started_ns", "_next_hb_ns")

    def __init__(self, budget: ResourceBudget, cancel=None) -> None:
        self.budget = budget
        self.cancel = cancel
        self.started_ns = monotonic_ns()
        self.deadline_ns = (
            None
            if budget.deadline_s is None
            else self.started_ns + int(budget.deadline_s * 1e9)
        )
        self._next_hb_ns = self.started_ns

    def poll(self, site: str, gauges: Dict[str, int]) -> None:
        cancel = self.cancel
        if cancel is not None and cancel.is_set():
            raise CancelledError(
                "run cancelled at checkpoint %r" % site, site=site
            )
        now = monotonic_ns()
        if self.deadline_ns is not None and now > self.deadline_ns:
            budget = self.budget
            raise BudgetExceededError(
                "deadline of %.3fs exceeded at checkpoint %r"
                % (budget.deadline_s, site),
                resource="deadline",
                limit=budget.deadline_s,
                observed=(now - self.started_ns) / 1e9,
                site=site,
            )
        if gauges:
            budget = self.budget
            for resource_name, ceiling in (
                ("bdd_nodes", budget.bdd_nodes),
                ("sat_conflicts", budget.sat_conflicts),
            ):
                observed = gauges.get(resource_name)
                if ceiling is not None and observed is not None and observed > ceiling:
                    raise BudgetExceededError(
                        "%s ceiling %d exceeded (%d) at checkpoint %r"
                        % (resource_name, ceiling, observed, site),
                        resource=resource_name,
                        limit=ceiling,
                        observed=observed,
                        site=site,
                    )
        if now >= self._next_hb_ns:
            self._next_hb_ns = now + _HEARTBEAT_EVERY_NS
            _heartbeat("runtime", site=site, **gauges)


#: The armed budget, or ``None``.  Module global on purpose: the disabled
#: checkpoint fast path must be a single load (same discipline as
#: ``repro.obs.trace``).
_ACTIVE: Optional[_ActiveBudget] = None

#: The chaos harness's injection hook (``callable(site)``), or ``None``.
#: Installed by :func:`repro.runtime.chaos.install`; kept separate from the
#: budget so chaos can fire in workers whose budget is unlimited.
_CHAOS_HOOK: Optional[Callable[[str], None]] = None

#: Armed sentinel: non-``None`` iff a budget or a chaos hook is installed.
#: This is the only global the disabled fast path reads.
_ARMED: Optional[bool] = None


def _refresh_armed() -> None:
    global _ARMED
    _ARMED = True if (_ACTIVE is not None or _CHAOS_HOOK is not None) else None


def checkpoint(site: str = "", **gauges: int) -> None:
    """Cooperative cancellation / budget / chaos checkpoint.

    Engines call this from their hot loops with whatever gauges are free to
    read (``bdd_nodes=...``, ``sat_conflicts=...``).  A strict no-op while
    nothing is armed; see the module docstring for the armed behaviour.
    """
    if _ARMED is None:
        return
    chaos_hook = _CHAOS_HOOK
    if chaos_hook is not None:
        chaos_hook(site)
    active_budget = _ACTIVE
    if active_budget is not None:
        active_budget.poll(site, gauges)


def activate(budget: ResourceBudget, cancel=None) -> None:
    """Arm ``budget`` (with an optional cancellation token) process-globally.

    Raises :class:`RuntimeError` when a budget is already armed — budgets
    deliberately do not nest; one run, one budget (the supervisor arms one
    per worker process).
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(
            "a ResourceBudget is already active; budgets do not nest"
        )
    _ACTIVE = _ActiveBudget(budget, cancel=cancel)
    _refresh_armed()


def deactivate() -> Optional[ResourceBudget]:
    """Disarm the active budget (if any) and return it."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, None
    _refresh_armed()
    return None if previous is None else previous.budget


@contextlib.contextmanager
def active(budget: ResourceBudget, cancel=None) -> Iterator[ResourceBudget]:
    """Arm ``budget`` for the duration of a ``with`` block."""
    activate(budget, cancel=cancel)
    try:
        yield budget
    finally:
        deactivate()


@contextlib.contextmanager
def shielded() -> Iterator[None]:
    """Hold cancellation off for a block that must finish whole.

    Deadlines and gauge ceilings still apply inside the block; a
    cancellation requested meanwhile is seen at the first checkpoint after
    it.  The portfolio's memoised worker-side build runs shielded, so a
    loser stood down mid-build still finishes the build and stays warm for
    the next formula.
    """
    armed = _ACTIVE
    if armed is None:
        yield
        return
    cancel, armed.cancel = armed.cancel, None
    try:
        yield
    finally:
        armed.cancel = cancel


def current_budget() -> Optional[ResourceBudget]:
    """The armed budget, or ``None``."""
    return None if _ACTIVE is None else _ACTIVE.budget


def set_chaos_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Install (or clear, with ``None``) the chaos injection hook.

    Reserved for :mod:`repro.runtime.chaos`; exposed as a function so the
    two modules stay import-decoupled.
    """
    global _CHAOS_HOOK
    _CHAOS_HOOK = hook
    _refresh_armed()


def apply_memory_limit(memory_bytes: int) -> bool:
    """Cap this process's address space at ``memory_bytes`` (best effort).

    Uses ``resource.setrlimit(RLIMIT_AS)`` so allocations past the ceiling
    raise ``MemoryError`` inside the worker instead of triggering the OS
    OOM killer.  Returns ``False`` on platforms without :mod:`resource`
    (Windows) or where the limit cannot be lowered; the budget then rests
    on the cooperative checkpoints alone.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only module
        return False
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        new_hard = hard if hard != resource.RLIM_INFINITY and hard < memory_bytes else memory_bytes
        resource.setrlimit(resource.RLIMIT_AS, (min(memory_bytes, new_hard), new_hard))
    except (ValueError, OSError):  # pragma: no cover - platform dependent
        return False
    return True
