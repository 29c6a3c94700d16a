"""Opt-in runtime auditor for the complement-edge BDD manager.

A full structural audit of a :class:`~repro.bdd.manager.BDDManager`:
unique-table canonicality (hash-consing, the regular-``then`` complement
rule, reduction), the variable order, slot bookkeeping, external handle
accounting, and operation caches referencing only live nodes.  Plus
:func:`assert_no_leaks`, a context manager that catches external-reference
leaks (e.g. a fixpoint memo holding :class:`~repro.bdd.function.BDDFunction`
handles past their scope).

Like :mod:`repro.obs`, the disabled path is effectively free: the
manager's hook sites test one module global (:data:`MODE`) and only call
into this module when sanitizing is switched on.  Enable it with the
``REPRO_SANITIZE=1`` environment variable (read once at import), the
:func:`enable` call, or the ``sanitizers`` pytest fixture.

``MODE`` values: ``0`` off (default), ``1`` full audits at hook sites,
``2`` count-only (the overhead guard uses this to count how often the
hooks would fire without paying for the audit).
"""

from __future__ import annotations

import gc as _gc
import os
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.errors import SanitizerError

__all__ = [
    "MODE",
    "CALLS",
    "enable",
    "enabled",
    "check_manager",
    "maybe_check_manager",
    "assert_no_leaks",
]

#: 0 = off, 1 = audit at every hook site, 2 = count hook firings only.
MODE = 1 if os.environ.get("REPRO_SANITIZE", "") not in ("", "0") else 0

#: Number of hook firings observed in count-only mode (``MODE == 2``).
CALLS = 0


def enable(on: bool = True) -> None:
    """Switch the sanitizer hooks on or off for this process."""
    global MODE
    MODE = 1 if on else 0


def enabled() -> bool:
    return MODE == 1


def maybe_check_manager(manager) -> None:
    """Hook target: audit ``manager`` when enabled, count when counting."""
    global CALLS
    if MODE == 2:
        CALLS += 1
        return
    if MODE:
        check_manager(manager)


def _fail(manager, message: str) -> None:
    raise SanitizerError(
        "BDD sanitizer: %s (manager: %d live nodes, %d vars)"
        % (message, len(manager), manager.num_vars)
    )


def check_manager(manager) -> None:
    """Audit every structural invariant of ``manager``; raise on the first hole.

    The checks mirror what :meth:`BDDManager._mk` and
    :meth:`BDDManager.collect` promise:

    * every unique-table entry is canonical: stored under its own
      ``(lo, hi)`` key, high edge regular (complement bit clear), children
      distinct, live, and strictly below the node in the order (each
      child's variable is greater than the node's; the terminal's is
      greater than all);
    * slot bookkeeping: live slots and free-list slots partition the node
      array, ``len(manager)`` agrees with both;
    * external references point at live nodes with positive counts;
    * every operation-cache key and value references only live nodes.
    """
    from repro.bdd.manager import _TERMINAL_VAR

    varr = manager._varr
    lo_ = manager._lo
    hi_ = manager._hi
    subtables = manager._subtables
    slots = len(varr)

    # -- terminal ----------------------------------------------------------
    if varr[0] != _TERMINAL_VAR:
        _fail(manager, "terminal slot 0 corrupted (varr=%d)" % varr[0])

    def edge_ok(edge: int) -> bool:
        node = edge >> 1
        return 0 <= node < slots and (node == 0 or varr[node] >= 0)

    # -- unique table ------------------------------------------------------
    seen: Dict[int, int] = {}  # node -> owning var
    for var, table in enumerate(subtables):
        for (lo, hi), node in table.items():
            if not (0 < node < slots):
                _fail(manager, "subtable[%d] maps to out-of-range node %d" % (var, node))
            if node in seen:
                _fail(
                    manager,
                    "node %d appears in subtables of vars %d and %d"
                    % (node, seen[node], var),
                )
            seen[node] = var
            if varr[node] != var:
                _fail(
                    manager,
                    "node %d filed under var %d but varr says %d" % (node, var, varr[node]),
                )
            if lo_[node] != lo or hi_[node] != hi:
                _fail(
                    manager,
                    "node %d stored fields (%d, %d) differ from its key (%d, %d)"
                    % (node, lo_[node], hi_[node], lo, hi),
                )
            if hi & 1:
                _fail(
                    manager,
                    "node %d has a complemented high edge %d (regular-then violated)"
                    % (node, hi),
                )
            if lo == hi:
                _fail(manager, "node %d is unreduced: lo == hi == %d" % (node, lo))
            for child_edge in (lo, hi):
                if not edge_ok(child_edge):
                    _fail(
                        manager,
                        "node %d has dead/out-of-range child edge %d" % (node, child_edge),
                    )
                if varr[child_edge >> 1] <= var:
                    _fail(
                        manager,
                        "ordering violated: node %d (var %d) has child %d at var %d"
                        % (node, var, child_edge >> 1, varr[child_edge >> 1]),
                    )

    # -- slot partition ----------------------------------------------------
    live = {node for node in range(1, slots) if varr[node] >= 0}
    if live != set(seen):
        stray = sorted(live.symmetric_difference(seen))[:5]
        _fail(manager, "live slots and unique-table entries disagree (e.g. %r)" % stray)
    free = manager._free
    if len(set(free)) != len(free):
        _fail(manager, "free list contains duplicates")
    for node in free:
        if not (0 < node < slots) or varr[node] != -2:
            _fail(manager, "free-list slot %d is not marked free (varr=%r)" % (node, varr[node]))
    if len(manager) != 1 + len(live):
        _fail(
            manager,
            "live counter %d does not match table population %d" % (len(manager), 1 + len(live)),
        )

    # -- external handles --------------------------------------------------
    for node, count in manager._external.items():
        if count <= 0:
            _fail(manager, "external entry for node %d has non-positive count %d" % (node, count))
        if not (0 < node < slots) or varr[node] < 0:
            _fail(manager, "external reference to dead node %d" % node)

    # -- operation caches --------------------------------------------------
    def check_cache(name: str, key_edges, key_nodes) -> None:
        cache = getattr(manager, "_%s_cache" % name)
        for key, value in cache.data.items():
            for index in key_edges:
                if not edge_ok(key[index]):
                    _fail(
                        manager,
                        "%s cache key %r references dead edge %d" % (name, key, key[index]),
                    )
            for index in key_nodes:
                node = key[index]
                if not (0 <= node < slots) or (node and varr[node] < 0):
                    _fail(
                        manager,
                        "%s cache key %r references dead node %d" % (name, key, node),
                    )
            if not edge_ok(value):
                _fail(manager, "%s cache value %d is a dead edge (key %r)" % (name, value, key))

    check_cache("ite", key_edges=(0, 1, 2), key_nodes=())
    check_cache("restrict", key_edges=(), key_nodes=(0,))
    check_cache("exists", key_edges=(0,), key_nodes=())
    check_cache("relprod", key_edges=(0, 1), key_nodes=())
    check_cache("rename", key_edges=(), key_nodes=(1,))
    check_cache("permute", key_edges=(), key_nodes=(1,))


@contextmanager
def assert_no_leaks(manager, audit: bool = True) -> Iterator[None]:
    """Fail if the block exits still holding new external BDD references.

    Snapshots the manager's external-reference table on entry; on exit,
    after a cyclic garbage collection (so dropped
    :class:`~repro.bdd.function.BDDFunction` handles run their
    finalisers), any node whose external count *grew* is reported as a
    leak.  References released inside the block are fine; so are nodes
    the caller still legitimately holds from before.

    With ``audit=True`` (default) the full :func:`check_manager` audit
    also runs on exit, regardless of :data:`MODE` — the context manager
    is itself the opt-in.
    """
    before = dict(manager._external)
    yield
    _gc.collect()
    after = manager._external
    leaked = {
        node: count - before.get(node, 0)
        for node, count in after.items()
        if count > before.get(node, 0)
    }
    if leaked:
        worst = sorted(leaked.items(), key=lambda item: -item[1])[:10]
        raise SanitizerError(
            "BDD leak check: %d node(s) gained external references that were "
            "never released: %s"
            % (len(leaked), ", ".join("node %d (+%d)" % item for item in worst))
        )
    if audit:
        check_manager(manager)
