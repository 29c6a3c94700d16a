"""Reduced ordered binary decision diagrams (the symbolic engine's substrate).

The package provides a production-grade pure-Python ROBDD implementation:

* :class:`BDDManager` — the node table: complement-edge canonical nodes
  (negation is an O(1) edge flip), a unified iterative ITE-based apply with a
  single normalized operation cache, bounded/instrumented memo caches, and
  mark-and-sweep garbage collection, over a fixed variable order (a
  variable's id is its level);
* :class:`BDDFunction` — an operator-overloaded, reference-counted handle
  (``f & g``, ``~f``, ``f >> g``, ``f.relprod(g, vars)``, …) whose lifetime
  tells the garbage collector what is live;
* :class:`ManagerStats` / :class:`CacheStats` — health counters (live/peak
  nodes, cache hit/miss/evict, GC activity).

:mod:`repro.kripke.symbolic` builds Kripke-structure encodings on top of this
package and :mod:`repro.mc.symbolic` runs CTL fixpoints over them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "BDDFunction": "function",
        "FALSE": "manager",
        "TRUE": "manager",
        "BDDManager": "manager",
        "CacheStats": "manager",
        "ManagerStats": "manager",
    },
)

__all__ = [
    "BDDManager",
    "BDDFunction",
    "ManagerStats",
    "CacheStats",
    "FALSE",
    "TRUE",
]
