"""A production-grade ROBDD manager with complement edges.

The manager owns every node.  A *node* is a row ``(var, low, high)`` in a
table of parallel lists; a boolean function is referenced by an *edge* — an
integer ``node_index << 1 | complement_bit``.  The complement bit negates the
whole function below it, so negation is a single XOR (``edge ^ 1``) that
allocates nothing.  Canonical form:

* the terminal node ``0`` denotes the constant *false*; edge ``0`` is false
  and edge ``1`` (the complemented terminal) is true — the classic ``FALSE``/
  ``TRUE`` constants keep their historical values;
* the *high* (then) edge of every stored node is regular (uncomplemented);
  :meth:`_mk` pushes stray complement bits onto the low edge and the result,
  so structurally equal functions are represented by exactly one edge and
  equality of two functions is a single ``==`` on ints.

Variables and order
-------------------
A function is built over *variables* — integer ids that are also their
levels: variable ``v`` is tested above every variable ``w > v``, and the
terminal sorts below them all.  The order is fixed when a variable is
allocated and never changes, so a live node's ``(var, low, high)`` is
immutable: an edge names the same function, and the same node, for as long
as the node lives.  Encodings choose their order by choosing ids —
:mod:`repro.kripke.symbolic` interleaves each state bit's current and next
copy at ``2k`` and ``2k + 1``.

Operations
----------
Every binary connective is routed through one unified, *iterative*
(explicit-stack) :meth:`ite` with the standard normalizations, sharing a
single operation cache — deep variable orders can never hit Python's
recursion limit.  ``exists``/``relprod``/``rename``/``permute``/``restrict``
run their own explicit-stack walks on top of the same machinery.  All
operation caches are bounded (stale halves are evicted wholesale),
instrumented with hit/miss/evict counters, clearable via
:meth:`clear_caches`, and cleared automatically by :meth:`collect`.

Memory management
-----------------
External references are counted per node (:meth:`incref`/:meth:`decref`,
managed automatically by :class:`repro.bdd.BDDFunction` handles).
:meth:`collect` runs a mark-and-sweep over the unique table: it marks the
closure of the externally referenced nodes and frees everything else,
returning freed slots to a free list.  **Contract:** any edge held as a raw
int across manager calls is invisible to GC — wrap it in a ``BDDFunction``
(or ``incref`` it) before calling :meth:`collect`.

:meth:`stats` exposes live/peak node counts, GC counters, and per-cache
hit/miss/evict statistics as a :class:`ManagerStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice as _islice
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

import repro.bdd.sanitize as _sanitize
from repro.errors import BDDError
from repro.obs import metrics as _metrics
from repro.obs.trace import event as _obs_event
from repro.runtime.limits import checkpoint as _checkpoint

__all__ = [
    "BDDManager",
    "ManagerStats",
    "CacheStats",
    "FALSE",
    "TRUE",
]

#: The terminal node's variable: larger than any variable id, so the hot
#: loops compare node variables directly and the terminal sorts last.
_TERMINAL_VAR = 1 << 30

#: The edge of the constant false function.
FALSE = 0

#: The edge of the constant true function (the complemented terminal).
TRUE = 1

#: Default bound on the number of entries of each operation cache.
_DEFAULT_CACHE_LIMIT = 1 << 20


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/evict counters of one bounded operation cache."""

    name: str
    size: int
    limit: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class ManagerStats:
    """A point-in-time snapshot of a manager's health counters."""

    live_nodes: int
    peak_live_nodes: int
    num_vars: int
    external_references: int
    gc_runs: int
    gc_reclaimed: int
    caches: Tuple[CacheStats, ...]

    def as_dict(self) -> Dict[str, object]:
        """Flatten into a JSON-serialisable dictionary (for ``--profile``/benchmarks)."""
        return {
            "live_nodes": self.live_nodes,
            "peak_live_nodes": self.peak_live_nodes,
            "num_vars": self.num_vars,
            "external_references": self.external_references,
            "gc_runs": self.gc_runs,
            "gc_reclaimed": self.gc_reclaimed,
            "caches": {
                cache.name: {
                    "size": cache.size,
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "evictions": cache.evictions,
                }
                for cache in self.caches
            },
        }


class _OpCache:
    """A bounded memo table with hit/miss/evict accounting.

    Eviction drops the *oldest half* of the table (dicts preserve insertion
    order), so the entries a running fixpoint is actively re-hitting — the
    recently inserted ones — survive; clearing wholesale would force every
    subsequent iteration to recompute the shared substructure from scratch.
    """

    __slots__ = ("name", "data", "limit", "hits", "misses", "evictions")

    def __init__(self, name: str, limit: int) -> None:
        self.name = name
        self.data: Dict = {}
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def room(self) -> None:
        """Make room for one insert, evicting the oldest half when full."""
        data = self.data
        if len(data) >= self.limit:
            drop = self.limit // 2 + 1
            for key in list(_islice(iter(data), drop)):
                del data[key]
            self.evictions += drop
            # A cache spill marks a working set outgrowing its bounds —
            # a natural budget/cancellation boundary (runs are seconds
            # from spilling, not microseconds).
            _checkpoint("bdd.cache.spill")

    def clear(self) -> int:
        """Drop every entry (not counted as eviction); return how many were dropped."""
        dropped = len(self.data)
        self.data.clear()
        return dropped

    def stats(self) -> CacheStats:
        return CacheStats(
            self.name, len(self.data), self.limit, self.hits, self.misses, self.evictions
        )


class BDDManager:
    """Owns the shared node table and the operation caches.

    Parameters
    ----------
    cache_limit:
        Entry bound of each operation cache (see :class:`_OpCache`).
    """

    def __init__(self, cache_limit: int = _DEFAULT_CACHE_LIMIT) -> None:
        # Node table: parallel lists indexed by node.  Node 0 is the terminal.
        # Freed slots are marked with variable -2.
        self._varr: List[int] = [_TERMINAL_VAR]
        self._lo: List[int] = [0]
        self._hi: List[int] = [0]
        self._free: List[int] = []
        self._live = 1
        self._peak = 1
        # Unique table: one subtable per variable, keyed by (lo, hi).
        self._subtables: List[Dict[Tuple[int, int], int]] = []
        # External (handle) references: node -> count.
        self._external: Dict[int, int] = {}
        # Bounded operation caches.
        self._ite_cache = _OpCache("ite", cache_limit)
        self._exists_cache = _OpCache("exists", cache_limit)
        self._relprod_cache = _OpCache("relprod", cache_limit)
        self._rename_cache = _OpCache("rename", cache_limit)
        self._restrict_cache = _OpCache("restrict", cache_limit)
        self._permute_cache = _OpCache("permute", cache_limit)
        self._caches = (
            self._ite_cache,
            self._exists_cache,
            self._relprod_cache,
            self._rename_cache,
            self._restrict_cache,
            self._permute_cache,
        )
        # Interning tables keeping cache keys small-int-only: quantification
        # cubes and rename/permute mappings are mapped to dense ids, so a
        # cache lookup never re-hashes a long tuple.  Cleared together with
        # the caches.
        self._cube_intern: Dict[Tuple[int, ...], int] = {}
        self._tag_intern: Dict[Tuple, int] = {}
        # Health counters.
        self._gc_runs = 0
        self._gc_reclaimed = 0

    # -- node table ----------------------------------------------------------

    def __len__(self) -> int:
        """The number of live nodes (including the terminal)."""
        return self._live

    @property
    def num_vars(self) -> int:
        """The number of variables the manager knows about."""
        return len(self._subtables)

    def var_of(self, edge: int) -> int:
        """The variable tested at ``edge``'s node (``-1`` for the terminal)."""
        return self._varr[edge >> 1] if edge >= 2 else -1

    def low_of(self, edge: int) -> int:
        """The low (else) cofactor edge, with ``edge``'s complement applied."""
        return self._lo[edge >> 1] ^ (edge & 1)

    def high_of(self, edge: int) -> int:
        """The high (then) cofactor edge, with ``edge``'s complement applied."""
        return self._hi[edge >> 1] ^ (edge & 1)

    def _ensure_var(self, var: int) -> None:
        if var < 0 or var >= _TERMINAL_VAR:
            raise BDDError("variable id %r out of range" % (var,))
        while len(self._subtables) <= var:
            self._subtables.append({})

    def _mk(self, var: int, lo: int, hi: int) -> int:
        """Hash-consed node constructor enforcing the canonical form.

        Both reduction rules plus the complement-edge rule: a node's high
        edge is always regular; a complemented high edge flips both children
        and the returned edge instead.
        """
        if lo == hi:
            return lo
        flip = hi & 1
        if flip:
            lo ^= 1
            hi ^= 1
        table = self._subtables[var]
        key = (lo, hi)
        node = table.get(key)
        if node is None:
            free = self._free
            if free:
                node = free.pop()
                self._varr[node] = var
                self._lo[node] = lo
                self._hi[node] = hi
            else:
                node = len(self._varr)
                self._varr.append(var)
                self._lo.append(lo)
                self._hi.append(hi)
            table[key] = node
            self._live += 1
            if self._live > self._peak:
                self._peak = self._live
            if not self._live & 4095:
                # Every 4096th allocation: where a blowing-up build hits
                # the bdd_nodes budget ceiling.
                _checkpoint("bdd.alloc", bdd_nodes=self._live)
        return node << 1 | flip

    def var(self, var: int) -> int:
        """The single-variable function that is true iff ``var`` is true."""
        self._ensure_var(var)
        return self._mk(var, 0, 1)

    def cube(self, literals: Mapping[int, bool]) -> int:
        """The conjunction of literals ``{var: polarity}`` (a minterm over its keys)."""
        for var in literals:
            self._ensure_var(var)
        result = 1
        for var in sorted(literals, reverse=True):
            if literals[var]:
                result = self._mk(var, 0, result)
            else:
                result = self._mk(var, result, 0)
        return result

    # -- reference counting ------------------------------------------------------

    def incref(self, edge: int) -> int:
        """Register one external reference to ``edge``'s node; returns ``edge``."""
        node = edge >> 1
        if node:
            external = self._external
            external[node] = external.get(node, 0) + 1
        return edge

    def decref(self, edge: int) -> None:
        """Drop one external reference previously registered with :meth:`incref`."""
        node = edge >> 1
        if node:
            external = self._external
            count = external.get(node, 0)
            if count <= 1:
                external.pop(node, None)
            else:
                external[node] = count - 1

    # -- the unified ITE core ----------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else ``(f ∧ g) ∨ (¬f ∧ h)`` — the one connective all others use."""
        return self._ite(f, g, h)

    def _ite(self, f: int, g: int, h: int) -> int:
        """Iterative (explicit-stack) normalized ITE.

        Frames: ``(0, f, g, h)`` evaluates a subproblem; ``(1, var, key,
        flip)`` pops the two child results, builds the node, and memoizes.
        Normalization forces a regular ``f`` (swapping the branches) and a
        regular then-branch (complementing the output), so equivalent calls
        share one entry in the single operation cache.
        """
        cache = self._ite_cache
        data = cache.data
        varr = self._varr
        lo_ = self._lo
        hi_ = self._hi
        tasks = [(0, f, g, h)]
        push = tasks.append
        results: List[int] = []
        rpush = results.append
        while tasks:
            frame = tasks.pop()
            if frame[0] == 0:
                f, g, h = frame[1], frame[2], frame[3]
                # Terminal and absorption cases.
                if f < 2:
                    rpush(g if f else h)
                    continue
                if g == h:
                    rpush(g)
                    continue
                if f & 1:
                    f ^= 1
                    g, h = h, g
                nf = f ^ 1
                if g == f:
                    g = 1
                elif g == nf:
                    g = 0
                if h == f:
                    h = 0
                elif h == nf:
                    h = 1
                if g == h:
                    rpush(g)
                    continue
                if g == 1 and h == 0:
                    rpush(f)
                    continue
                if g == 0 and h == 1:
                    rpush(nf)
                    continue
                flip = g & 1
                if flip:
                    g ^= 1
                    h ^= 1
                if h == 0 and g < f:  # conjunction commutes
                    f, g = g, f
                key = (f, g, h)
                r = data.get(key)
                if r is not None:
                    cache.hits += 1
                    rpush(r ^ flip)
                    continue
                cache.misses += 1
                fn = f >> 1
                gn = g >> 1
                hn = h >> 1
                fl = varr[fn]
                gl = varr[gn]
                hl = varr[hn]
                top = fl
                if gl < top:
                    top = gl
                if hl < top:
                    top = hl
                if fl == top:
                    f1 = hi_[fn]  # f is regular here
                    f0 = lo_[fn]
                else:
                    f1 = f0 = f
                if gl == top:
                    c = g & 1
                    g1 = hi_[gn] ^ c
                    g0 = lo_[gn] ^ c
                else:
                    g1 = g0 = g
                if hl == top:
                    c = h & 1
                    h1 = hi_[hn] ^ c
                    h0 = lo_[hn] ^ c
                else:
                    h1 = h0 = h
                push((1, top, key, flip))
                push((0, f0, g0, h0))
                push((0, f1, g1, h1))
            else:
                r0 = results.pop()  # low branch (evaluated second)
                r1 = results.pop()  # high branch (evaluated first)
                r = self._mk(frame[1], r0, r1)
                cache.room()
                data[frame[2]] = r
                rpush(r ^ frame[3])
        return results[-1]

    # -- binary connectives (all ITE) ---------------------------------------------

    def negate(self, u: int) -> int:
        """Complement ``¬u`` — an O(1) pointer flip under complement edges."""
        return u ^ 1

    def apply_and(self, u: int, v: int) -> int:
        """Conjunction ``u ∧ v``."""
        if u == v:
            return u
        if u == 0 or v == 0:
            return 0
        if u == 1:
            return v
        if v == 1:
            return u
        return self._ite(u, v, 0)

    def apply_or(self, u: int, v: int) -> int:
        """Disjunction ``u ∨ v``."""
        if u == v:
            return u
        if u == 1 or v == 1:
            return 1
        if u == 0:
            return v
        if v == 0:
            return u
        return self._ite(u, 1, v)

    def apply_xor(self, u: int, v: int) -> int:
        """Exclusive disjunction ``u ⊕ v``."""
        if u == v:
            return 0
        return self._ite(u, v ^ 1, v)

    def apply(self, op: str, u: int, v: int) -> int:
        """Dispatch a named binary connective (``and``/``or``/``xor``/``diff``/``imp``/``iff``)."""
        if op == "and":
            return self.apply_and(u, v)
        if op == "or":
            return self.apply_or(u, v)
        if op == "xor":
            return self.apply_xor(u, v)
        if op == "diff":
            return self.apply_and(u, v ^ 1)
        if op == "imp":
            return self.apply_or(u ^ 1, v)
        if op == "iff":
            return self.apply_xor(u, v) ^ 1
        raise BDDError("unknown apply operation %r" % (op,))

    # -- restriction and quantification ---------------------------------------

    def restrict(self, u: int, var: int, value: bool) -> int:
        """The cofactor ``u[var := value]`` (explicit-stack walk)."""
        self._ensure_var(var)
        branch = 2 if value else 1  # index into (lo, hi) selection below
        cache = self._restrict_cache
        data = cache.data
        varr = self._varr
        lo_ = self._lo
        hi_ = self._hi
        tasks: List[Tuple] = [(0, u)]
        results: List[int] = []
        while tasks:
            frame = tasks.pop()
            if frame[0] == 0:
                e = frame[1]
                n = e >> 1
                nv = varr[n]
                if nv > var:  # includes the terminal
                    results.append(e)
                    continue
                c = e & 1
                if nv == var:
                    results.append((hi_[n] if branch == 2 else lo_[n]) ^ c)
                    continue
                key = (n, var, branch)
                r = data.get(key)
                if r is not None:
                    cache.hits += 1
                    results.append(r ^ c)
                    continue
                cache.misses += 1
                tasks.append((1, nv, key, c))
                tasks.append((0, lo_[n]))
                tasks.append((0, hi_[n]))
            else:
                r0 = results.pop()
                r1 = results.pop()
                r = self._mk(frame[1], r0, r1)
                cache.room()
                data[frame[2]] = r
                results.append(r ^ frame[3])
        return results[-1]

    def _var_cube(self, variables: Iterable[int]) -> Tuple[Tuple[int, ...], int]:
        """Normalize a variable set into sorted variables plus a dense id."""
        unique = set(variables)
        for var in unique:
            self._ensure_var(var)
        cube = tuple(sorted(unique))
        intern = self._cube_intern
        cube_id = intern.get(cube)
        if cube_id is None:
            cube_id = len(intern)
            intern[cube] = cube_id
        return cube, cube_id

    def exists(self, u: int, variables: Iterable[int]) -> int:
        """Existential quantification ``∃ variables . u``."""
        cube, cube_id = self._var_cube(variables)
        return self._exists(u, cube, cube_id, 0)

    def forall(self, u: int, variables: Iterable[int]) -> int:
        """Universal quantification ``∀ variables . u`` (the dual of :meth:`exists`)."""
        cube, cube_id = self._var_cube(variables)
        return self._exists(u ^ 1, cube, cube_id, 0) ^ 1

    def _exists(self, u: int, cube: Tuple[int, ...], cube_id: int, start: int) -> int:
        """Iterative existential quantification over a variable cube.

        Frames: ``(0, e, i)`` evaluate; ``(1, high, i, key)`` inspect the low
        result of a quantified variable (shortcutting on true); ``(2, var,
        key)`` rebuild an unquantified variable; ``(3, low, key)`` OR-combine.
        """
        ncube = len(cube)
        cache = self._exists_cache
        data = cache.data
        varr = self._varr
        lo_ = self._lo
        hi_ = self._hi
        tasks: List[Tuple] = [(0, u, start)]
        results: List[int] = []
        while tasks:
            frame = tasks.pop()
            tag = frame[0]
            if tag == 0:
                e, i = frame[1], frame[2]
                if e < 2:
                    results.append(e)
                    continue
                n = e >> 1
                nv = varr[n]
                while i < ncube and cube[i] < nv:
                    i += 1
                if i == ncube:
                    results.append(e)
                    continue
                key = (e, cube_id, i)
                r = data.get(key)
                if r is not None:
                    cache.hits += 1
                    results.append(r)
                    continue
                cache.misses += 1
                c = e & 1
                low = lo_[n] ^ c
                high = hi_[n] ^ c
                if cube[i] == nv:
                    tasks.append((1, high, i + 1, key))
                    tasks.append((0, low, i + 1))
                else:
                    tasks.append((2, nv, key))
                    tasks.append((0, low, i))
                    tasks.append((0, high, i))
            elif tag == 1:
                rl = results.pop()
                key = frame[3]
                if rl == 1:
                    cache.room()
                    data[key] = 1
                    results.append(1)
                else:
                    tasks.append((3, rl, key))
                    tasks.append((0, frame[1], frame[2]))
            elif tag == 2:
                rl = results.pop()
                rh = results.pop()
                r = self._mk(frame[1], rl, rh)
                cache.room()
                data[frame[2]] = r
                results.append(r)
            else:
                rh = results.pop()
                r = self._ite(frame[1], 1, rh)
                cache.room()
                data[frame[2]] = r
                results.append(r)
        return results[-1]

    def relprod(self, u: int, v: int, variables: Iterable[int]) -> int:
        """The relational product ``∃ variables . (u ∧ v)``, fused.

        Conjunction and quantification are interleaved in one explicit-stack
        walk, so quantified variables are eliminated as soon as both operands
        have branched on them and the (often much larger) intermediate
        ``u ∧ v`` is never materialised.  This is the workhorse of image and
        pre-image computation.
        """
        cube, cube_id = self._var_cube(variables)
        return self._relprod(u, v, cube, cube_id, 0)

    def _relprod(
        self, u: int, v: int, cube: Tuple[int, ...], cube_id: int, start: int
    ) -> int:
        ncube = len(cube)
        cache = self._relprod_cache
        data = cache.data
        varr = self._varr
        lo_ = self._lo
        hi_ = self._hi
        tasks: List[Tuple] = [(0, u, v, start)]
        results: List[int] = []
        while tasks:
            frame = tasks.pop()
            tag = frame[0]
            if tag == 0:
                u, v, i = frame[1], frame[2], frame[3]
                if u == 0 or v == 0:
                    results.append(0)
                    continue
                if u == 1:
                    results.append(self._exists(v, cube, cube_id, i))
                    continue
                if v == 1:
                    results.append(self._exists(u, cube, cube_id, i))
                    continue
                if u > v:
                    u, v = v, u
                un = u >> 1
                vn = v >> 1
                ul = varr[un]
                vl = varr[vn]
                top = ul if ul < vl else vl
                while i < ncube and cube[i] < top:
                    i += 1
                if i == ncube:
                    results.append(self._ite(u, v, 0))
                    continue
                key = (u, v, cube_id, i)
                r = data.get(key)
                if r is not None:
                    cache.hits += 1
                    results.append(r)
                    continue
                cache.misses += 1
                if ul == top:
                    c = u & 1
                    u1 = hi_[un] ^ c
                    u0 = lo_[un] ^ c
                else:
                    u1 = u0 = u
                if vl == top:
                    c = v & 1
                    v1 = hi_[vn] ^ c
                    v0 = lo_[vn] ^ c
                else:
                    v1 = v0 = v
                if cube[i] == top:
                    tasks.append((1, u1, v1, i + 1, key))
                    tasks.append((0, u0, v0, i + 1))
                else:
                    tasks.append((2, top, key))
                    tasks.append((0, u0, v0, i))
                    tasks.append((0, u1, v1, i))
            elif tag == 1:
                rl = results.pop()
                key = frame[4]
                if rl == 1:
                    cache.room()
                    data[key] = 1
                    results.append(1)
                else:
                    tasks.append((3, rl, key))
                    tasks.append((0, frame[1], frame[2], frame[3]))
            elif tag == 2:
                rl = results.pop()
                rh = results.pop()
                r = self._mk(frame[1], rl, rh)
                cache.room()
                data[frame[2]] = r
                results.append(r)
            else:
                rh = results.pop()
                r = self._ite(frame[1], 1, rh)
                cache.room()
                data[frame[2]] = r
                results.append(r)
        return results[-1]

    # -- renaming ---------------------------------------------------------------

    def rename(self, u: int, mapping: Mapping[int, int]) -> int:
        """Substitute variables per ``mapping`` (var → var).

        The mapping must be strictly order-preserving on the operand's
        support under the variable order (with unmapped variables
        keeping their place), so the rename is a single structural walk
        rather than a general composition; violations — including ones
        involving unmapped support variables — are detected during the walk.
        Cache entries are keyed by a canonical ``tuple(sorted(mapping.items()))``
        derived from the mapping's content, so semantically identical
        renamings share entries regardless of the mapping object identity.
        """
        for var, target in mapping.items():
            self._ensure_var(var)
            self._ensure_var(target)
        tag_id = self._mapping_id(mapping)
        targets = [target for _, target in sorted(mapping.items())]
        for fa, fb in zip(targets, targets[1:]):
            if fa >= fb:
                raise BDDError(
                    "rename mapping is not order-preserving: %r" % (dict(mapping),)
                )
        return self._rename(u, dict(mapping), tag_id)

    def _rename(self, u: int, mapping: Dict[int, int], tag: int) -> int:
        cache = self._rename_cache
        data = cache.data
        varr = self._varr
        lo_ = self._lo
        hi_ = self._hi
        tasks: List[Tuple] = [(0, u)]
        results: List[int] = []
        while tasks:
            frame = tasks.pop()
            if frame[0] == 0:
                e = frame[1]
                n = e >> 1
                if n == 0:
                    results.append(e)
                    continue
                c = e & 1
                key = (tag, n)
                r = data.get(key)
                if r is not None:
                    cache.hits += 1
                    results.append(r ^ c)
                    continue
                cache.misses += 1
                var = varr[n]
                tasks.append((1, mapping.get(var, var), key, c))
                tasks.append((0, lo_[n]))
                tasks.append((0, hi_[n]))
            else:
                rl = results.pop()
                rh = results.pop()
                new_var = frame[1]
                child_top = varr[rl >> 1]
                other = varr[rh >> 1]
                if other < child_top:
                    child_top = other
                if new_var >= child_top:
                    raise BDDError(
                        "rename mapping is not order-preserving on the support: "
                        "variable %d maps at or below a renamed child" % (new_var,)
                    )
                r = self._mk(new_var, rl, rh)
                cache.room()
                data[frame[2]] = r
                results.append(r ^ frame[3])
        return results[-1]

    def _mapping_id(self, mapping: Mapping[int, int]) -> int:
        """The dense id of a variable mapping, derived from its content."""
        canonical = tuple(sorted(mapping.items()))
        intern = self._tag_intern
        tag_id = intern.get(canonical)
        if tag_id is None:
            tag_id = len(intern)
            intern[canonical] = tag_id
        return tag_id

    def permute(self, u: int, mapping: Mapping[int, int]) -> int:
        """Substitute variables per an injective ``mapping`` (var → var), in any order.

        The general counterpart of :meth:`rename`: the mapping need not
        respect the variable order (a rotation of process blocks, say), so
        each node is rebuilt bottom-up as ``ite(var(π(v)), P(high),
        P(low))`` — a plain ``_mk`` whenever ``π(v)`` still sits above both
        rebuilt children.  Unmapped variables keep their place and the
        substitution is simultaneous, so ``evaluate(permute(u, π), a) ==
        evaluate(u, a ∘ π)``.  Results are cached per ``(mapping, node)``.
        """
        if len(set(mapping.values())) != len(mapping):
            raise BDDError("permute mapping is not injective: %r" % (dict(mapping),))
        for var, target in mapping.items():
            self._ensure_var(var)
            self._ensure_var(target)
        return self._permute(u, dict(mapping), self._mapping_id(mapping))

    def _permute(self, u: int, mapping: Dict[int, int], tag: int) -> int:
        cache = self._permute_cache
        data = cache.data
        varr = self._varr
        lo_ = self._lo
        hi_ = self._hi
        tasks: List[Tuple] = [(0, u)]
        results: List[int] = []
        while tasks:
            frame = tasks.pop()
            if frame[0] == 0:
                e = frame[1]
                n = e >> 1
                if n == 0:
                    results.append(e)
                    continue
                c = e & 1
                key = (tag, n)
                r = data.get(key)
                if r is not None:
                    cache.hits += 1
                    results.append(r ^ c)
                    continue
                cache.misses += 1
                var = varr[n]
                tasks.append((1, mapping.get(var, var), key, c))
                tasks.append((0, lo_[n]))
                tasks.append((0, hi_[n]))
            else:
                rl = results.pop()
                rh = results.pop()
                new_var = frame[1]
                child_top = varr[rl >> 1]
                other = varr[rh >> 1]
                if other < child_top:
                    child_top = other
                if new_var < child_top:
                    r = self._mk(new_var, rl, rh)
                else:
                    r = self._ite(self._mk(new_var, 0, 1), rh, rl)
                cache.room()
                data[frame[2]] = r
                results.append(r ^ frame[3])
        return results[-1]

    # -- inspection --------------------------------------------------------------

    def evaluate(self, u: int, assignment: Mapping[int, bool]) -> bool:
        """Evaluate ``u`` under a (total enough) truth assignment ``{var: value}``."""
        varr = self._varr
        lo_ = self._lo
        hi_ = self._hi
        while u >= 2:
            n = u >> 1
            try:
                branch = assignment[varr[n]]
            except KeyError:
                raise BDDError(
                    "assignment does not cover variable %d in the function's support"
                    % varr[n]
                ) from None
            u = (hi_[n] if branch else lo_[n]) ^ (u & 1)
        return u == 1

    def support(self, u: int) -> frozenset:
        """The set of variables the function actually depends on."""
        seen = set()
        variables = set()
        stack = [u >> 1]
        varr = self._varr
        lo_ = self._lo
        hi_ = self._hi
        while stack:
            node = stack.pop()
            if not node or node in seen:
                continue
            seen.add(node)
            variables.add(varr[node])
            stack.append(lo_[node] >> 1)
            stack.append(hi_[node] >> 1)
        return frozenset(variables)

    def node_count(self, u: int) -> int:
        """The number of internal (non-terminal) nodes reachable from ``u``."""
        seen = set()
        stack = [u >> 1]
        lo_ = self._lo
        hi_ = self._hi
        while stack:
            node = stack.pop()
            if not node or node in seen:
                continue
            seen.add(node)
            stack.append(lo_[node] >> 1)
            stack.append(hi_[node] >> 1)
        return len(seen)

    def sat_count(self, u: int, variables: Iterable[int]) -> int:
        """The number of satisfying assignments over the variable set ``variables``.

        ``variables`` must cover the function's support; variables in the set
        that the function does not test double the count (the usual minterm
        weighting).  Complemented edges count as ``2^k - count(node)`` over
        the remaining variables, so no negation is ever materialised.
        """
        cube, _ = self._var_cube(variables)
        total = len(cube)
        position = {var: i for i, var in enumerate(cube)}
        varr = self._varr
        lo_ = self._lo
        hi_ = self._hi
        counts: Dict[int, int] = {0: 0}

        def pos_of(node: int) -> int:
            if not node:
                return total
            try:
                return position[varr[node]]
            except KeyError:
                raise BDDError(
                    "sat_count variable set does not cover support variable %d"
                    % varr[node]
                ) from None

        # Iterative post-order: compute counts children-first.
        stack = [u >> 1]
        while stack:
            node = stack[-1]
            if node in counts:
                stack.pop()
                continue
            ln = lo_[node] >> 1
            hn = hi_[node] >> 1
            pending = False
            if ln not in counts:
                stack.append(ln)
                pending = True
            if hn not in counts:
                stack.append(hn)
                pending = True
            if pending:
                continue
            stack.pop()
            here = pos_of(node)
            result = 0
            for edge in (lo_[node], hi_[node]):
                child = edge >> 1
                p = pos_of(child)
                base = counts[child]
                if edge & 1:
                    base = (1 << (total - p)) - base
                result += base << (p - here - 1)
            counts[node] = result

        node = u >> 1
        p = pos_of(node)
        base = counts[node]
        if u & 1:
            base = (1 << (total - p)) - base
        return base << p

    def iter_models(self, u: int, variables: Iterable[int]) -> Iterator[Dict[int, bool]]:
        """Yield every satisfying assignment of ``u`` over ``variables`` as a dict.

        Intended for decoding *small* satisfying sets (tests, examples); the
        scalable counterpart is :meth:`sat_count`.
        """
        for var in set(variables):
            self._ensure_var(var)
        order = sorted(set(variables))
        support = self.support(u)
        if not support <= set(order):
            raise BDDError(
                "iter_models variable set does not cover support variables %s"
                % sorted(support - set(order))
            )
        varr = self._varr
        lo_ = self._lo
        hi_ = self._hi

        def rec(e: int, index: int) -> Iterator[Dict[int, bool]]:
            if e == 0:
                return
            if index == len(order):
                yield {}
                return
            var = order[index]
            n = e >> 1
            if varr[n] == var:
                c = e & 1
                for model in rec(lo_[n] ^ c, index + 1):
                    model[var] = False
                    yield model
                for model in rec(hi_[n] ^ c, index + 1):
                    model[var] = True
                    yield model
            else:
                for model in rec(e, index + 1):
                    positive = dict(model)
                    model[var] = False
                    yield model
                    positive[var] = True
                    yield positive

        return rec(u, 0)

    # -- caches and garbage collection ---------------------------------------------

    def clear_caches(self) -> int:
        """Drop every operation-cache entry; returns the number dropped.

        The cube/tag interning tables are dropped too — their ids are
        embedded in the (now gone) cache keys.
        """
        dropped = sum(cache.clear() for cache in self._caches)
        self._cube_intern.clear()
        self._tag_intern.clear()
        return dropped

    def collect(self) -> int:
        """Mark-and-sweep garbage collection of the unique table.

        Operation caches are cleared first (they reference nodes without
        keeping them alive); the closure of the externally referenced nodes
        is marked; everything unmarked is freed and its slot recycled.
        Returns the number of nodes reclaimed.
        """
        self.clear_caches()
        lo_ = self._lo
        hi_ = self._hi
        marked = bytearray(len(self._varr))
        marked[0] = 1
        stack = [node for node in self._external if self._varr[node] >= 0]
        for node in stack:
            marked[node] = 1
        while stack:
            node = stack.pop()
            for child in (lo_[node] >> 1, hi_[node] >> 1):
                if not marked[child]:
                    marked[child] = 1
                    stack.append(child)
        freed = 0
        varr = self._varr
        free = self._free
        for table in self._subtables:
            dead = [key for key, node in table.items() if not marked[node]]
            for key in dead:
                node = table.pop(key)
                varr[node] = -2
                free.append(node)
                freed += 1
        self._live -= freed
        self._gc_runs += 1
        self._gc_reclaimed += freed
        # GC is rare by construction, so event-time telemetry is cheap here.
        _metrics.counter("bdd.gc.runs").inc()
        _metrics.counter("bdd.gc.reclaimed").inc(freed)
        _obs_event("bdd.gc", reclaimed=freed, live=self._live)
        _checkpoint("bdd.collect", bdd_nodes=self._live)
        if _sanitize.MODE:
            _sanitize.maybe_check_manager(self)
        return freed

    def stats(self) -> ManagerStats:
        """A snapshot of node, GC, and cache counters."""
        return ManagerStats(
            live_nodes=self._live,
            peak_live_nodes=self._peak,
            num_vars=self.num_vars,
            external_references=sum(self._external.values()),
            gc_runs=self._gc_runs,
            gc_reclaimed=self._gc_reclaimed,
            caches=tuple(cache.stats() for cache in self._caches),
        )

    def publish_metrics(self, **labels) -> None:
        """Snapshot :meth:`stats` into the process-global metrics registry.

        Cumulative totals are published as *gauges* (idempotent to
        re-publish at every phase boundary); event-time counters
        (``bdd.gc.runs`` etc.) are incremented where the event happens.
        ``labels`` tag the series (``engine=...``, ``system=...``).
        """
        stats = self.stats()
        gauge = _metrics.gauge
        gauge("bdd.live_nodes", **labels).set(stats.live_nodes)
        gauge("bdd.peak_live_nodes", **labels).set(stats.peak_live_nodes)
        gauge("bdd.num_vars", **labels).set(stats.num_vars)
        gauge("bdd.external_references", **labels).set(stats.external_references)
        gauge("bdd.gc_runs", **labels).set(stats.gc_runs)
        gauge("bdd.gc_reclaimed", **labels).set(stats.gc_reclaimed)
        for cache in stats.caches:
            total = cache.hits + cache.misses
            gauge("bdd.cache.hits", cache=cache.name, **labels).set(cache.hits)
            gauge("bdd.cache.misses", cache=cache.name, **labels).set(cache.misses)
            gauge("bdd.cache.evictions", cache=cache.name, **labels).set(
                cache.evictions
            )
            gauge("bdd.cache.hit_rate", cache=cache.name, **labels).set(
                round(cache.hits / total, 6) if total else 0.0
            )
