"""State-explosion measurements (experiment E8).

The paper's motivation is that the number of global states grows exponentially
with the number of processes, so direct model checking of a large network is
infeasible — but checking a two-process instance plus a correspondence
argument is cheap.  The sweep here measures both sides of that comparison on
the token ring: explicit state counts and direct ICTL* checking time as ``r``
grows, versus the fixed cost of checking ``M_2``.

:func:`symbolic_token_ring_explosion_sweep` extends the experiment past the
explicit wall: the ring is encoded directly as BDDs
(:func:`repro.systems.token_ring.symbolic_token_ring`) and the properties are
checked by the symbolic engine, so sizes well beyond the explicit sweep's
range stay tractable.  Reachable-state counts come from BDD satisfy-count —
no state is ever enumerated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.timing import timed_call
from repro.logic.ast import Formula
from repro.mc.indexed import ICTLStarModelChecker
from repro.mc.symbolic import SymbolicCTLModelChecker
from repro.systems import token_ring

__all__ = [
    "ExplosionPoint",
    "SymbolicExplosionPoint",
    "token_ring_explosion_sweep",
    "symbolic_token_ring_explosion_sweep",
    "sample_large_ring_correspondence",
]


@dataclass(frozen=True)
class ExplosionPoint:
    """One row of the state-explosion sweep."""

    size: int
    num_states: int
    num_transitions: int
    build_seconds: float
    check_seconds: float
    results: Dict[str, bool]


def token_ring_explosion_sweep(
    sizes: Sequence[int],
    formulas: Optional[Dict[str, Formula]] = None,
    engine: str = "bitset",
) -> List[ExplosionPoint]:
    """Build and directly model check the token ring for each size in ``sizes``.

    Returns one :class:`ExplosionPoint` per size, recording how the state
    space and the direct checking time grow with the number of processes.
    ``engine`` selects the explicit-state CTL engine; each structure is
    compiled once and the whole property family batch-checked against it.
    """
    checks = formulas if formulas is not None else token_ring.ring_properties()
    points: List[ExplosionPoint] = []
    for size in sizes:
        built = timed_call(token_ring.build_token_ring, size)
        structure = built.value
        checker = ICTLStarModelChecker(structure, engine=engine)
        checked = timed_call(checker.check_batch, checks)
        points.append(
            ExplosionPoint(
                size=size,
                num_states=structure.num_states,
                num_transitions=structure.num_transitions,
                build_seconds=built.seconds,
                check_seconds=checked.seconds,
                results=checked.value,
            )
        )
    return points


@dataclass(frozen=True)
class SymbolicExplosionPoint:
    """One row of the symbolic state-explosion sweep.

    ``num_states``/``num_transitions`` are exact counts obtained by BDD
    satisfy-count over the reachable set; ``bdd_nodes`` is the live node
    count of the ring's BDD manager after checking and ``peak_nodes`` the
    peak over the whole run — the actual memory footprint, which grows
    polynomially where the state counts explode.
    """

    size: int
    num_states: int
    num_transitions: int
    bdd_nodes: int
    peak_nodes: int
    build_seconds: float
    check_seconds: float
    results: Dict[str, bool]


def symbolic_token_ring_explosion_sweep(
    sizes: Sequence[int],
    formulas: Optional[Dict[str, Formula]] = None,
) -> List[SymbolicExplosionPoint]:
    """Check the token ring fully symbolically for each size in ``sizes``.

    The counterpart of :func:`token_ring_explosion_sweep` for the BDD engine:
    every structure is a direct symbolic encoding (the explicit global graph
    is never built) and the index quantifiers of the Section 5 properties are
    evaluated by the symbolic checker itself (one process checked, the rest
    by the ring's rotation symmetry).  Sizes ≥ 10 — beyond what
    the explicit engines can reach in reasonable time — are the intended use.
    """
    checks = formulas if formulas is not None else token_ring.ring_properties()
    points: List[SymbolicExplosionPoint] = []
    for size in sizes:
        built = timed_call(token_ring.symbolic_token_ring, size)
        structure = built.value
        checker = SymbolicCTLModelChecker(structure)
        checked = timed_call(checker.check_batch, checks)
        stats = structure.manager.stats()
        points.append(
            SymbolicExplosionPoint(
                size=size,
                num_states=structure.num_states,
                num_transitions=structure.num_transitions,
                bdd_nodes=stats.live_nodes,
                peak_nodes=stats.peak_live_nodes,
                build_seconds=built.seconds,
                check_seconds=checked.seconds,
                results=checked.value,
            )
        )
    return points


def sample_large_ring_correspondence(
    large_size: int,
    num_walks: int = 20,
    walk_length: int = 40,
    seed: int = 0,
) -> Dict[str, int]:
    """Spot-check the Section 5 correspondence clauses on a ring too large to build.

    The global state graph of the ``large_size``-process ring is never
    constructed.  Instead the sweep performs random walks from the initial
    state using the on-the-fly successor function, and for every visited state
    ``s'`` checks the *local* Section 5 conditions against the two-process
    ring: process 1 of ``M_2`` is in the same part as process 1 of ``s'`` for
    some reachable ``M_2`` state (the pairing exists), and the rank formula of
    the appendix yields a finite degree.  This mirrors how the paper argues
    about ``r = 1000`` — the correspondence is justified per state by local
    invariants, never by enumerating the global graph.

    Returns counters: states visited, states with a valid pairing, states
    where the partition invariant held.
    """
    rng = random.Random(seed)
    small = token_ring.build_token_ring(2)
    visited = 0
    paired = 0
    partitioned = 0
    indices = set(range(1, large_size + 1))

    for _ in range(num_walks):
        state = token_ring.initial_state(large_size)
        for _ in range(walk_length):
            visited += 1
            union = (
                state.delayed | state.neutral | state.token_neutral | state.critical
            )
            if union == indices and not state.other:
                partitioned += 1
            if any(
                token_ring.section5_pair_corresponds(small_state, 1, state, 1)
                for small_state in small.states
            ):
                paired += 1
            state = token_ring.sample_successor(state, large_size, rng)
            if state is None:
                break
    return {"visited": visited, "paired": paired, "partition_ok": partitioned}
