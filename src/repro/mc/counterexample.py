"""Witness and counterexample extraction for (fair) CTL properties.

Model checking answers "does the property hold?"; for debugging one also
wants *why not*.  This module extracts:

* a finite witness path for ``EF f`` / ``E[f U g]``;
* a lasso witness for ``EG f``;
* a counterexample path for ``AG f`` (a reachable state violating ``f``);
* a counterexample lasso for ``AF f`` (a path along which ``f`` never holds).

Witnesses always start at the structure's initial state unless another start
state is supplied.

The extraction is **engine-generic**: every function accepts either a Kripke
structure (a checker for the requested ``engine`` is built through
:func:`repro.mc.bitset.make_ctl_checker` and memoised on the structure, so
repeated extractions share one compilation *and* one satisfaction-set memo)
or an already-constructed CTL checker (any of
:data:`repro.mc.bitset.CTL_ENGINES` — whatever produced the failed verdict
also guides the search, so witness extraction is no slower than the check
itself; the SAT-based ``"bmc"`` engine extracts its own counterexamples as
part of solving).

Under a :class:`~repro.mc.fairness.FairnessConstraint` the witnesses are
*fair*: a finite ``EF``/``EU`` witness ends in a state starting a fair path,
and an ``EG`` witness / ``AF`` counterexample is a lasso whose cycle stays
inside a fair strongly connected component and visits **every** fairness set
— the finite certificate of one fair path.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Union

from repro.errors import ModelCheckingError
from repro.kripke.paths import Lasso
from repro.kripke.structure import KripkeStructure, State
from repro.logic.ast import Exists, Formula, Globally, Not, TrueLiteral, Until
from repro.mc.bitset import BitsetCTLModelChecker, make_ctl_checker
from repro.mc.ctl import CTLModelChecker
from repro.mc.fairness import FairnessConstraint, normalize_fairness
from repro.mc.scc import fair_components
from repro.mc.symbolic import SymbolicCTLModelChecker

__all__ = [
    "resolve_checker",
    "witness_ef",
    "witness_eu",
    "witness_eg",
    "counterexample_ag",
    "counterexample_af",
]

_CHECKERS = (CTLModelChecker, BitsetCTLModelChecker, SymbolicCTLModelChecker)

#: Attribute on which per-structure checkers are memoised, keyed by
#: ``(engine, fairness)``, so the memo's lifetime is the structure's.
_MEMO_ATTR = "_witness_checker_memo"

CheckerOrStructure = Union[KripkeStructure, CTLModelChecker, BitsetCTLModelChecker,
                           SymbolicCTLModelChecker]


def resolve_checker(
    structure_or_checker: CheckerOrStructure,
    engine: str = "bitset",
    fairness: Optional[FairnessConstraint] = None,
):
    """Return a CTL checker for the argument, reusing earlier ones when possible.

    A checker passes through unchanged (its own engine and fairness
    constraint win).  A structure gets a checker from
    :func:`~repro.mc.bitset.make_ctl_checker`, memoised on the structure per
    ``(engine, fairness)`` pair — so a sequence of witness calls against the
    same structure shares one compiled form and one satisfaction-set memo.
    """
    if isinstance(structure_or_checker, _CHECKERS):
        return structure_or_checker
    structure = structure_or_checker
    fairness = normalize_fairness(fairness)
    memo = getattr(structure, _MEMO_ATTR, None)
    if memo is None:
        memo = {}
        setattr(structure, _MEMO_ATTR, memo)
    key = (engine, fairness)
    checker = memo.get(key)
    if checker is None:
        checker = make_ctl_checker(structure, engine=engine, fairness=fairness)
        memo[key] = checker
    return checker


def _explicit_structure(checker) -> KripkeStructure:
    structure = checker.structure
    if structure is None:
        raise ModelCheckingError(
            "witness extraction enumerates explicit states; the symbolic checker "
            "was built from a direct encoding without an explicit source structure"
        )
    return structure


# ---------------------------------------------------------------------------
# Graph search
# ---------------------------------------------------------------------------


def _bfs_path(
    structure: KripkeStructure,
    start: State,
    targets: FrozenSet[State],
    allowed: Optional[FrozenSet[State]] = None,
    require_step: bool = False,
) -> Optional[List[State]]:
    """Shortest path from ``start`` to any state in ``targets`` through ``allowed`` states.

    Every state on the path except the final target lies in ``allowed`` when
    it is given (the start state is always allowed), so callers never need to
    re-verify the invariant.  With ``require_step`` the path has at least one
    transition, which permits cycles back to ``start`` itself.
    """
    if not require_step and start in targets:
        return [start]
    parents: Dict[State, State] = {}

    def reconstruct(end: State) -> List[State]:
        path = [end]
        while path[-1] != start:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    seen = {start}
    frontier = deque([start])
    while frontier:
        current = frontier.popleft()
        for successor in sorted(structure.successors(current), key=repr):
            if successor in targets and (successor != start or require_step):
                if successor == start:
                    return reconstruct(current) + [start]
                parents[successor] = current
                return reconstruct(successor)
            if successor in seen:
                continue
            if allowed is not None and successor not in allowed:
                continue
            seen.add(successor)
            parents[successor] = current
            frontier.append(successor)
    return None


# ---------------------------------------------------------------------------
# Finite witnesses: EF and EU
# ---------------------------------------------------------------------------


def witness_eu(
    structure_or_checker: CheckerOrStructure,
    left: Formula,
    right: Formula,
    start: Optional[State] = None,
    engine: str = "bitset",
    fairness: Optional[FairnessConstraint] = None,
) -> Optional[List[State]]:
    """Return a witness path for ``E[left U right]`` from ``start``, or ``None``.

    Every state on the path before the last satisfies ``left``; the last
    state satisfies ``right`` — and, under a fairness constraint, starts a
    fair path (so the finite witness extends to a fair infinite one).
    """
    checker = resolve_checker(structure_or_checker, engine=engine, fairness=fairness)
    structure = _explicit_structure(checker)
    origin = structure.initial_state if start is None else start
    if origin not in checker.satisfaction_set(Exists(Until(left, right))):
        return None
    targets = checker.satisfaction_set(right)
    if checker.fairness is not None:
        targets &= checker.fair_states()
    # The satisfaction check above guarantees the search succeeds, and the
    # BFS invariant guarantees path[:-1] ⊆ left-set — no re-verification.
    return _bfs_path(
        structure, origin, targets, allowed=checker.satisfaction_set(left)
    )


def witness_ef(
    structure_or_checker: CheckerOrStructure,
    formula: Formula,
    start: Optional[State] = None,
    engine: str = "bitset",
    fairness: Optional[FairnessConstraint] = None,
) -> Optional[List[State]]:
    """Return a finite path from ``start`` to a state satisfying ``formula``, or ``None``.

    This is a witness for ``EF formula`` (``E[true U formula]``).
    """
    return witness_eu(
        structure_or_checker,
        TrueLiteral(),
        formula,
        start=start,
        engine=engine,
        fairness=fairness,
    )


# ---------------------------------------------------------------------------
# Lasso witnesses: EG
# ---------------------------------------------------------------------------


def _fair_lasso(
    checker,
    structure: KripkeStructure,
    origin: State,
    good: FrozenSet[State],
) -> Lasso:
    """Build a fair lasso inside ``good`` from ``origin`` (assumed ⊨ fair ``EG``).

    The cycle lies inside one non-trivial SCC of the ``good``-restricted
    graph that intersects every fairness set, and visits every fairness set —
    the finite certificate that the infinite path it denotes is fair.
    """
    condition_sets = checker.fairness_condition_sets()
    restricted: Dict[State, List[State]] = {
        state: [
            successor
            for successor in structure.successors(state)
            if successor in good
        ]
        for state in good
    }
    # Same fair-component criterion the engines' fair-EG fixpoints use.
    components = fair_components(list(good), restricted, condition_sets)
    hub: Set[State] = set()
    for component in components:
        hub |= component
    stem_path = _bfs_path(structure, origin, frozenset(hub), allowed=good)
    if stem_path is None:  # pragma: no cover - origin ⊨ fair EG guarantees a path
        raise ModelCheckingError("no path from %r to a fair component" % (origin,))
    entry = stem_path[-1]
    member = frozenset(next(part for part in components if entry in part))

    # Tour the component: extend the cycle until every fairness set has been
    # visited, then close it back to the entry state with at least one edge.
    cycle: List[State] = [entry]
    for fair_set in condition_sets:
        if any(state in fair_set for state in cycle):
            continue
        segment = _bfs_path(
            structure, cycle[-1], frozenset(fair_set & member), allowed=member
        )
        cycle.extend(segment[1:])
    closing = _bfs_path(
        structure, cycle[-1], frozenset({entry}), allowed=member, require_step=True
    )
    cycle.extend(closing[1:-1])
    return Lasso(stem=tuple(stem_path[:-1]), cycle=tuple(cycle))


def witness_eg(
    structure_or_checker: CheckerOrStructure,
    formula: Formula,
    start: Optional[State] = None,
    engine: str = "bitset",
    fairness: Optional[FairnessConstraint] = None,
) -> Optional[Lasso]:
    """Return a lasso witnessing ``EG formula`` from ``start``, or ``None``.

    Every state on the stem and the cycle satisfies ``formula``.  Under a
    fairness constraint the lasso witnesses *fair* ``EG``: its cycle
    additionally meets every fairness set.
    """
    checker = resolve_checker(structure_or_checker, engine=engine, fairness=fairness)
    structure = _explicit_structure(checker)
    eg_set = checker.satisfaction_set(Exists(Globally(formula)))
    origin = structure.initial_state if start is None else start
    if origin not in eg_set:
        return None
    good = checker.satisfaction_set(formula)
    if checker.fairness is not None:
        return _fair_lasso(checker, structure, origin, good)
    # Plain EG: follow successors inside the EG set until a state repeats.
    # ``eg_set ⊆ good`` (EG f implies f), so no extra membership filter.
    path = [origin]
    positions = {origin: 0}
    current = origin
    while True:
        candidates = sorted(
            (s for s in structure.successors(current) if s in eg_set), key=repr
        )
        if not candidates:  # pragma: no cover - cannot happen when eg_set is correct
            return None
        current = candidates[0]
        if current in positions:
            split = positions[current]
            return Lasso(stem=tuple(path[:split]), cycle=tuple(path[split:]))
        positions[current] = len(path)
        path.append(current)


# ---------------------------------------------------------------------------
# Counterexamples: AG and AF
# ---------------------------------------------------------------------------


def counterexample_ag(
    structure_or_checker: CheckerOrStructure,
    formula: Formula,
    start: Optional[State] = None,
    engine: str = "bitset",
    fairness: Optional[FairnessConstraint] = None,
) -> Optional[List[State]]:
    """Return a path to a state violating ``formula`` (a counterexample to ``AG formula``)."""
    return witness_ef(
        structure_or_checker, Not(formula), start=start, engine=engine, fairness=fairness
    )


def counterexample_af(
    structure_or_checker: CheckerOrStructure,
    formula: Formula,
    start: Optional[State] = None,
    engine: str = "bitset",
    fairness: Optional[FairnessConstraint] = None,
) -> Optional[Lasso]:
    """Return a lasso along which ``formula`` never holds (a counterexample to ``AF formula``).

    Under a fairness constraint the lasso is fair (its cycle meets every
    fairness set): a counterexample to fair ``AF`` must itself be a fair
    path, otherwise the fair quantifier would simply ignore it.
    """
    return witness_eg(
        structure_or_checker, Not(formula), start=start, engine=engine, fairness=fairness
    )
