"""Deciding whether two structures correspond, and with which minimal degrees.

The paper notes that its definition of correspondence "is not constructive"
and defers an algorithm to Browne, Clarke & Grumberg (1987).  This module
implements a decision procedure in the same spirit:

1. start from the *label-compatible* pair relation
   ``R₀ = {(s, s') : L(s) = L'(s')}`` — no pair outside it can ever correspond
   because of clause 2a;
2. given a candidate relation ``R``, compute the *minimal degree* of every
   pair by rank iteration: a pair gets degree ``k`` at the first ``k`` for
   which clauses 2b and 2c are satisfiable using (i) pairs of ``R`` for the
   "both sides step together, any degree" sub-clauses and (ii) pairs already
   assigned a degree ``< k`` for the "one side steps alone, budget shrinks"
   sub-clauses.  Degrees are bounded by ``|S| + |S'|`` (the bound used in the
   paper's Lemma 1), so the iteration stops after that many rounds;
3. remove from ``R`` every pair that received no finite degree and repeat
   until nothing changes.

At the fixpoint the surviving pairs, annotated with their minimal degrees,
satisfy the definition by construction (the library re-validates the result
with :func:`repro.correspondence.definition.assert_correspondence` in its own
tests).  Two structures *correspond* when the fixpoint relation contains the
pair of initial states and is total for both state sets.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.kripke.structure import KripkeStructure, State
from repro.correspondence.relation import CorrespondenceRelation, LabelKey, default_label_key

__all__ = ["find_correspondence", "structures_correspond", "minimal_degrees"]

Pair = Tuple[State, State]


def _label_compatible_pairs(
    left: KripkeStructure, right: KripkeStructure, label_key: LabelKey
) -> Set[Pair]:
    right_by_label: Dict[object, Set[State]] = {}
    for right_state in right.states:
        right_by_label.setdefault(label_key(right, right_state), set()).add(right_state)
    pairs: Set[Pair] = set()
    for left_state in left.states:
        for right_state in right_by_label.get(label_key(left, left_state), ()):
            pairs.add((left_state, right_state))
    return pairs


def minimal_degrees(
    left: KripkeStructure,
    right: KripkeStructure,
    candidate_pairs: Set[Pair],
    max_degree: Optional[int] = None,
) -> Dict[Pair, int]:
    """Compute minimal degrees for ``candidate_pairs`` relative to themselves.

    A pair receives the smallest ``k ≤ max_degree`` at which clauses 2b and 2c
    hold when "corresponds with any degree" is read as membership in
    ``candidate_pairs`` and "corresponds with degree < k" as having already
    received a smaller minimal degree.  Pairs that receive no degree are
    absent from the result.
    """
    bound = left.num_states + right.num_states if max_degree is None else max_degree
    degrees: Dict[Pair, int] = {}
    unassigned = set(candidate_pairs)

    for level in range(bound + 1):
        newly_assigned = []
        for pair in unassigned:
            left_state, right_state = pair
            if _clause_2b(left, right, candidate_pairs, degrees, left_state, right_state, level) and _clause_2c(
                left, right, candidate_pairs, degrees, left_state, right_state, level
            ):
                newly_assigned.append(pair)
        if not newly_assigned and level > 0:
            # No pair can acquire a degree at a later level either, because the
            # clause conditions only get harder to satisfy once the set of
            # already-assigned smaller degrees stops growing.
            break
        for pair in newly_assigned:
            degrees[pair] = level
            unassigned.discard(pair)
        if not unassigned:
            break
    return degrees


def _clause_2b(
    left: KripkeStructure,
    right: KripkeStructure,
    candidates: Set[Pair],
    degrees: Dict[Pair, int],
    left_state: State,
    right_state: State,
    level: int,
) -> bool:
    for right_successor in right.successors(right_state):
        assigned = degrees.get((left_state, right_successor))
        if assigned is not None and assigned < level:
            return True
    for left_successor in left.successors(left_state):
        stays = degrees.get((left_successor, right_state))
        if stays is not None and stays < level:
            continue
        if any(
            (left_successor, right_successor) in candidates
            for right_successor in right.successors(right_state)
        ):
            continue
        return False
    return True


def _clause_2c(
    left: KripkeStructure,
    right: KripkeStructure,
    candidates: Set[Pair],
    degrees: Dict[Pair, int],
    left_state: State,
    right_state: State,
    level: int,
) -> bool:
    for left_successor in left.successors(left_state):
        assigned = degrees.get((left_successor, right_state))
        if assigned is not None and assigned < level:
            return True
    for right_successor in right.successors(right_state):
        stays = degrees.get((left_state, right_successor))
        if stays is not None and stays < level:
            continue
        if any(
            (left_successor, right_successor) in candidates
            for left_successor in left.successors(left_state)
        ):
            continue
        return False
    return True


def find_correspondence(
    left: KripkeStructure,
    right: KripkeStructure,
    max_degree: Optional[int] = None,
    require_initial: bool = True,
    require_total: bool = True,
    label_key: Optional[LabelKey] = None,
) -> Optional[CorrespondenceRelation]:
    """Compute the coarsest correspondence relation between ``left`` and ``right``.

    Returns the relation annotated with minimal degrees, or ``None`` when the
    structures do not correspond (the initial states are unrelated or, when
    ``require_total`` is set, some state of either structure corresponds to
    nothing).

    Parameters
    ----------
    max_degree:
        Optional cap on the degrees considered; defaults to ``|S| + |S'|``.
    require_initial / require_total:
        Which of the definition's global conditions must hold for the result
        to count as "the structures correspond".  With both set to ``False``
        the fixpoint relation is returned even when it is empty.
    label_key:
        Optional override for reading a state's label (used by the indexed
        correspondence to compare reduced labels).
    """
    key = label_key or default_label_key
    candidates = _label_compatible_pairs(left, right, key)

    while True:
        degrees = minimal_degrees(left, right, candidates, max_degree=max_degree)
        surviving = set(degrees)
        if surviving == candidates:
            break
        candidates = surviving

    relation = CorrespondenceRelation(degrees)
    if require_initial and not relation.corresponds(left.initial_state, right.initial_state):
        return None
    if require_total and not relation.is_total_for(left.states, right.states):
        return None
    return relation


def structures_correspond(
    left: KripkeStructure,
    right: KripkeStructure,
    max_degree: Optional[int] = None,
    label_key: Optional[LabelKey] = None,
) -> bool:
    """Return ``True`` when the two structures correspond (Section 3 sense)."""
    return (
        find_correspondence(
            left, right, max_degree=max_degree, label_key=label_key
        )
        is not None
    )
