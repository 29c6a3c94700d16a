"""Checking a candidate relation against the Section 3 definition of correspondence.

The definition (Section 3 of the paper).  ``E ⊆ S × S' × ℕ`` is a
*correspondence relation* between ``M`` and ``M'`` when:

1. ``s0 E^k s0'`` for some ``k`` (the initial states correspond);
2. for every ``s E^k s'``:

   a. ``s`` and ``s'`` satisfy the same atomic propositions;
   b. either ``s'`` has a successor ``s1'`` with ``s E^v s1'`` for some
      ``v < k`` (the right structure takes a step on its own and the budget
      shrinks), or **every** successor ``s1`` of ``s`` satisfies
      ``s1 E^v s'`` for some ``v < k`` (the left structure takes a step on its
      own) or has a matching successor ``s1'`` of ``s'`` with ``s1 E^w s1'``
      for some ``w ≥ 0`` (both step together — the budget resets);
   c. the symmetric condition with the roles of ``s`` and ``s'`` exchanged.

   In particular a pair of degree 0 must *exactly match*: every move of one
   side is matched immediately by a move of the other.

In addition the paper requires ``E`` to be total for both ``S`` and ``S'``
(every state of either structure appears in some triple); totality is checked
by default and can be relaxed for partial relations built by hand.

The paper states the degree bounds informally ("the minimal degree of
correspondence is bounded by the number of states in the machine"); the
decision algorithm in :mod:`repro.correspondence.check` relies on the bound
``|S| + |S'|`` used in Lemma 1.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import CorrespondenceError
from repro.kripke.structure import KripkeStructure, State
from repro.correspondence.relation import CorrespondenceRelation, LabelKey, default_label_key

__all__ = [
    "correspondence_violations",
    "is_correspondence",
    "assert_correspondence",
    "pair_clause_violations",
]


def pair_clause_violations(
    left: KripkeStructure,
    right: KripkeStructure,
    relation: CorrespondenceRelation,
    left_state: State,
    right_state: State,
    label_key: Optional[LabelKey] = None,
) -> List[str]:
    """Return the clause violations of a single pair ``(left_state, right_state)``.

    An empty list means the pair satisfies clauses 2a, 2b and 2c with the
    degree recorded in ``relation``.
    """
    read_label = label_key or default_label_key
    degree = relation.degree(left_state, right_state)
    violations: List[str] = []

    if read_label(left, left_state) != read_label(right, right_state):
        violations.append(
            "clause 2a: labels differ for pair (%r, %r): %r vs %r"
            % (
                left_state,
                right_state,
                read_label(left, left_state),
                read_label(right, right_state),
            )
        )

    if not _clause_2b(left, right, relation, left_state, right_state, degree):
        violations.append(
            "clause 2b: pair (%r, %r) with degree %d cannot match the moves of the "
            "left state" % (left_state, right_state, degree)
        )
    if not _clause_2c(left, right, relation, left_state, right_state, degree):
        violations.append(
            "clause 2c: pair (%r, %r) with degree %d cannot match the moves of the "
            "right state" % (left_state, right_state, degree)
        )
    return violations


def _clause_2b(
    left: KripkeStructure,
    right: KripkeStructure,
    relation: CorrespondenceRelation,
    left_state: State,
    right_state: State,
    degree: int,
) -> bool:
    # First disjunct: the right structure steps on its own with a smaller budget.
    for right_successor in right.successors(right_state):
        partner_degree = relation.degree_or_none(left_state, right_successor)
        if partner_degree is not None and partner_degree < degree:
            return True
    # Second disjunct: every move of the left state is accounted for.
    for left_successor in left.successors(left_state):
        stays = relation.degree_or_none(left_successor, right_state)
        if stays is not None and stays < degree:
            continue
        if any(
            relation.corresponds(left_successor, right_successor)
            for right_successor in right.successors(right_state)
        ):
            continue
        return False
    return True


def _clause_2c(
    left: KripkeStructure,
    right: KripkeStructure,
    relation: CorrespondenceRelation,
    left_state: State,
    right_state: State,
    degree: int,
) -> bool:
    # Symmetric to clause 2b with the roles of the two structures exchanged.
    for left_successor in left.successors(left_state):
        partner_degree = relation.degree_or_none(left_successor, right_state)
        if partner_degree is not None and partner_degree < degree:
            return True
    for right_successor in right.successors(right_state):
        stays = relation.degree_or_none(left_state, right_successor)
        if stays is not None and stays < degree:
            continue
        if any(
            relation.corresponds(left_successor, right_successor)
            for left_successor in left.successors(left_state)
        ):
            continue
        return False
    return True


def correspondence_violations(
    left: KripkeStructure,
    right: KripkeStructure,
    relation: CorrespondenceRelation,
    require_total: bool = True,
    label_key: Optional[LabelKey] = None,
    max_reported: int = 50,
) -> List[str]:
    """Check ``relation`` against the full definition; return human-readable violations.

    Parameters
    ----------
    require_total:
        When true (the default, matching the paper) every state of both
        structures must appear in some pair.
    label_key:
        Optional override for reading a state's label, used by the indexed
        correspondence to compare reduced labels.
    max_reported:
        Stop after this many violations (the relation for a large structure
        can produce an enormous report otherwise).
    """
    violations: List[str] = []

    if not relation.corresponds(left.initial_state, right.initial_state):
        violations.append("clause 1: the initial states do not correspond")

    if require_total:
        uncovered_left = left.states - relation.left_states
        uncovered_right = right.states - relation.right_states
        if uncovered_left:
            violations.append(
                "totality: %d left state(s) appear in no pair (e.g. %r)"
                % (len(uncovered_left), next(iter(uncovered_left)))
            )
        if uncovered_right:
            violations.append(
                "totality: %d right state(s) appear in no pair (e.g. %r)"
                % (len(uncovered_right), next(iter(uncovered_right)))
            )

    for left_state, right_state in relation.pairs():
        if len(violations) >= max_reported:
            violations.append("... further violations suppressed")
            break
        violations.extend(
            pair_clause_violations(left, right, relation, left_state, right_state, label_key)
        )
    return violations


def is_correspondence(
    left: KripkeStructure,
    right: KripkeStructure,
    relation: CorrespondenceRelation,
    require_total: bool = True,
    label_key: Optional[LabelKey] = None,
) -> bool:
    """Return ``True`` when ``relation`` is a correspondence relation between the structures."""
    return not correspondence_violations(
        left, right, relation, require_total=require_total, label_key=label_key
    )


def assert_correspondence(
    left: KripkeStructure,
    right: KripkeStructure,
    relation: CorrespondenceRelation,
    require_total: bool = True,
    label_key: Optional[LabelKey] = None,
) -> None:
    """Raise :class:`CorrespondenceError` unless ``relation`` satisfies the definition."""
    violations = correspondence_violations(
        left, right, relation, require_total=require_total, label_key=label_key
    )
    if violations:
        raise CorrespondenceError(
            "relation is not a correspondence relation: %s"
            % "; ".join(violations[:5]) + (" ..." if len(violations) > 5 else "")
        )
