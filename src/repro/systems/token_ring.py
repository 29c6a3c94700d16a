"""The Section 5 distributed mutual-exclusion token ring.

``r`` identical processes are arranged in a ring.  Each process ``P_i`` is in
one of three local situations: *neutral* (``n_i``), *delayed* waiting to enter
its critical region (``d_i``), or *critical* (``c_i``).  Exactly one process
holds the token (``t_i``); the paper's global state is the five-tuple
``(D, N, T, C, O)`` of index sets:

* ``i ∈ D`` — process ``i`` is delayed;
* ``i ∈ N`` — neutral without the token;
* ``i ∈ T`` — neutral with the token;
* ``i ∈ C`` — critical (and holding the token);
* ``i ∈ O`` — none of the above (always empty in reachable states; invariant 1).

The global transitions (exactly as in the paper's definition of ``R_r``):

1. a neutral process becomes delayed;
2. the token is transferred from its holder ``j ∈ T ∪ C`` to the *closest
   delayed neighbour to the left* ``i = cln(j)``; ``j`` becomes neutral and
   ``i`` enters its critical region;
3. the process in ``T`` enters its critical region;
4. the process in ``C`` returns to ``T`` — but only when no process is
   delayed (otherwise it must hand the token over via rule 2).

``G_r`` as written is not a Kripke structure (the all-delayed/no-token state
has no successors), but the restriction to the states reachable from the
initial state ``s_r^0 = (∅, {2..r}, {1}, ∅, ∅)`` — which the paper calls
``M_r`` — is; :func:`build_token_ring` constructs it directly.

The module also implements the machinery of the appendix: the *rank*
``r(s, i)`` (the maximal number of consecutive ``i``-idle transitions), the
explicit Section 5 correspondence relation between ``M_2`` and ``M_r`` whose
degrees are sums of ranks, the index relation ``IN``, and the ICTL* formulas
for the invariants and the four verified properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import StructureError
from repro.kripke.builders import build_reachable
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp
from repro.logic.ast import Formula
from repro.logic.builders import (
    AF,
    AG,
    AU,
    EF,
    EU,
    exactly_one,
    iatom,
    implies,
    index_exists,
    index_forall,
    land,
    lnot,
    lor,
)
from repro.mc.fairness import FairnessConstraint

if TYPE_CHECKING:
    # Only the correspondence workflow needs these; a model-checking run of
    # the ring does not load repro.correspondence.
    from repro.correspondence.indexed import IndexRelation
    from repro.correspondence.relation import CorrespondenceRelation

__all__ = [
    "RingState",
    "initial_state",
    "cln",
    "ring_successors",
    "sample_successor",
    "state_label",
    "build_token_ring",
    "symbolic_token_ring",
    "rank",
    "is_idle_transition",
    "section5_index_relation",
    "section5_pair_corresponds",
    "section5_degree",
    "section5_correspondence",
    "RECOMMENDED_BASE_SIZE",
    "corrected_index_relation",
    "distinguishing_formula",
    "partition_invariant_holds",
    "invariant_request_persistence",
    "invariant_one_token",
    "ring_mutual_exclusion",
    "property_token_only_on_request",
    "property_critical_implies_token",
    "property_request_until_token",
    "property_eventual_entry",
    "property_eventual_token",
    "ring_scheduler_fairness",
    "fair_ring_properties",
    "ring_properties",
    "ring_invariants",
    "ring_family",
]


# ---------------------------------------------------------------------------
# Global states
# ---------------------------------------------------------------------------


#: The paper's labelling ``L_r``: the indexed propositions a process
#: satisfies in each part (``D``, ``N``, ``T``, ``C``, in ``RingState`` order).
_PART_PROPS = {"D": ("d",), "N": ("n",), "T": ("n", "t"), "C": ("c", "t")}


@dataclass(frozen=True)
class RingState:
    """A global state ``(D, N, T, C, O)`` of the token ring."""

    delayed: FrozenSet[int]
    neutral: FrozenSet[int]
    token_neutral: FrozenSet[int]
    critical: FrozenSet[int]
    other: FrozenSet[int] = frozenset()

    def part_of(self, index: int) -> str:
        """Return which part (``"D"``, ``"N"``, ``"T"``, ``"C"`` or ``"O"``) contains ``index``."""
        if index in self.delayed:
            return "D"
        if index in self.neutral:
            return "N"
        if index in self.token_neutral:
            return "T"
        if index in self.critical:
            return "C"
        return "O"

    def token_holder(self) -> Optional[int]:
        """The process holding the token, or ``None`` when no process does."""
        holders = self.token_neutral | self.critical
        if len(holders) == 1:
            return next(iter(holders))
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        def show(part: FrozenSet[int]) -> str:
            return "{%s}" % ",".join(str(value) for value in sorted(part))

        return "Ring(D=%s N=%s T=%s C=%s)" % (
            show(self.delayed),
            show(self.neutral),
            show(self.token_neutral),
            show(self.critical),
        )


def initial_state(size: int) -> RingState:
    """The paper's initial state ``s_r^0``: process 1 holds the token, everyone is neutral."""
    if size < 1:
        raise StructureError("the ring needs at least one process")
    return RingState(
        delayed=frozenset(),
        neutral=frozenset(range(2, size + 1)),
        token_neutral=frozenset({1}),
        critical=frozenset(),
    )


def cln(state: RingState, holder: int, size: int) -> Optional[int]:
    """The closest delayed neighbour to the *left* of ``holder`` (decreasing index, wrapping).

    Returns ``None`` when no process is delayed.
    """
    if not state.delayed:
        return None
    candidate = holder
    for _ in range(size):
        candidate = size if candidate == 1 else candidate - 1
        if candidate in state.delayed:
            return candidate
    return None


def _local_move(state: RingState, process: int, source: str, target: str) -> RingState:
    """``state`` with ``process`` moved from part ``source`` to part ``target``."""
    parts = {
        "D": state.delayed,
        "N": state.neutral,
        "T": state.token_neutral,
        "C": state.critical,
    }
    parts[source] = parts[source] - {process}
    parts[target] = parts[target] | {process}
    return RingState(parts["D"], parts["N"], parts["T"], parts["C"], state.other)


def _handovers(state: RingState, size: int) -> List[Tuple[int, int]]:
    """Rule 2's ``(holder, receiver)`` pairs, holders in increasing order."""
    pairs = []
    for holder in sorted(state.token_neutral | state.critical):
        receiver = cln(state, holder, size)
        if receiver is not None:
            pairs.append((holder, receiver))
    return pairs


def _handover(state: RingState, holder: int, receiver: int) -> RingState:
    """Rule 2: ``holder`` becomes neutral and ``receiver`` enters its critical region."""
    return RingState(
        delayed=state.delayed - {receiver},
        neutral=state.neutral | {holder},
        token_neutral=state.token_neutral - {holder},
        critical=(state.critical - {holder}) | {receiver},
        other=state.other,
    )


def ring_successors(state: RingState, size: int, buggy: bool = False) -> List[RingState]:
    """The successors of a global state under the four transition rules of ``R_r``.

    With ``buggy=True`` a fifth, *seeded-bug* rule is added: a delayed
    process may enter its critical region directly, without receiving the
    token — which silently duplicates the token (the labelling derives
    ``t_i`` from ``T ∪ C`` membership) and breaks the ``AG Θ_i t_i``
    invariant two transitions from the initial state.  The buggy family is
    the falsification target of the bounded model checker
    (``tests/integration/test_engines_at_scale.py``).
    """
    successors: List[RingState] = []

    # Seeded bug: a delayed process jumps into its critical region on its
    # own, conjuring a second token out of nothing.
    if buggy:
        successors.extend(_local_move(state, p, "D", "C") for p in sorted(state.delayed))

    # Rule 1: a neutral process becomes delayed.
    successors.extend(_local_move(state, p, "N", "D") for p in sorted(state.neutral))

    # Rule 2: the token holder j ∈ T ∪ C hands the token to i = cln(j) ∈ D;
    # j becomes neutral and i enters its critical region.
    successors.extend(_handover(state, *pair) for pair in _handovers(state, size))

    # Rule 3: the process in T enters its critical region.
    successors.extend(_local_move(state, p, "T", "C") for p in sorted(state.token_neutral))

    # Rule 4: the process in C returns to T, but only when nobody is delayed.
    if not state.delayed:
        successors.extend(_local_move(state, p, "C", "T") for p in sorted(state.critical))

    return successors


def sample_successor(state: RingState, size: int, rng: random.Random) -> Optional[RingState]:
    """The successor ``rng.choice(ring_successors(state, size))`` would pick.

    Counts the successors rule by rule in :func:`ring_successors` order,
    makes the same single draw over their indices and builds only the chosen
    state: ``O(r)`` per step instead of ``r`` successors of four ``r``-element
    sets each, which is what lets a random walk cross a 1000-process ring.
    ``None`` (and no draw) when the state has no successor.
    """
    rules = [
        (sorted(state.neutral), lambda p: _local_move(state, p, "N", "D")),
        (_handovers(state, size), lambda pair: _handover(state, *pair)),
        (sorted(state.token_neutral), lambda p: _local_move(state, p, "T", "C")),
        (
            [] if state.delayed else sorted(state.critical),
            lambda p: _local_move(state, p, "C", "T"),
        ),
    ]
    total = sum(len(choices) for choices, _ in rules)
    if total == 0:
        return None
    index = rng.choice(range(total))
    for choices, build in rules:
        if index < len(choices):
            return build(choices[index])
        index -= len(choices)
    return None  # pragma: no cover - index < total


def state_label(state: RingState) -> FrozenSet[IndexedProp]:
    """The paper's labelling ``L_r``: ``d_i``, ``n_i``, ``t_i``, ``c_i`` per part."""
    members = (state.delayed, state.neutral, state.token_neutral, state.critical)
    label = set()
    for names, processes in zip(_PART_PROPS.values(), members):
        for process in processes:
            for name in names:
                label.add(IndexedProp(name, process))
    return frozenset(label)


def build_token_ring(
    size: int, max_states: Optional[int] = None, buggy: bool = False
) -> IndexedKripkeStructure:
    """Build ``M_r``: the token ring's global state graph restricted to reachable states.

    Parameters
    ----------
    size:
        The number of processes ``r``.
    max_states:
        Optional safety bound on the exploration (the reachable state space
        grows exponentially with ``r``).
    buggy:
        Include the seeded token-duplication bug of :func:`ring_successors`
        (the BMC falsification target; the one-token invariant fails).
    """
    return build_reachable(
        initial_state(size),
        lambda state: ring_successors(state, size, buggy=buggy),
        state_label,
        index_values=range(1, size + 1),
        name="M_%d%s" % (size, " (buggy)" if buggy else ""),
        overflow=lambda bound: StructureError(
            "token ring exploration exceeded max_states=%d" % bound
        ),
        max_states=max_states,
        indexed_prop_names={"d", "n", "t", "c"},
    )


# ---------------------------------------------------------------------------
# The symbolic (BDD) encoding of M_r — no explicit product graph
# ---------------------------------------------------------------------------

#: The local-part alphabet of the symbolic ring encoding; two bits per process.
_SYMBOLIC_PARTS = ("N", "D", "T", "C")


def symbolic_token_ring(size: int, buggy: bool = False, domain: str = "reachable"):
    """Encode ``M_r`` directly as binary decision diagrams.

    Each process gets two state bits recording which part (``N``, ``D``,
    ``T``, ``C``) it is in, and the four global transition rules of ``R_r``
    are written down as BDD relations over those bits — the explicit global
    state graph is **never built**, which is what lets the symbolic engine
    check ring sizes the explicit engines cannot reach.  Rule 2 (token
    transfer to the closest delayed left neighbour) contributes one disjunct
    per potential holder ``j``: the disjunct for receiver ``i`` carries the
    ``cln`` side condition that no process strictly between ``j`` and ``i``
    (walking left from ``j``) is delayed.  The rules are OR-ed into one
    relation BDD, which stays small (about a thousand nodes at r = 24).

    The returned :class:`~repro.kripke.symbolic.SymbolicKripkeStructure`
    restricts its state set to the states reachable from ``s_r^0`` (computed
    symbolically), so it represents exactly the structure
    :func:`build_token_ring` builds explicitly — the test-suite decodes and
    compares the two at small sizes.  It declares the rotation
    ``i ↦ i + 1`` (:meth:`~repro.kripke.symbolic.ProcessFamilyEncoding.rotation`)
    as its candidate process symmetry; the ``cln`` hand-off only looks at
    positions relative to the holder, so the symmetric BDD path of
    :mod:`repro.mc.symbolic` verifies and uses it.

    ``buggy=True`` seeds the same token-duplication bug as
    :func:`ring_successors` (a delayed process may enter its critical region
    directly).  ``domain="free"`` skips the symbolic reachability fixpoint
    and takes every bit pattern as a state: exactly what the SAT-based
    bounded model checker wants, since its unrolling only ever visits states
    reachable from the (still exact) initial state — the falsification cost
    then really is proportional to the bound rather than to reachable-set
    construction.  Fixpoint engines should keep the default
    ``domain="reachable"``.
    """
    if size < 1:
        raise StructureError("the ring needs at least one process")
    from repro.bdd import BDDManager
    from repro.kripke.symbolic import ProcessFamilyEncoding, SymbolicKripkeStructure, family_domain

    domain_node = family_domain(domain)
    manager = BDDManager()
    indices = tuple(range(1, size + 1))
    encoding = ProcessFamilyEncoding(manager, indices, _SYMBOLIC_PARTS)
    land, lor, neg = manager.apply_and, manager.apply_or, manager.negate

    # Rule 1: a neutral process becomes delayed.
    relation = encoding.local_move("N", "D")

    # Rule 2: the holder j ∈ T ∪ C hands the token to i = cln(j) ∈ D; j
    # becomes neutral and i enters its critical region.  One disjunct per
    # j: (holder guard ∧ holder effect) ∧ (receiver disjunction).
    for holder in indices:
        holder_core = land(
            encoding.current_in(holder, ("T", "C")), encoding.next(holder, "N")
        )
        handoffs = 0
        nobody_between_delayed = 1
        candidate = holder
        for _ in range(size - 1):
            candidate = size if candidate == 1 else candidate - 1
            guard = land(encoding.current(candidate, "D"), nobody_between_delayed)
            effect = land(
                encoding.next(candidate, "C"),
                encoding.frame([holder, candidate]),
            )
            handoffs = lor(handoffs, land(guard, effect))
            nobody_between_delayed = land(
                nobody_between_delayed, neg(encoding.current(candidate, "D"))
            )
        relation = lor(relation, land(holder_core, handoffs))

    # Rule 3: the process in T enters its critical region.
    relation = lor(relation, encoding.local_move("T", "C"))

    # Seeded bug (buggy=True): a delayed process enters its critical region
    # directly, duplicating the token — cf. ring_successors(buggy=True).
    if buggy:
        relation = lor(relation, encoding.local_move("D", "C"))

    # Rule 4: the process in C returns to T, but only when nobody is delayed.
    nobody_delayed = 1
    for process in indices:
        nobody_delayed = land(nobody_delayed, neg(encoding.current(process, "D")))
    relation = lor(relation, land(nobody_delayed, encoding.local_move("C", "T")))

    # The labelling L_r as characteristic functions (cf. state_label).
    prop_nodes = encoding.prop_nodes(_PART_PROPS)

    initial_parts = {process: ("T" if process == 1 else "N") for process in indices}
    initial = encoding.state_cube(initial_parts)

    def decode_assignment(model) -> RingState:
        by_part: Dict[str, set] = {part: set() for part in _SYMBOLIC_PARTS}
        for process, part in encoding.decode(model).items():
            by_part[part].add(process)
        return RingState(
            delayed=frozenset(by_part["D"]),
            neutral=frozenset(by_part["N"]),
            token_neutral=frozenset(by_part["T"]),
            critical=frozenset(by_part["C"]),
        )

    def encode_assignment(state: RingState):
        return encoding.encode({process: state.part_of(process) for process in indices})

    return SymbolicKripkeStructure(
        manager,
        encoding.num_bits,
        relation,
        initial,
        domain_node,
        prop_nodes,
        index_values=frozenset(indices),
        encode_assignment=encode_assignment,
        decode_assignment=decode_assignment,
        name="M_%d (symbolic%s%s)" % (
            size,
            ", buggy" if buggy else "",
            ", free domain" if domain == "free" else "",
        ),
        symmetry=encoding.rotation(),
    )


# ---------------------------------------------------------------------------
# The appendix: ranks, idle transitions, and the explicit correspondence
# ---------------------------------------------------------------------------


def is_idle_transition(source: RingState, target: RingState, index: int) -> bool:
    """Return ``True`` when the transition does not affect process ``index``.

    Following the appendix: ``index`` stays in the same part, and — when
    ``index`` is critical and nobody is delayed — nobody becomes delayed
    either (that extra condition mirrors the ``D = ∅ ⇔ D' = ∅`` conjunct of
    the Section 5 correspondence).
    """
    if source.part_of(index) != target.part_of(index):
        return False
    if index in source.critical and not source.delayed:
        return not target.delayed
    return True


def rank(state: RingState, index: int, size: int) -> int:
    """The appendix rank ``r(s, i)``: the maximal number of consecutive ``i``-idle transitions.

    The rank is 0 both when an exact match is required immediately *and* when
    infinitely many idle transitions are possible (the ``i ∈ N`` case); the
    appendix gives the closed forms implemented here:

    * ``i ∈ N`` — infinitely many idle transitions are possible, rank 0;
    * ``i ∈ D`` — ``|N| + |T| + 2·((j − i) mod r − 1)`` where ``j`` holds the token;
    * ``i ∈ T`` — ``|N|``;
    * ``i ∈ C`` and ``D = ∅`` — 0;
    * ``i ∈ C`` and ``D ≠ ∅`` — ``|N|``.
    """
    part = state.part_of(index)
    if part == "N":
        return 0
    if part == "T":
        return len(state.neutral)
    if part == "C":
        return len(state.neutral) if state.delayed else 0
    if part == "D":
        holder = state.token_holder()
        if holder is None:
            raise StructureError("unreachable ring state without a token holder: %r" % (state,))
        distance = (holder - index) % size
        return len(state.neutral) + len(state.token_neutral) + 2 * (distance - 1)
    raise StructureError("process %d is in no part of state %r" % (index, state))


def section5_index_relation(size: int) -> IndexRelation:
    """The paper's relation ``IN = {(1, 1)} ∪ {(2, i) : i ∈ I_r − {1}}`` between ``I_2`` and ``I_r``."""
    from repro.correspondence.indexed import IndexRelation

    if size < 2:
        raise StructureError("the Section 5 correspondence needs at least two processes")
    pairs = {(1, 1)}
    for value in range(2, size + 1):
        pairs.add((2, value))
    return IndexRelation.from_pairs(pairs)


def section5_pair_corresponds(
    small_state: RingState, small_index: int, large_state: RingState, large_index: int
) -> bool:
    """The Section 5 state condition: same part, and the ``D = ∅`` flags agree when critical."""
    if small_state.part_of(small_index) != large_state.part_of(large_index):
        return False
    if small_index in small_state.critical:
        return bool(small_state.delayed) == bool(large_state.delayed)
    return True


def section5_degree(
    small_state: RingState,
    small_index: int,
    large_state: RingState,
    large_index: int,
    small_size: int,
    large_size: int,
) -> int:
    """The Section 5 degree: ``r(s, i) + r(s', i')``."""
    return rank(small_state, small_index, small_size) + rank(
        large_state, large_index, large_size
    )


def section5_correspondence(
    small: IndexedKripkeStructure,
    large: IndexedKripkeStructure,
    small_index: int,
    large_index: int,
) -> CorrespondenceRelation:
    """Build the explicit Section 5 correspondence relation ``E_{ii'}`` between two rings.

    The relation pairs every reachable state of the small ring with every
    reachable state of the large ring that satisfies the part condition, and
    annotates the pair with the rank-sum degree.  It is exactly the relation
    whose correctness the appendix proves; the test-suite re-validates it with
    the generic definition checker.
    """
    from repro.correspondence.relation import CorrespondenceRelation

    small_size = len(small.index_values)
    large_size = len(large.index_values)
    degrees: Dict[Tuple[RingState, RingState], int] = {}
    for small_state in small.states:
        for large_state in large.states:
            if section5_pair_corresponds(small_state, small_index, large_state, large_index):
                degrees[(small_state, large_state)] = section5_degree(
                    small_state, small_index, large_state, large_index, small_size, large_size
                )
    return CorrespondenceRelation(degrees)


# ---------------------------------------------------------------------------
# The reproduction's findings about the Section 5 example
# ---------------------------------------------------------------------------

#: The smallest base instance that corresponds (in the Section 3/4 sense) to
#: every larger ring.  The paper uses the two-process ring as the base case,
#: but — as :func:`distinguishing_formula` witnesses — ``M_2`` satisfies a
#: restricted ICTL* formula that every larger ring violates, so no
#: correspondence between ``M_2`` and ``M_r`` (r ≥ 3) can exist.  Rings of
#: size ≥ 3 do correspond pairwise (verified by the decision algorithm in the
#: test-suite), so three processes are the correct base case.
RECOMMENDED_BASE_SIZE = 3


def corrected_index_relation(small_size: int, large_size: int) -> IndexRelation:
    """The ``IN`` relation that actually satisfies Theorem 5's hypotheses for two rings.

    Process 1 (the initial token holder) of the small ring is related to
    process 1 of the large ring, and every other small-ring process to every
    other large-ring process.  With ``small_size >= RECOMMENDED_BASE_SIZE``
    every related pair of reductions corresponds, so closed restricted ICTL*
    verdicts transfer from the small ring to the large one.
    """
    from repro.correspondence.indexed import IndexRelation

    if small_size < 2 or large_size < 2:
        raise StructureError("both rings need at least two processes")
    pairs = {(1, 1)}
    for small_value in range(2, small_size + 1):
        for large_value in range(2, large_size + 1):
            pairs.add((small_value, large_value))
    return IndexRelation.from_pairs(pairs)


def distinguishing_formula() -> Formula:
    """A restricted ICTL* formula separating ``M_2`` from every larger ring.

    The formula is::

        ∧_i AG( d_i ⇒ A[ d_i U ( c_i ∧ E[ c_i U (n_i ∧ t_i) ] ) ] )

    "whenever process *i* is delayed, along every path it stays delayed until
    it enters its critical region *in a situation from which it can keep the
    token* (i.e. return to the neutral-with-token state)".  In the two-process
    ring a delayed process always receives the token when no other process is
    delayed, so the inner ``E[c_i U (n_i ∧ t_i)]`` always holds at the moment
    of entry and the formula is **true** in ``M_2``.  In any ring with three
    or more processes there are reachable configurations in which a delayed
    process is forced to receive the token while another process is still
    delayed, after which it must hand the token over instead of returning to
    ``T`` — the formula is **false** there.

    Because the formula is closed, next-free and satisfies the Section 4
    restrictions, Theorem 5 implies that ``M_2`` cannot correspond to ``M_r``
    for ``r ≥ 3``; this is the documented deviation of the reproduction from
    the paper's Section 5 claim (see EXPERIMENTS.md).
    """
    d_i = iatom("d", "i")
    t_i = iatom("t", "i")
    c_i = iatom("c", "i")
    n_i = iatom("n", "i")
    keeps_token = EU(c_i, land(n_i, t_i))
    return index_forall("i", AG(implies(d_i, AU(d_i, land(c_i, keeps_token)))))


# ---------------------------------------------------------------------------
# Invariants and properties (Section 5)
# ---------------------------------------------------------------------------


def partition_invariant_holds(structure: IndexedKripkeStructure) -> bool:
    """Invariant 1: in every reachable state ``D, N, T, C`` partition ``I`` and ``O`` is empty."""
    indices = set(structure.index_values)
    for state in structure.states:
        if not isinstance(state, RingState):
            raise StructureError("partition_invariant_holds expects RingState states")
        parts = [state.delayed, state.neutral, state.token_neutral, state.critical]
        union = set()
        total = 0
        for part in parts:
            union |= part
            total += len(part)
        if state.other or union != indices or total != len(indices):
            return False
    return True


def invariant_request_persistence() -> Formula:
    """Invariant 2: ``∧_i AG(d_i ⇒ ¬E[d_i U (¬d_i ∧ ¬t_i)])``.

    Once a process has requested the token it keeps requesting it until the
    token is received.
    """
    d_i = iatom("d", "i")
    t_i = iatom("t", "i")
    return index_forall(
        "i", AG(implies(d_i, lnot(EU(d_i, land(lnot(d_i), lnot(t_i))))))
    )


def invariant_one_token() -> Formula:
    """Invariant 3: ``AG Θ_i t_i`` — exactly one process holds the token."""
    return AG(exactly_one("t"))


def ring_mutual_exclusion(size: int) -> Formula:
    """Pairwise mutual exclusion: ``AG ∧_{i<j} ¬(c_i ∧ c_j)``.

    A consequence of :func:`invariant_one_token`, but a much harder *proof*
    target: the one-token invariant is 1-inductive (every transition rule
    preserves it on any state), whereas pairwise exclusion alone is not
    inductive on the free bit-pattern domain — a state with one critical
    process and a second token elsewhere violates nothing pairwise yet
    reaches a violation in one rule-3 step.  k-induction must therefore
    enumerate simple paths through the free state space (``4^size`` bit
    patterns), while IC3 discovers the token-counting strengthening as
    blocked cubes.  Written over concrete indices like
    :func:`repro.systems.mutex.mutex_safety`, keeping the body
    propositional — the SAT engines' invariant fragment.  With a single
    process there is no pair to exclude, so the formula degenerates to
    ``AG true``.
    """
    if size < 1:
        raise StructureError("the ring needs at least one process")
    pairs = [
        lnot(land(iatom("c", left), iatom("c", right)))
        for left in range(1, size + 1)
        for right in range(left + 1, size + 1)
    ]
    return AG(land(*pairs))


def property_token_only_on_request() -> Formula:
    """Property 1: ``¬ ∨_i EF(¬d_i ∧ ¬t_i ∧ E[¬d_i U t_i])`` — the token is transferred only upon request."""
    d_i = iatom("d", "i")
    t_i = iatom("t", "i")
    inner = land(lnot(d_i), lnot(t_i), EU(lnot(d_i), t_i))
    return lnot(index_exists("i", EF(inner)))


def property_critical_implies_token() -> Formula:
    """Property 2: ``∧_i AG(c_i ⇒ t_i)`` — only the token holder may be critical."""
    return index_forall("i", AG(implies(iatom("c", "i"), iatom("t", "i"))))


def property_request_until_token() -> Formula:
    """Property 3: ``∧_i AG(d_i ⇒ A[d_i U t_i])`` — a requesting process eventually receives the token."""
    d_i = iatom("d", "i")
    t_i = iatom("t", "i")
    return index_forall("i", AG(implies(d_i, AU(d_i, t_i))))


def property_eventual_entry() -> Formula:
    """Property 4: ``∧_i AG(d_i ⇒ AF c_i)`` — every process that wants to enter its critical region eventually does."""
    return index_forall("i", AG(implies(iatom("d", "i"), AF(iatom("c", "i")))))


# ---------------------------------------------------------------------------
# Fairness: liveness beyond what plain CTL can promise
# ---------------------------------------------------------------------------


def property_eventual_token() -> Formula:
    """The fairness-dependent liveness claim ``∧_i AF t_i`` — every process eventually holds the token.

    Unlike properties 1–4 this has no request premise, so it is **false** in
    plain CTL on every ring: the path on which process ``i`` simply never
    leaves its neutral situation is a counterexample.  Under the scheduler
    fairness of :func:`ring_scheduler_fairness` it is **true** — a fair path
    has every process requesting (or holding) infinitely often, request
    persistence keeps a delayed process delayed until the token arrives, and
    the ``cln`` hand-off rule walks the token left until it reaches it.
    """
    return index_forall("i", AF(iatom("t", "i")))


def ring_scheduler_fairness(size: int) -> FairnessConstraint:
    """Per-process scheduler fairness for ``M_r``: each process is infinitely often ``d_i ∨ t_i``.

    One fairness condition per process ``i`` asserting that ``i`` is delayed
    or holds the token; a fair path is one on which *every* process keeps
    participating in the protocol (no process is starved into staying
    neutral forever).  This is the weakest natural constraint that makes the
    Section 5 liveness claims of the ``AF t_i`` form true — see
    :func:`property_eventual_token`.
    """
    if size < 1:
        raise StructureError("the ring needs at least one process")
    return FairnessConstraint(
        conditions=tuple(
            lor(iatom("d", process), iatom("t", process))
            for process in range(1, size + 1)
        ),
        name="scheduler fairness (d_i ∨ t_i) for M_%d" % size,
    )


def fair_ring_properties() -> Dict[str, Formula]:
    """The liveness properties that need fairness, keyed like :func:`ring_properties`."""
    return {"eventual_token": property_eventual_token()}


def ring_properties() -> Dict[str, Formula]:
    """The four properties checked in Section 5, keyed by a short name."""
    return {
        "token_only_on_request": property_token_only_on_request(),
        "critical_implies_token": property_critical_implies_token(),
        "request_until_token": property_request_until_token(),
        "eventual_entry": property_eventual_entry(),
    }


def ring_invariants() -> Dict[str, Formula]:
    """The temporal invariants of Section 5 (the partition invariant is structural)."""
    return {
        "request_persistence": invariant_request_persistence(),
        "one_token": invariant_one_token(),
    }


def ring_family(
    size: int, fairness: bool = False
) -> Tuple[Dict[str, Formula], Optional[FairnessConstraint]]:
    """The ring property family as ``repro-mc`` checks it: ``(name -> formula, fairness)``.

    Names carry ``property``/``invariant``/``fair liveness`` prefixes.  With
    ``fairness`` the family gains :func:`fair_ring_properties`, which are
    only true under :func:`ring_scheduler_fairness` (see E11), and that
    constraint is returned.
    """
    family = {"property " + name: f for name, f in ring_properties().items()}
    for name, formula in ring_invariants().items():
        family["invariant " + name] = formula
    family["invariant mutual_exclusion"] = ring_mutual_exclusion(size)
    if not fairness:
        return family, None
    for name, formula in fair_ring_properties().items():
        family["fair liveness " + name] = formula
    return family, ring_scheduler_fairness(size)
