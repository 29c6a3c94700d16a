"""Unit tests for the Section 5 token ring system."""

import random

import pytest

from repro.errors import StructureError
from repro.kripke.structure import IndexedProp
from repro.systems.token_ring import (
    RECOMMENDED_BASE_SIZE,
    RingState,
    build_token_ring,
    cln,
    corrected_index_relation,
    distinguishing_formula,
    initial_state,
    invariant_one_token,
    invariant_request_persistence,
    is_idle_transition,
    partition_invariant_holds,
    property_critical_implies_token,
    property_eventual_entry,
    rank,
    ring_invariants,
    ring_properties,
    ring_successors,
    sample_successor,
    section5_correspondence,
    section5_degree,
    section5_index_relation,
    section5_pair_corresponds,
    state_label,
)


# ---------------------------------------------------------------------------
# Global states and transitions
# ---------------------------------------------------------------------------


def test_initial_state_matches_the_paper():
    state = initial_state(4)
    assert state.token_neutral == frozenset({1})
    assert state.neutral == frozenset({2, 3, 4})
    assert state.delayed == frozenset()
    assert state.critical == frozenset()
    assert state.token_holder() == 1
    with pytest.raises(StructureError):
        initial_state(0)


def test_part_of_and_token_holder():
    state = RingState(
        delayed=frozenset({3}),
        neutral=frozenset({2}),
        token_neutral=frozenset(),
        critical=frozenset({1}),
    )
    assert state.part_of(1) == "C"
    assert state.part_of(2) == "N"
    assert state.part_of(3) == "D"
    assert state.part_of(99) == "O"
    assert state.token_holder() == 1


def test_cln_picks_the_closest_delayed_left_neighbour():
    state = RingState(
        delayed=frozenset({1, 4}),
        neutral=frozenset({2}),
        token_neutral=frozenset(),
        critical=frozenset({3}),
    )
    assert cln(state, 3, 4) == 1  # going left: 2 (not delayed), 1 (delayed)
    assert cln(state, 1, 4) == 4
    no_delay = initial_state(4)
    assert cln(no_delay, 1, 4) is None


def test_transition_rules_from_the_initial_state():
    start = initial_state(2)
    successors = ring_successors(start, 2)
    # Rule 1 (process 2 delays) and rule 3 (process 1 enters critical).
    assert len(successors) == 2
    parts = {(frozenset(s.delayed), frozenset(s.critical)) for s in successors}
    assert (frozenset({2}), frozenset()) in parts
    assert (frozenset(), frozenset({1})) in parts


def test_transfer_rule_moves_receiver_into_critical():
    state = RingState(
        delayed=frozenset({2}),
        neutral=frozenset(),
        token_neutral=frozenset(),
        critical=frozenset({1}),
    )
    (successor,) = ring_successors(state, 2)
    assert successor.critical == frozenset({2})
    assert successor.neutral == frozenset({1})
    assert successor.delayed == frozenset()


def test_critical_process_keeps_token_only_when_nobody_is_delayed():
    no_delay = RingState(
        delayed=frozenset(),
        neutral=frozenset({2}),
        token_neutral=frozenset(),
        critical=frozenset({1}),
    )
    successors = ring_successors(no_delay, 2)
    assert any(s.token_neutral == frozenset({1}) for s in successors)
    with_delay = RingState(
        delayed=frozenset({2}),
        neutral=frozenset(),
        token_neutral=frozenset(),
        critical=frozenset({1}),
    )
    assert all(s.token_neutral == frozenset() for s in ring_successors(with_delay, 2))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("size", [3, 5, 8, 1000])
def test_sample_successor_walks_exactly_like_choosing_from_ring_successors(size, seed):
    reference_rng, sampling_rng = random.Random(seed), random.Random(seed)
    reference = sampled = initial_state(size)
    for _ in range(30 if size == 1000 else 80):
        successors = ring_successors(reference, size)
        reference = reference_rng.choice(successors) if successors else None
        sampled = sample_successor(sampled, size, sampling_rng)
        assert sampled == reference
        if reference is None:
            break
    assert sampling_rng.random() == reference_rng.random()  # same draws consumed


def test_state_label_follows_the_paper():
    state = RingState(
        delayed=frozenset({2}),
        neutral=frozenset({3}),
        token_neutral=frozenset({1}),
        critical=frozenset(),
    )
    label = state_label(state)
    assert IndexedProp("d", 2) in label
    assert IndexedProp("n", 3) in label
    assert IndexedProp("n", 1) in label and IndexedProp("t", 1) in label
    assert IndexedProp("c", 1) not in label


# ---------------------------------------------------------------------------
# Building M_r
# ---------------------------------------------------------------------------


def test_m2_matches_fig51(ring2):
    assert ring2.num_states == 8
    assert ring2.num_transitions == 14
    assert ring2.is_total()
    assert ring2.index_values == frozenset({1, 2})


def test_known_state_counts_grow_exponentially(ring2, ring3, ring4):
    assert ring2.num_states == 8
    assert ring3.num_states == 24
    assert ring4.num_states == 64
    assert build_token_ring(5).num_states == 160


def test_single_process_ring_has_two_states():
    ring1 = build_token_ring(1)
    assert ring1.num_states == 2
    assert ring1.is_total()


def test_max_states_guard():
    with pytest.raises(StructureError):
        build_token_ring(5, max_states=10)


def test_partition_invariant(ring2, ring3, ring4):
    for structure in (ring2, ring3, ring4):
        assert partition_invariant_holds(structure)


def test_partition_invariant_requires_ring_states(toggle_structure):
    from repro.kripke.indexed import IndexedKripkeStructure

    bogus = IndexedKripkeStructure(
        ["s"], [("s", "s")], {"s": {IndexedProp("d", 1)}}, "s", index_values=[1]
    )
    with pytest.raises(StructureError):
        partition_invariant_holds(bogus)


# ---------------------------------------------------------------------------
# Ranks and idle transitions
# ---------------------------------------------------------------------------


def test_rank_neutral_is_zero():
    state = initial_state(4)
    assert rank(state, 2, 4) == 0


def test_rank_token_holder_counts_neutrals():
    state = initial_state(4)  # 1 holds the token, 2..4 neutral
    assert rank(state, 1, 4) == 3


def test_rank_critical_depends_on_delayed():
    nobody_delayed = RingState(
        delayed=frozenset(), neutral=frozenset({2, 3}), token_neutral=frozenset(), critical=frozenset({1})
    )
    assert rank(nobody_delayed, 1, 3) == 0
    somebody_delayed = RingState(
        delayed=frozenset({2}), neutral=frozenset({3}), token_neutral=frozenset(), critical=frozenset({1})
    )
    assert rank(somebody_delayed, 1, 3) == 1


def test_rank_delayed_uses_the_appendix_formula():
    # 4-ring: token at 3 (critical), 1 delayed, 2 and 4 neutral.
    state = RingState(
        delayed=frozenset({1}),
        neutral=frozenset({2, 4}),
        token_neutral=frozenset(),
        critical=frozenset({3}),
    )
    # |N| + |T| + 2((j - i) mod r - 1) = 2 + 0 + 2(2 - 1) = 4
    assert rank(state, 1, 4) == 4


def test_rank_rejects_states_without_holder():
    state = RingState(
        delayed=frozenset({1, 2}),
        neutral=frozenset(),
        token_neutral=frozenset(),
        critical=frozenset(),
    )
    with pytest.raises(StructureError):
        rank(state, 1, 2)


def test_rank_bounds_consecutive_idle_transitions(ring3):
    """The rank is an upper bound on runs of i-idle transitions (non-neutral states)."""
    for state in ring3.states:
        for index in (1, 2, 3):
            if state.part_of(index) == "N":
                continue
            bound = rank(state, index, 3)
            # Depth-first search for the longest run of idle transitions.
            longest = _longest_idle_run(ring3, state, index)
            assert longest <= bound, (state, index, longest, bound)


def _longest_idle_run(structure, state, index, depth=0, limit=30):
    if depth >= limit:
        return depth
    best = 0
    for successor in structure.successors(state):
        if is_idle_transition(state, successor, index):
            best = max(best, 1 + _longest_idle_run(structure, successor, index, depth + 1, limit))
    return best


def test_is_idle_transition_flags_the_critical_case():
    source = RingState(
        delayed=frozenset(), neutral=frozenset({2, 3}), token_neutral=frozenset(), critical=frozenset({1})
    )
    delaying = RingState(
        delayed=frozenset({2}), neutral=frozenset({3}), token_neutral=frozenset(), critical=frozenset({1})
    )
    # Process 1 stays critical, but D goes from empty to non-empty: not 1-idle.
    assert not is_idle_transition(source, delaying, 1)
    # It *is* idle for process 3, which stays neutral.
    assert is_idle_transition(source, delaying, 3)


# ---------------------------------------------------------------------------
# The Section 5 correspondence artefacts
# ---------------------------------------------------------------------------


def test_section5_pair_condition():
    small = RingState(
        delayed=frozenset(), neutral=frozenset({2}), token_neutral=frozenset(), critical=frozenset({1})
    )
    large_empty = RingState(
        delayed=frozenset(), neutral=frozenset({2, 3}), token_neutral=frozenset(), critical=frozenset({1})
    )
    large_busy = RingState(
        delayed=frozenset({3}), neutral=frozenset({2}), token_neutral=frozenset(), critical=frozenset({1})
    )
    assert section5_pair_corresponds(small, 1, large_empty, 1)
    assert not section5_pair_corresponds(small, 1, large_busy, 1)
    assert not section5_pair_corresponds(small, 2, large_empty, 1)


def test_section5_degree_is_rank_sum():
    small = initial_state(2)
    large = initial_state(4)
    assert section5_degree(small, 1, large, 1, 2, 4) == rank(small, 1, 2) + rank(large, 1, 4)


def test_section5_correspondence_covers_all_states(ring2, ring3):
    relation = section5_correspondence(ring2, ring3, 1, 1)
    assert relation.is_total_for(ring2.states, ring3.states)
    assert relation.corresponds(ring2.initial_state, ring3.initial_state)


def test_index_relation_builders():
    assert len(section5_index_relation(4).pairs) == 4
    with pytest.raises(StructureError):
        section5_index_relation(1)
    with pytest.raises(StructureError):
        corrected_index_relation(1, 4)


def test_recommended_base_size_is_three():
    assert RECOMMENDED_BASE_SIZE == 3


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def test_properties_and_invariants_are_restricted_ictl():
    from repro.logic.syntax import is_restricted_ictl

    for formula in list(ring_properties().values()) + list(ring_invariants().values()):
        assert is_restricted_ictl(formula)
    assert is_restricted_ictl(distinguishing_formula())


def test_properties_hold_on_small_rings(ring2, ring3):
    from repro.mc.indexed import ICTLStarModelChecker

    for structure in (ring2, ring3):
        checker = ICTLStarModelChecker(structure)
        assert checker.check(property_critical_implies_token())
        assert checker.check(property_eventual_entry())
        assert checker.check(invariant_one_token())
        assert checker.check(invariant_request_persistence())


def test_distinguishing_formula_separates_m2_from_larger_rings(ring2, ring3, ring4):
    from repro.mc.indexed import ICTLStarModelChecker

    assert ICTLStarModelChecker(ring2).check(distinguishing_formula())
    assert not ICTLStarModelChecker(ring3).check(distinguishing_formula())
    assert not ICTLStarModelChecker(ring4).check(distinguishing_formula())
