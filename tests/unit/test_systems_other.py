"""Unit tests for the figure examples and the round-robin, barrier and counter families."""

import pytest

from repro.errors import CompositionError, StructureError
from repro.kripke.structure import IndexedProp
from repro.mc.ctlstar import CTLStarModelChecker
from repro.mc.indexed import ICTLStarModelChecker
from repro.systems import barrier, counter, figures, mutex, round_robin, token_ring


# ---------------------------------------------------------------------------
# Size checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "builder,error",
    [
        (token_ring.build_token_ring, StructureError),
        (token_ring.symbolic_token_ring, StructureError),
        (mutex.build_mutex, StructureError),
        (mutex.symbolic_mutex, StructureError),
        (counter.build_counter, StructureError),
        (counter.symbolic_counter, StructureError),
        (barrier.barrier_composition, StructureError),
        (barrier.build_barrier, StructureError),
        (round_robin.round_robin_composition, StructureError),
        (round_robin.build_round_robin, StructureError),
        (figures.circulating_token_ring, StructureError),
        (figures.fig41_network, CompositionError),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_every_family_builder_rejects_size_zero(builder, error):
    with pytest.raises(error):
        builder(0)


# ---------------------------------------------------------------------------
# Fig. 3.1
# ---------------------------------------------------------------------------


def test_fig31_structures_have_the_described_shape(fig31_pair):
    left, right = fig31_pair
    assert left.num_states == 2
    assert right.num_states == 4
    assert left.label("s1") == frozenset({"p"})
    assert right.label("s1'") == frozenset({"p"})
    assert right.label("s2'") == frozenset({"q"})
    assert left.is_total() and right.is_total()


def test_fig31_structures_satisfy_the_same_next_free_formulas(fig31_pair):
    from repro.logic.parser import parse

    left, right = fig31_pair
    for text in ["AG(p | q)", "AG AF q", "AG(p -> A(p U q))", "E G F p"]:
        formula = parse(text)
        assert CTLStarModelChecker(left).check(formula) == CTLStarModelChecker(right).check(formula)


# ---------------------------------------------------------------------------
# Fig. 4.1
# ---------------------------------------------------------------------------


def test_fig41_network_size():
    assert figures.fig41_network(1).num_states == 2
    assert figures.fig41_network(3).num_states == 8


def test_fig41_counting_formula_counts_processes():
    for size in (1, 2, 3):
        checker = ICTLStarModelChecker(figures.fig41_network(size), enforce_restrictions=False)
        for depth in (1, 2, 3, 4):
            expected = size >= depth
            assert checker.check(figures.fig41_counting_formula(depth)) == expected


def test_fig41_counting_formula_rejects_bad_depth():
    with pytest.raises(ValueError):
        figures.fig41_counting_formula(0)


def test_fig41_once_b_always_b():
    from repro.logic.parser import parse

    network = figures.fig41_network(2)
    checker = ICTLStarModelChecker(network, enforce_restrictions=False)
    assert checker.check(parse("AG(B[1] -> AG B[1])"))
    assert checker.check(parse("AG(B[2] -> !EF A[2])"))


# ---------------------------------------------------------------------------
# The circulating ring and the next-time counting example
# ---------------------------------------------------------------------------


def test_circulating_ring_is_a_cycle():
    ring = figures.circulating_token_ring(4)
    assert ring.num_states == 4
    assert all(len(ring.successors(state)) == 1 for state in ring.states)
    assert IndexedProp("t", 1) in ring.label(1)


def test_circulating_ring_validates_size():
    with pytest.raises(StructureError):
        figures.circulating_token_ring(0)


def test_nexttime_counting_formula_counts_the_ring():
    formula = figures.nexttime_counting_formula(3)
    results = {}
    for size in (1, 2, 3, 4, 5, 6):
        ring = figures.circulating_token_ring(size)
        checker = ICTLStarModelChecker(ring, enforce_restrictions=False)
        results[size] = checker.check(formula)
    assert results == {1: True, 2: False, 3: True, 4: False, 5: False, 6: False}


def test_nexttime_counting_formula_uses_next():
    from repro.logic.syntax import is_next_free, is_restricted_ictl

    formula = figures.nexttime_counting_formula(3)
    assert not is_next_free(formula)
    assert not is_restricted_ictl(formula)


# ---------------------------------------------------------------------------
# Round robin
# ---------------------------------------------------------------------------


def test_round_robin_state_count(round_robin2, round_robin4):
    assert round_robin2.num_states == 4
    assert round_robin4.num_states == 8  # 2·n deterministic cycle


def test_round_robin_properties_hold_at_every_size(round_robin2, round_robin4):
    for structure in (round_robin2, round_robin4):
        checker = ICTLStarModelChecker(structure)
        for name, formula in round_robin.round_robin_properties().items():
            assert checker.check(formula), name


def test_round_robin_properties_are_restricted():
    from repro.logic.syntax import is_restricted_ictl

    assert all(is_restricted_ictl(f) for f in round_robin.round_robin_properties().values())


def test_round_robin_rejects_bad_size():
    with pytest.raises(StructureError):
        round_robin.build_round_robin(0)


def test_round_robin_token_labels_follow_the_shared_variable(round_robin2):
    for state in round_robin2.states:
        shared, _locals = state
        assert IndexedProp("t", shared) in round_robin2.label(state)


# ---------------------------------------------------------------------------
# Barrier
# ---------------------------------------------------------------------------


def test_barrier_state_count(barrier2, barrier3):
    assert barrier2.num_states == 4
    assert barrier3.num_states == 8
    assert barrier2.is_total() and barrier3.is_total()


def test_barrier_release_is_a_broadcast(barrier2):
    all_waiting = (None, ("waiting", "waiting"))
    assert barrier2.successors(all_waiting) == frozenset({(None, ("working", "working"))})


def test_barrier_properties_hold_at_every_size(barrier2, barrier3):
    for structure in (barrier2, barrier3):
        checker = ICTLStarModelChecker(structure)
        for name, formula in barrier.barrier_properties().items():
            assert checker.check(formula), name


def test_barrier_properties_are_restricted():
    from repro.logic.syntax import is_restricted_ictl

    assert all(is_restricted_ictl(f) for f in barrier.barrier_properties().values())


def test_barrier_rejects_bad_size():
    with pytest.raises(StructureError):
        barrier.build_barrier(0)


# ---------------------------------------------------------------------------
# Counter
# ---------------------------------------------------------------------------


def test_counter_max_states_guard():
    # counter(4) walks 15 states; the guard stops the walk at 6.
    with pytest.raises(StructureError, match="counter exploration exceeded max_states=5"):
        counter.build_counter(4, max_states=5)
    assert counter.build_counter(4, max_states=15).num_states == 15
