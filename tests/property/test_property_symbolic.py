"""Differential property tests: the symbolic BDD engine against the others.

Random total Kripke structures and random CTL formulas must yield identical
satisfaction sets from :class:`SymbolicCTLModelChecker`, the compiled bitset
engine, and the naive frozenset oracle — ``crosscheck_ctl_engines`` now
replays every formula through all three.  Further properties pin down the
symbolic representation itself: complements are taken relative to the domain,
satisfy-counts match set cardinalities, and the encoding round-trips states.
"""

from hypothesis import given, settings

from strategies import ctl_formulas, kripke_structures

from repro.kripke.symbolic import symbolic_structure
from repro.logic.ast import (
    Atom,
    Exists,
    ForAll,
    Next,
    Not,
    Release,
    WeakUntil,
)
from repro.mc.bitset import BitsetCTLModelChecker
from repro.mc.ctl import CTLModelChecker
from repro.mc.oracle import crosscheck_ctl_engines
from repro.mc.symbolic import SymbolicCTLModelChecker


@given(structure=kripke_structures(), formula=ctl_formulas(max_depth=3))
@settings(max_examples=100, deadline=None)
def test_symbolic_and_naive_satisfaction_sets_agree(structure, formula):
    symbolic = SymbolicCTLModelChecker(structure)
    naive = CTLModelChecker(structure)
    assert symbolic.satisfaction_set(formula) == naive.satisfaction_set(formula)


@given(structure=kripke_structures(), formula=ctl_formulas(max_depth=2))
@settings(max_examples=50, deadline=None)
def test_crosscheck_replays_all_three_engines(structure, formula):
    # The helper raises on any pairwise disagreement, so surviving it is the
    # property; it must also still agree with a fresh bitset run.
    result = crosscheck_ctl_engines(structure, formula)
    assert result == BitsetCTLModelChecker(structure).satisfaction_set(formula)


@given(structure=kripke_structures(), formula=ctl_formulas(max_depth=2))
@settings(max_examples=50, deadline=None)
def test_symbolic_agrees_on_next_and_release_closures(structure, formula):
    """Exercise the operators the random CTL strategy never emits."""
    symbolic = SymbolicCTLModelChecker(structure)
    naive = CTLModelChecker(structure)
    probe = Atom("p")
    for wrapped in [
        Exists(Next(formula)),
        ForAll(Next(formula)),
        Exists(Release(probe, formula)),
        ForAll(Release(probe, formula)),
        Exists(WeakUntil(formula, probe)),
        ForAll(WeakUntil(formula, probe)),
    ]:
        assert symbolic.satisfaction_set(wrapped) == naive.satisfaction_set(wrapped)


@given(structure=kripke_structures(), formula=ctl_formulas(max_depth=2))
@settings(max_examples=50, deadline=None)
def test_symbolic_negation_is_domain_complement(structure, formula):
    checker = SymbolicCTLModelChecker(structure)
    manager = checker.symbolic.manager
    node = checker.satisfaction_node(formula)
    complement = checker.satisfaction_node(Not(formula))
    assert manager.apply_and(node, complement) == 0
    assert manager.apply_or(node, complement) == checker.symbolic.domain
    assert checker.satisfy_count(formula) + checker.satisfy_count(Not(formula)) == (
        structure.num_states
    )


@given(structure=kripke_structures(), formula=ctl_formulas(max_depth=2))
@settings(max_examples=50, deadline=None)
def test_satisfy_count_matches_set_cardinality(structure, formula):
    checker = SymbolicCTLModelChecker(structure)
    assert checker.satisfy_count(formula) == len(checker.satisfaction_set(formula))


@given(structure=kripke_structures())
@settings(max_examples=50, deadline=None)
def test_symbolic_encoding_matches_source(structure):
    encoded = symbolic_structure(structure)
    assert encoded.num_states == structure.num_states
    assert encoded.num_transitions == structure.num_transitions
    assert encoded.is_total()
    assert encoded.states_of(encoded.domain) == structure.states
    assert encoded.states_of(encoded.reachable()) <= structure.states
    for state in structure.states:
        # The pre-image of {state} is exactly its predecessor set.
        singleton = encoded.manager.cube(encoded.encode_state(state))
        assert encoded.states_of(encoded.preimage(singleton)) == structure.predecessors(
            state
        )
