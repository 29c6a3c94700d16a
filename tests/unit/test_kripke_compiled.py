"""Unit tests for the compiled bitset representation of Kripke structures."""

import pytest

from repro.errors import StructureError
from repro.kripke.compiled import (
    CompiledKripkeStructure,
    bits_of,
    compile_structure,
    popcount,
)
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp, KripkeStructure
from repro.logic.ast import Atom, ExactlyOne, FalseLiteral, IndexedAtom, Not, TrueLiteral


def test_popcount_and_bits_roundtrip():
    mask = 0b1011001
    assert popcount(mask) == 4
    assert list(bits_of(mask)) == [0, 3, 4, 6]
    assert popcount(0) == 0
    assert list(bits_of(0)) == []


def test_compile_assigns_dense_indices_and_preserves_relations(branching_structure):
    compiled = compile_structure(branching_structure)
    assert compiled.num_states == branching_structure.num_states
    assert compiled.num_transitions == branching_structure.num_transitions
    assert compiled.source is branching_structure
    assert compiled.state_of(compiled.initial_index) == branching_structure.initial_state
    for state in branching_structure.states:
        index = compiled.index_of(state)
        assert compiled.state_of(index) == state
        successors = {compiled.state_of(i) for i in compiled.successors_of(index)}
        assert successors == set(branching_structure.successors(state))
        predecessors = {compiled.state_of(i) for i in compiled.predecessors_of(index)}
        assert predecessors == set(branching_structure.predecessors(state))
        assert compiled.successor_mask(index) == compiled.mask_of(successors)
        assert compiled.predecessor_mask(index) == compiled.mask_of(predecessors)


def test_compile_keeps_every_state_of_ring4(ring4):
    assert CompiledKripkeStructure(ring4).num_states == ring4.num_states


def test_compile_is_deterministic(branching_structure):
    first = CompiledKripkeStructure(branching_structure)
    second = CompiledKripkeStructure(branching_structure)
    assert first.states == second.states
    assert [first.successor_mask(i) for i in range(first.num_states)] == [
        second.successor_mask(i) for i in range(second.num_states)
    ]


def test_compile_structure_is_idempotent_and_memoised(branching_structure):
    compiled = compile_structure(branching_structure)
    assert compile_structure(compiled) is compiled
    # Repeat compilations of the same live structure share one compiled form.
    assert compile_structure(branching_structure) is compiled


def test_mask_set_roundtrip(branching_structure):
    compiled = compile_structure(branching_structure)
    subset = frozenset(["a", "d"])
    mask = compiled.mask_of(subset)
    assert popcount(mask) == 2
    assert compiled.states_of(mask) == subset
    assert compiled.states_of(compiled.all_mask) == branching_structure.states
    with pytest.raises(StructureError):
        compiled.mask_of(["not-a-state"])
    with pytest.raises(StructureError):
        compiled.index_of("not-a-state")


def test_atom_masks_match_labels(branching_structure):
    compiled = compile_structure(branching_structure)
    assert compiled.atom_mask(TrueLiteral()) == compiled.all_mask
    assert compiled.atom_mask(FalseLiteral()) == 0
    p_states = compiled.states_of(compiled.atom_mask(Atom("p")))
    assert p_states == frozenset(["b", "d"])
    assert compiled.atom_mask(Atom("no_such_prop")) == 0
    with pytest.raises(StructureError):
        compiled.atom_mask(Not(Atom("p")))


def test_preimage_matches_naive_definition(branching_structure):
    compiled = compile_structure(branching_structure)
    target = compiled.mask_of(["b"])
    preimage = compiled.states_of(compiled.preimage(target))
    expected = frozenset(
        state
        for state in branching_structure.states
        if branching_structure.successors(state) & frozenset(["b"])
    )
    assert preimage == expected


def test_indexed_atom_and_exactly_one_masks():
    structure = IndexedKripkeStructure(
        states=["s0", "s1", "s2"],
        transitions=[("s0", "s1"), ("s1", "s2"), ("s2", "s0")],
        labeling={
            "s0": {IndexedProp("t", 1)},
            "s1": {IndexedProp("t", 1), IndexedProp("t", 2)},
            "s2": set(),
        },
        initial_state="s0",
        index_values=[1, 2],
    )
    compiled = compile_structure(structure)
    t1 = compiled.states_of(compiled.atom_mask(IndexedAtom("t", 1)))
    assert t1 == frozenset(["s0", "s1"])
    theta = compiled.states_of(compiled.atom_mask(ExactlyOne("t")))
    assert theta == frozenset(["s0"])
    # The Θ mask is memoised: the second lookup must return the same mask.
    assert compiled.atom_mask(ExactlyOne("t")) == compiled.atom_mask(ExactlyOne("t"))


def test_exactly_one_requires_indexed_structure(branching_structure):
    compiled = compile_structure(branching_structure)
    with pytest.raises(StructureError):
        compiled.atom_mask(ExactlyOne("t"))


def test_is_total_flags_deadlocks():
    structure = KripkeStructure(
        states=["alive", "dead"],
        transitions=[("alive", "dead")],
        labeling={},
        initial_state="alive",
    )
    compiled = compile_structure(structure)
    assert not compiled.is_total()
