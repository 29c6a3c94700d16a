"""Unit tests for the compiled bitset representation of Kripke structures."""

import pytest

from repro.errors import StructureError
from repro.kripke.builders import build_reachable
from repro.kripke.compiled import bits_of, compile_structure, popcount
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp, KripkeStructure
from repro.logic.ast import Atom, ExactlyOne, FalseLiteral, IndexedAtom, Not, TrueLiteral
from repro.mc.indexed import make_checker
from repro.systems import barrier, counter, mutex, round_robin, token_ring


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


def _rebuild(structure, states=None):
    """A structure built through the dict constructor from ``structure``'s decoded view."""
    states = list(structure.states) if states is None else states
    kwargs = {}
    if isinstance(structure, IndexedKripkeStructure):
        kwargs["index_values"] = structure.index_values
    return type(structure)(
        states,
        {state: structure.successors(state) for state in states},
        {state: structure.label(state) for state in states},
        structure.initial_state,
        **kwargs,
    )


def test_compile_keeps_every_state_of_ring4(ring4):
    assert compile_structure(_rebuild(ring4)).num_states == len(ring4.states)


def test_compile_is_deterministic(branching_structure):
    # Two builds from the same input given in different orders share one table.
    states = sorted(branching_structure.states)
    first = compile_structure(_rebuild(branching_structure, states))
    second = compile_structure(_rebuild(branching_structure, states[::-1]))
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


# -- explicit families are built straight into their table ---------------------

_BUILDERS = {
    "ring": token_ring.build_token_ring,
    "mutex": mutex.build_mutex,
    "counter": counter.build_counter,
}

_FAMILIES = (
    [("ring", size, buggy) for size in range(2, 7) for buggy in (False, True)]
    + [("mutex", size, buggy) for size in range(2, 7) for buggy in (False, True)]
    + [("counter", size, buggy) for size in range(3, 9) for buggy in (False, True)]
)

_VIEW_FIELDS = ("_states", "_successors", "_predecessors", "_labels")


def _atom(element):
    if isinstance(element, IndexedProp):
        return IndexedAtom(element.name, element.index)
    return Atom(element)


def _assert_table_is_the_compile_of_its_view(structure):
    table = compile_structure(structure)
    assert table.source is structure
    # Built straight into the table: no dict-of-sets view exists yet.
    assert not any(field in vars(structure) for field in _VIEW_FIELDS)
    # The reference: the view decoded from the table, compiled again
    # through the dict constructor.
    compiled = compile_structure(_rebuild(structure))
    assert compiled.states == table.states
    assert compiled.initial_index == table.initial_index
    assert compiled.all_mask == table.all_mask
    for i in range(compiled.num_states):
        assert compiled.successors_of(i) == table.successors_of(i)
        assert compiled.predecessors_of(i) == table.predecessors_of(i)
        assert compiled.successor_mask(i) == table.successor_mask(i)
        assert compiled.predecessor_mask(i) == table.predecessor_mask(i)
    elements = set(compiled.label_elements())
    assert elements == set(table.label_elements())
    for element in elements:
        assert compiled.atom_mask(_atom(element)) == table.atom_mask(_atom(element))
    for name in structure.indexed_prop_names:
        theta = ExactlyOne(name)
        assert compiled.atom_mask(theta) == table.atom_mask(theta)
    assert compiled.labels() == table.labels()


@pytest.mark.parametrize(("system", "size", "buggy"), _FAMILIES)
def test_family_table_equals_a_compile_of_its_decoded_view(system, size, buggy):
    _assert_table_is_the_compile_of_its_view(_BUILDERS[system](size, buggy=buggy))


@pytest.mark.parametrize("build", [barrier.build_barrier, round_robin.build_round_robin])
@pytest.mark.parametrize("size", [2, 3])
def test_composition_table_equals_a_compile_of_its_decoded_view(build, size):
    _assert_table_is_the_compile_of_its_view(build(size))


def test_decoded_view_matches_the_exploration():
    structure = token_ring.build_token_ring(3)
    initial = structure.initial_state
    assert structure.successors(initial) == frozenset(token_ring.ring_successors(initial, 3))
    assert structure.label(initial) == token_ring.state_label(initial)
    assert structure.num_states == len(structure.states)
    assert structure.num_transitions == sum(
        len(structure.successors(state)) for state in structure.states
    )
    for state in structure.states:
        for target in structure.successors(state):
            assert state in structure.predecessors(target)


def test_bitset_checks_never_decode_the_view():
    structure = token_ring.build_token_ring(4)
    properties, _ = token_ring.ring_family(4)
    checker = make_checker(structure, engine="bitset")
    assert all(checker.check(formula) for formula in properties.values())
    assert structure.is_total() and structure.num_transitions > structure.num_states
    assert not any(field in vars(structure) for field in _VIEW_FIELDS)


def _explore(label, **kwargs):
    return build_reachable(
        0,
        lambda state: [(state + 1) % 3],
        label,
        index_values=[1, 2],
        name="planted",
        overflow=lambda bound: StructureError("overflow at %d" % bound),
        **kwargs,
    )


def test_planted_out_of_range_index_still_raises():
    with pytest.raises(StructureError, match="not in the index set"):
        _explore(lambda state: {IndexedProp("p", 99 if state == 2 else 1)})


def test_planted_undeclared_proposition_name_still_raises():
    with pytest.raises(StructureError, match="not declared in IP"):
        _explore(lambda state: {IndexedProp("q", 1)}, indexed_prop_names={"p"})


def test_exploration_overflow_raises_the_callers_error():
    with pytest.raises(StructureError, match="overflow at 2"):
        _explore(lambda state: (), max_states=2)
    assert _explore(lambda state: (), max_states=3).num_states == 3
