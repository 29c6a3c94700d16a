"""Unit tests for the symbolic Kripke encodings.

Covers the explicit binary encoding (`from_explicit` / `symbolic_structure`),
the process-family bit-block allocator, and the direct symbolic token ring,
which must represent exactly the structure `build_token_ring` builds
explicitly — same reachable states, transitions, labels, and totality.
"""

import pytest

from repro.bdd import BDDManager
from repro.errors import BDDError, StructureError
from repro.kripke.structure import IndexedProp, KripkeStructure
from repro.kripke.symbolic import (
    ProcessFamilyEncoding,
    SymbolicKripkeStructure,
    symbolic_structure,
)
from repro.logic.ast import Atom, ExactlyOne, IndexedAtom, Next, TrueLiteral
from repro.systems import counter, mutex, token_ring


# ---------------------------------------------------------------------------
# Explicit encodings
# ---------------------------------------------------------------------------


def test_from_explicit_counts_and_totality(branching_structure):
    encoded = symbolic_structure(branching_structure)
    assert encoded.num_states == branching_structure.num_states
    assert encoded.num_transitions == branching_structure.num_transitions
    assert encoded.is_total()
    assert encoded.name == branching_structure.name
    assert encoded.states_of(encoded.domain) == branching_structure.states
    assert encoded.states_of(encoded.initial) == frozenset({"a"})


def test_symbolic_structure_is_memoised_per_object(branching_structure):
    assert symbolic_structure(branching_structure) is symbolic_structure(branching_structure)
    assert symbolic_structure(symbolic_structure(branching_structure)) is (
        symbolic_structure(branching_structure)
    )


def test_preimage_and_image_match_adjacency(branching_structure):
    encoded = symbolic_structure(branching_structure)
    for state in branching_structure.states:
        singleton = encoded.manager.cube(encoded.encode_state(state))
        assert encoded.states_of(encoded.preimage(singleton)) == (
            branching_structure.predecessors(state)
        )
        assert encoded.states_of(
            encoded.manager.apply_and(encoded.image(singleton), encoded.domain)
        ) == branching_structure.successors(state)


def test_constrained_preimage_equals_intersected_preimage(branching_structure):
    """``preimage(t, constraint=c)`` must equal ``c ∧ preimage(t)`` for any sets."""
    encoded = symbolic_structure(branching_structure)
    manager = encoded.manager
    states = sorted(branching_structure.states, key=repr)
    cubes = {state: manager.cube(encoded.encode_state(state)) for state in states}
    import itertools

    sets = [0, encoded.domain] + [
        manager.apply_or(cubes[a], cubes[b])
        for a, b in itertools.combinations(states, 2)
    ]
    for target in sets:
        unconstrained = encoded.preimage(target)
        for constraint in sets:
            expected = manager.apply_and(constraint, unconstrained)
            assert encoded.preimage(target, constraint=constraint) == expected


def test_shared_manager_preserves_existing_sifting_groups():
    """Two encodings share one manager and both keep their current→next renames."""
    from repro.bdd import BDDManager

    manager = BDDManager()
    wide = SymbolicKripkeStructure(
        manager,
        3,
        [manager.cube({bit: False for bit in range(6)})],
        manager.cube({0: False, 2: False, 4: False}),
        manager.cube({0: False, 2: False, 4: False}),
        {},
    )
    narrow = SymbolicKripkeStructure(
        manager,
        1,
        [manager.cube({0: False, 1: False})],
        manager.cube({0: False}),
        manager.cube({0: False}),
        {},
    )
    # A rename that is not order-preserving would raise BDDError inside
    # preimage.
    wide_pre = wide.preimage(wide.domain)
    narrow_pre = narrow.preimage(narrow.domain)
    assert manager.apply_and(wide_pre, manager.negate(wide.domain)) == 0
    assert manager.apply_and(narrow_pre, manager.negate(narrow.domain)) == 0


def test_reachable_respects_unreachable_states():
    structure = KripkeStructure(
        states=["a", "b", "island"],
        transitions=[("a", "b"), ("b", "a"), ("island", "island")],
        labeling={"a": {"p"}, "island": {"p"}},
        initial_state="a",
    )
    encoded = symbolic_structure(structure)
    assert encoded.states_of(encoded.reachable()) == frozenset({"a", "b"})
    # ...but the domain (and prop functions) still cover the whole state set,
    # matching the explicit checkers' satisfaction-set semantics.
    assert encoded.states_of(encoded.domain) == frozenset({"a", "b", "island"})
    assert encoded.states_of(encoded.atom_node(Atom("p"))) == frozenset({"a", "island"})


def test_atom_node_variants(branching_structure):
    encoded = symbolic_structure(branching_structure)
    assert encoded.atom_node(TrueLiteral()) == encoded.domain
    assert encoded.states_of(encoded.atom_node(Atom("missing"))) == frozenset()
    with pytest.raises(StructureError):
        encoded.atom_node(Next(Atom("p")))
    with pytest.raises(StructureError):
        encoded._exactly_one_node("p")  # not an indexed structure


def test_holds_at_and_complement(branching_structure):
    encoded = symbolic_structure(branching_structure)
    p = encoded.atom_node(Atom("p"))
    assert encoded.holds_at(p, "b")
    assert not encoded.holds_at(p, "a")
    complement = encoded.complement(p)
    assert encoded.states_of(complement) == branching_structure.states - frozenset({"b", "d"})


# ---------------------------------------------------------------------------
# Process-family encoding
# ---------------------------------------------------------------------------


def test_family_encoding_layout_and_roundtrip():
    manager = BDDManager()
    encoding = ProcessFamilyEncoding(manager, (1, 2, 3), ("N", "D", "T", "C"))
    assert encoding.bits_per_process == 2
    assert encoding.num_bits == 6
    assert encoding.current_vars == tuple(2 * k for k in range(6))
    assignment = {1: "T", 2: "N", 3: "D"}
    model = encoding.encode(assignment)
    assert encoding.decode(model) == assignment
    cube = encoding.state_cube(assignment)
    assert manager.evaluate(cube, model)
    assert manager.sat_count(cube, encoding.current_vars) == 1


def test_family_encoding_unchanged_and_frame():
    manager = BDDManager()
    encoding = ProcessFamilyEncoding(manager, (1, 2), ("A", "B"))
    same = encoding.unchanged(1)
    # Process 1 unchanged: current and next bits agree, process 2 free.
    current = dict(encoding.encode({1: "B", 2: "A"}))
    nxt_same = {level + 1: value for level, value in encoding.encode({1: "B", 2: "B"}).items()}
    nxt_diff = {level + 1: value for level, value in encoding.encode({1: "A", 2: "B"}).items()}
    assert manager.evaluate(same, {**current, **nxt_same})
    assert not manager.evaluate(same, {**current, **nxt_diff})
    assert encoding.frame([1, 2]) == 1  # nothing to constrain


def test_family_encoding_rejects_bad_input():
    manager = BDDManager()
    with pytest.raises(StructureError):
        ProcessFamilyEncoding(manager, (), ("A", "B"))
    with pytest.raises(StructureError):
        ProcessFamilyEncoding(manager, (1, 1), ("A", "B"))
    with pytest.raises(StructureError):
        ProcessFamilyEncoding(manager, (1,), ("A",))
    encoding = ProcessFamilyEncoding(manager, (1, 2), ("A", "B"))
    with pytest.raises(StructureError):
        encoding.current(3, "A")
    with pytest.raises(StructureError):
        encoding.current(1, "Z")
    with pytest.raises(StructureError):
        encoding.state_cube({1: "A"})


# ---------------------------------------------------------------------------
# The direct symbolic encodings (ring, mutex, counter)
# ---------------------------------------------------------------------------


#: Each direct encoding beside the explicit builder it must agree with.
_FAMILIES = {
    "ring": (token_ring.symbolic_token_ring, token_ring.build_token_ring),
    "mutex": (mutex.symbolic_mutex, mutex.build_mutex),
    "counter": (counter.symbolic_counter, counter.build_counter),
}

_BUILDS = [
    pytest.param(family, buggy, size, id="%s-%s-%d" % (family, variant, size))
    for family in _FAMILIES
    for buggy, variant in ((False, "correct"), (True, "buggy"))
    for size in (1, 2, 3, 4)
]


def _both_encodings(family, buggy, size):
    symbolic_builder, explicit_builder = _FAMILIES[family]
    return symbolic_builder(size, buggy=buggy), explicit_builder(size, buggy=buggy)


@pytest.mark.parametrize("family,buggy,size", _BUILDS)
def test_symbolic_family_equals_explicit_family(family, buggy, size):
    symbolic, explicit = _both_encodings(family, buggy, size)
    assert symbolic.num_states == explicit.num_states
    assert symbolic.num_transitions == explicit.num_transitions
    assert symbolic.is_total()
    assert symbolic.index_values == explicit.index_values
    assert symbolic.states_of(symbolic.domain) == explicit.states
    assert symbolic.states_of(symbolic.initial) == frozenset({explicit.initial_state})
    # Labels agree proposition by proposition, including indexed
    # propositions no reachable state carries.
    labels = set().union(*(explicit.label(state) for state in explicit.states))
    labels.update(
        IndexedProp(name, value)
        for name in explicit.indexed_prop_names
        for value in explicit.index_values
    )
    for label in labels:
        atom = (
            IndexedAtom(label.name, label.index)
            if isinstance(label, IndexedProp)
            else Atom(label)
        )
        expected = frozenset(
            state for state in explicit.states if label in explicit.label(state)
        )
        assert symbolic.states_of(symbolic.atom_node(atom)) == expected


@pytest.mark.parametrize("family,buggy,size", _BUILDS)
def test_symbolic_family_successors_match_explicit(family, buggy, size):
    symbolic, explicit = _both_encodings(family, buggy, size)
    for state in explicit.states:
        singleton = symbolic.manager.cube(symbolic.encode_state(state))
        image = symbolic.manager.apply_and(symbolic.image(singleton), symbolic.domain)
        assert symbolic.states_of(image) == explicit.successors(state)


def test_symbolic_ring_exactly_one_token():
    symbolic = token_ring.symbolic_token_ring(3)
    theta = symbolic.atom_node(ExactlyOne("t"))
    # Exactly one token everywhere: Θ t is the whole reachable set.
    assert theta == symbolic.domain


def test_symbolic_ring_state_counts_via_satisfy_count():
    # r * 2^r reachable states: holder anywhere in T or C, others in N or D.
    for size in (2, 3, 4, 5, 6, 7, 8):
        symbolic = token_ring.symbolic_token_ring(size)
        assert symbolic.num_states == size * 2 ** size


def test_symbolic_ring_rejects_empty_ring():
    with pytest.raises(StructureError):
        token_ring.symbolic_token_ring(0)


def test_states_of_requires_decoder():
    manager = BDDManager()
    structure = SymbolicKripkeStructure(
        manager,
        1,
        [manager.cube({0: False, 1: False})],
        manager.cube({0: False}),
        manager.cube({0: False}),
        {},
    )
    with pytest.raises(BDDError):
        structure.states_of(structure.domain)
    with pytest.raises(BDDError):
        structure.encode_state("x")
