"""Unit tests for the symbolic Kripke encodings.

Covers the explicit binary encoding (`from_explicit` / `symbolic_structure`),
the process-family bit-block allocator, and the direct symbolic token ring,
which must represent exactly the structure `build_token_ring` builds
explicitly — same reachable states, transitions, labels, and totality.
Reachability by iterative squaring must produce the same canonical edge as
frontier search in the same manager.
"""

import pytest

import repro.kripke.symbolic as symbolic_module
from repro.bdd import BDDManager
from repro.bdd.sanitize import assert_no_leaks
from repro.errors import BDDError, StructureError
from repro.kripke.structure import IndexedProp, KripkeStructure
from repro.kripke.symbolic import (
    ProcessFamilyEncoding,
    SymbolicKripkeStructure,
    symbolic_structure,
)
from repro.logic.ast import Atom, ExactlyOne, IndexedAtom, Next, TrueLiteral
from repro.obs.trace import recording
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
    """Each state's pre-image and image are the OR of its neighbours' cubes.

    The buggy ring-5 (992 states) is the smallest family structure whose
    explicit encoding is large; its relation is built from every state's
    successor cubes in one pass, so every state is compared edge to edge.
    """
    for structure in (branching_structure, token_ring.build_token_ring(5, buggy=True)):
        encoded = symbolic_structure(structure)
        manager = encoded.manager
        cubes = {
            state: manager.cube(encoded.encode_state(state)) for state in structure.states
        }

        def union(states):
            edge = 0
            for state in states:
                edge = manager.apply_or(edge, cubes[state])
            return edge

        for state, cube in cubes.items():
            assert encoded.preimage(cube) == union(structure.predecessors(state))
            image = manager.apply_and(encoded.image(cube), encoded.domain)
            assert image == union(structure.successors(state))


def test_shared_manager_keeps_order_preserving_renames():
    """Two encodings share one manager and both keep their current→next renames."""
    from repro.bdd import BDDManager

    manager = BDDManager()
    wide = SymbolicKripkeStructure(
        manager,
        3,
        manager.cube({bit: False for bit in range(6)}),
        manager.cube({0: False, 2: False, 4: False}),
        manager.cube({0: False, 2: False, 4: False}),
        {},
    )
    narrow = SymbolicKripkeStructure(
        manager,
        1,
        manager.cube({0: False, 1: False}),
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
        manager.cube({0: False, 1: False}),
        manager.cube({0: False}),
        manager.cube({0: False}),
        {},
    )
    with pytest.raises(BDDError):
        structure.states_of(structure.domain)
    with pytest.raises(BDDError):
        structure.encode_state("x")


# ---------------------------------------------------------------------------
# Reachability by iterative squaring
# ---------------------------------------------------------------------------


def _frontier_reachable(structure):
    """Plain frontier search from the initial state, in the structure's own manager."""
    current = structure.function(structure.initial)
    frontier = current
    while not frontier.is_false:
        frontier = structure.image_fn(frontier) & ~current
        current = current | frontier
    return current


def _reachable_span(build):
    with recording() as tracer:
        structure = build()
    (span,) = tracer.find("bdd.reachable")
    return structure, span.attrs


@pytest.mark.parametrize("buggy", [False, True], ids=["correct", "buggy"])
@pytest.mark.parametrize("size", range(3, 15))
def test_squared_counter_domain_is_the_frontier_edge(size, buggy):
    structure, attrs = _reachable_span(lambda: counter.symbolic_counter(size, buggy=buggy))
    # The path of 2^n − 2 steps outlasts the switch point from n = 5 on.
    assert attrs["method"] == ("squaring" if size >= 5 else "frontier")
    assert structure.domain == _frontier_reachable(structure).node


def test_reachable_on_a_free_counter_squares_to_the_frontier_edge():
    structure = counter.symbolic_counter(10, domain="free")
    with recording() as tracer:
        reached = structure.reachable()
    (span,) = tracer.find("bdd.reachable")
    assert span.attrs["method"] == "squaring"
    assert span.attrs["squaring_steps"] > 0
    assert reached == _frontier_reachable(structure).node
    assert structure.count(reached) == 2 ** 10 - 1


@pytest.mark.parametrize("buggy", [False, True], ids=["correct", "buggy"])
@pytest.mark.parametrize(
    "build", [token_ring.symbolic_token_ring, mutex.symbolic_mutex], ids=["ring-4", "mutex-4"]
)
def test_squaring_helper_matches_the_frontier_domain(build, buggy):
    """Ring and mutex never switch, so call the helper directly."""
    structure = build(4, buggy=buggy)
    reached, steps = structure._squaring_reachable(structure.function(structure.initial))
    assert reached is not None and steps > 0
    assert reached.node == structure.domain


@pytest.mark.parametrize(
    "build,size",
    [
        (token_ring.symbolic_token_ring, 6),
        (token_ring.symbolic_token_ring, 10),
        (mutex.symbolic_mutex, 5),
        (mutex.symbolic_mutex, 10),
    ],
)
@pytest.mark.parametrize("buggy", [False, True], ids=["correct", "buggy"])
def test_ring_and_mutex_builds_stay_on_frontier_search(build, size, buggy):
    _, attrs = _reachable_span(lambda: build(size, buggy=buggy))
    assert attrs["method"] == "frontier"
    assert attrs["squaring_steps"] == 0


def test_squaring_survives_gc_at_every_step_and_leaks_nothing(monkeypatch):
    structure = counter.symbolic_counter(8, domain="free")
    manager = structure.manager
    expected = _frontier_reachable(structure)
    monkeypatch.setattr(symbolic_module, "_heartbeat", lambda *a, **k: manager.collect())
    gc_runs = manager.stats().gc_runs
    with assert_no_leaks(manager):
        reached, steps = structure._squaring_reachable(structure.function(structure.initial))
        assert reached == expected
        del reached
    assert manager.stats().gc_runs - gc_runs == steps


def test_squaring_past_the_node_cap_falls_back_to_frontier_search(monkeypatch):
    monkeypatch.setattr(symbolic_module, "_SQUARING_NODE_CAP", 1)
    structure, attrs = _reachable_span(lambda: counter.symbolic_counter(7))
    assert attrs["method"] == "frontier"
    assert structure.domain == _frontier_reachable(structure).node
    assert structure.num_states == 2 ** 7 - 1
