"""Unit tests for process templates, compositions and free products."""

import pytest

from repro.errors import CompositionError
from repro.kripke.structure import IndexedProp
from repro.network.composition import GlobalRule, SharedVariableComposition
from repro.network.free_product import free_product
from repro.network.process import LocalTransition, ProcessTemplate


def simple_template():
    return ProcessTemplate(
        name="worker",
        states=["idle", "busy"],
        initial_state="idle",
        labels={"idle": {"i"}, "busy": {"b"}},
        transitions=[
            LocalTransition("idle", "busy", action="start"),
            LocalTransition("busy", "idle", action="stop"),
        ],
    )


# ---------------------------------------------------------------------------
# ProcessTemplate
# ---------------------------------------------------------------------------


def test_template_accessors():
    template = simple_template()
    assert template.name == "worker"
    assert template.initial_state == "idle"
    assert template.label("busy") == frozenset({"b"})
    assert len(template.transitions) == 2
    assert [t.target for t in template.transitions_from("idle")] == ["busy"]


def test_template_validation():
    with pytest.raises(CompositionError):
        ProcessTemplate("x", [], "a", {}, [])
    with pytest.raises(CompositionError):
        ProcessTemplate("x", ["a"], "b", {}, [])
    with pytest.raises(CompositionError):
        ProcessTemplate("x", ["a"], "a", {"b": {"p"}}, [])
    with pytest.raises(CompositionError):
        ProcessTemplate("x", ["a"], "a", {}, [LocalTransition("a", "b")])


def test_template_to_kripke_adds_self_loops_for_totality():
    template = ProcessTemplate(
        name="oneway",
        states=["a", "b"],
        initial_state="a",
        labels={"a": {"p"}},
        transitions=[LocalTransition("a", "b")],
    )
    structure = template.to_kripke()
    assert structure.is_total()
    assert structure.successors("b") == frozenset({"b"})
    loose = template.to_kripke(require_total=False)
    assert not loose.is_total()


# ---------------------------------------------------------------------------
# SharedVariableComposition
# ---------------------------------------------------------------------------


def test_interleaving_without_shared_state():
    composition = SharedVariableComposition(simple_template(), size=2)
    structure = composition.build()
    assert structure.num_states == 4
    assert structure.is_total()
    assert structure.index_values == frozenset({1, 2})
    initial_label = structure.label(structure.initial_state)
    assert IndexedProp("i", 1) in initial_label and IndexedProp("i", 2) in initial_label


def test_guarded_transitions_respect_the_shared_variable():
    def only_when_token(shared, index, _locals):
        return shared == index

    def pass_token(shared, index, _locals):
        return index % 2 + 1

    template = ProcessTemplate(
        name="taker",
        states=["idle", "busy"],
        initial_state="idle",
        labels={"busy": {"b"}},
        transitions=[
            LocalTransition("idle", "busy", guard=only_when_token),
            LocalTransition("busy", "idle", update=pass_token),
        ],
    )
    composition = SharedVariableComposition(template, size=2, shared_initial=1)
    structure = composition.build()
    # Only the token holder can become busy, so no state has both busy.
    for state in structure.states:
        label = structure.label(state)
        assert not (IndexedProp("b", 1) in label and IndexedProp("b", 2) in label)


def test_shared_labeler_adds_labels():
    composition = SharedVariableComposition(
        simple_template(),
        size=2,
        shared_initial=1,
        shared_labeler=lambda shared: {IndexedProp("t", shared)},
    )
    structure = composition.build()
    assert all(IndexedProp("t", 1) in structure.label(state) for state in structure.states)


def test_global_rules_move_several_processes_at_once():
    def all_busy(_shared, locals_tuple):
        return all(local == "busy" for local in locals_tuple)

    def reset(shared, locals_tuple):
        return shared, tuple("idle" for _ in locals_tuple)

    template = ProcessTemplate(
        name="oneway",
        states=["idle", "busy"],
        initial_state="idle",
        labels={"busy": {"b"}},
        transitions=[LocalTransition("idle", "busy")],
    )
    composition = SharedVariableComposition(
        template, size=3, global_rules=[GlobalRule("reset", all_busy, reset)]
    )
    structure = composition.build()
    assert structure.is_total()
    all_busy_state = (None, ("busy", "busy", "busy"))
    assert structure.successors(all_busy_state) == frozenset({(None, ("idle", "idle", "idle"))})


def test_global_rule_must_preserve_process_count():
    rule = GlobalRule("bad", lambda shared, locals_tuple: True, lambda shared, locals_tuple: (shared, ()))
    composition = SharedVariableComposition(simple_template(), size=2, global_rules=[rule])
    with pytest.raises(CompositionError):
        composition.build()


def test_max_states_bound_is_enforced():
    composition = SharedVariableComposition(simple_template(), size=4)
    with pytest.raises(CompositionError):
        composition.build(max_states=3)


def test_composition_argument_validation():
    with pytest.raises(CompositionError):
        SharedVariableComposition(simple_template())
    with pytest.raises(CompositionError):
        SharedVariableComposition(simple_template(), size=0)
    with pytest.raises(CompositionError):
        SharedVariableComposition(simple_template(), index_values=[1, 1])


def test_on_the_fly_successors_match_built_structure():
    composition = SharedVariableComposition(simple_template(), size=2)
    structure = composition.build()
    for state in structure.states:
        assert frozenset(composition.successors(state)) == structure.successors(state)
        assert composition.label(state) == set(structure.label(state))


# ---------------------------------------------------------------------------
# Free product and family
# ---------------------------------------------------------------------------


def test_free_product_ignores_guards():
    def never(_shared, _index, _locals):
        return False

    template = ProcessTemplate(
        name="guarded",
        states=["a", "b"],
        initial_state="a",
        labels={"a": {"A"}, "b": {"B"}},
        transitions=[LocalTransition("a", "b", guard=never)],
    )
    product = free_product(template, 2)
    # The guard is ignored, so all four combinations are reachable.
    assert product.num_states == 4


def test_free_product_size_and_labels():
    product = free_product(simple_template(), 3)
    assert product.num_states == 8
    assert product.index_values == frozenset({1, 2, 3})
