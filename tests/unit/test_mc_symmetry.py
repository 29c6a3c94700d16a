"""Symmetry-reduced index quantifiers: the rotated answer is the instantiated one.

``SymbolicCTLModelChecker`` checks ``∧_i ψ(i)`` / ``∨_i ψ(i)`` on one process
and permutes the answer when the structure's process symmetry is verified.
The result must be the very BDD edge that instantiating the quantifier over
the whole index set gives, on the *same* structure, for every property the
CLI checks on the ring and mutex families (correct and seeded-bug, with and
without scheduler fairness).  Those properties hold on every reachable
state, so every instance of their bodies is the whole domain; probe
formulas whose instances differ from process to process (a missing or
misplaced rotation shows up there) ride along.  Quantifiers the argument
does not cover — a constant index in the body, fairness that is not
ρ-closed, a bogus candidate symmetry, a structure without one — must fall
back to instantiation, give the same edge, and say why in
``mc.symmetry.fallback``.
"""

import pytest

from repro.logic.ast import IndexedAtom
from repro.logic.builders import (
    AF,
    AG,
    EG,
    EU,
    EX,
    iatom,
    implies,
    index_exists,
    index_forall,
    land,
    lnot,
    lor,
)
from repro.logic.transform import instantiate_quantifiers
from repro.mc.fairness import FairnessConstraint
from repro.mc.symbolic import SymbolicCTLModelChecker
from repro.obs import metrics
from repro.obs.trace import recording
from repro.systems import counter, mutex, token_ring


def _fallbacks(reason):
    return metrics.counter("mc.symmetry.fallback", reason=reason).value


def _reduced():
    return metrics.counter("mc.symmetry.reduced").value


def _instantiated_edge(structure, formula, fairness=None):
    checker = SymbolicCTLModelChecker(structure, fairness=fairness)
    return checker.satisfaction_node(instantiate_quantifiers(formula, structure.index_values))


def _probes(idle, waiting, critical):
    """Quantified formulas whose per-process instances are different sets."""
    def p(name):
        return iatom(name, "i")

    return {
        "exists critical": index_exists("i", p(critical)),
        "forall idle or waiting": index_forall("i", lor(p(idle), p(waiting))),
        "forall EX waiting": index_forall("i", EX(p(waiting))),
        "exists E[idle U critical]": index_exists("i", EU(p(idle), p(critical))),
        "forall EG not critical": index_forall("i", EG(lnot(p(critical)))),
        "exists AF critical and idle": index_exists(
            "i", land(AF(p(critical)), p(idle))
        ),
    }


def _assert_same_edges(structure, family, constraint):
    reduced = SymbolicCTLModelChecker(structure, fairness=constraint)
    distinct = set()
    for name, formula in family.items():
        expected = _instantiated_edge(structure, formula, constraint)
        assert reduced.satisfaction_node(formula) == expected, name
        distinct.add(expected)
    return distinct


@pytest.mark.parametrize("fairness", [False, True], ids=["plain", "fair"])
@pytest.mark.parametrize("buggy", [False, True], ids=["correct", "buggy"])
@pytest.mark.parametrize("size", range(1, 7))
def test_ring_symmetric_path_matches_instantiation(size, buggy, fairness):
    structure = token_ring.symbolic_token_ring(size, buggy=buggy)
    family, constraint = token_ring.ring_family(size, fairness)
    probes = _probes("n", "d", "c")
    before = _reduced()
    _assert_same_edges(structure, family, constraint)
    assert len(_assert_same_edges(structure, probes, constraint)) > 2
    assert structure.verified_symmetry() is not None, structure.symmetry_reason
    # Four quantified properties and one quantified invariant, plus the
    # fair AF t_i family, plus the probes: each skips size - 1 instances.
    quantified = (6 if fairness else 5) + len(probes)
    assert _reduced() - before == quantified * (size - 1)


@pytest.mark.parametrize("fairness", [False, True], ids=["plain", "fair"])
@pytest.mark.parametrize("buggy", [False, True], ids=["correct", "buggy"])
@pytest.mark.parametrize("size", range(1, 6))
def test_mutex_symmetric_path_matches_instantiation(size, buggy, fairness):
    structure = mutex.symbolic_mutex(size, buggy=buggy)
    family, constraint = mutex.mutex_family(size, fairness)
    _assert_same_edges(structure, family, constraint)
    assert len(_assert_same_edges(structure, _probes("n", "r", "c"), constraint)) > 2
    # The quantified fair liveness property is what uses the symmetry.
    checker = SymbolicCTLModelChecker(structure, fairness=constraint)
    checker.satisfaction_node(mutex.mutex_liveness())
    assert structure.verified_symmetry() is not None, structure.symmetry_reason


def test_verification_is_one_span_and_runs_once():
    structure = token_ring.symbolic_token_ring(4)
    with recording() as tracer:
        SymbolicCTLModelChecker(structure).check_batch(token_ring.ring_properties())
    spans = tracer.find("bdd.symmetry")
    assert len(spans) == 1
    assert spans[0].attrs == {"n": 4, "verified": True, "reason": None}


def test_concrete_index_in_the_body_falls_back():
    structure = token_ring.symbolic_token_ring(4)
    formula = index_forall(
        "i", AG(implies(iatom("c", "i"), lnot(IndexedAtom("c", 1))))
    )
    before = _fallbacks("concrete_index")
    node = SymbolicCTLModelChecker(structure).satisfaction_node(formula)
    assert node == _instantiated_edge(structure, formula)
    assert _fallbacks("concrete_index") == before + 1


def test_fairness_on_one_process_only_falls_back():
    structure = token_ring.symbolic_token_ring(4)
    constraint = FairnessConstraint(conditions=(lor(iatom("d", 1), iatom("t", 1)),))
    formula = token_ring.property_eventual_entry()
    before = _fallbacks("fairness_not_closed")
    checker = SymbolicCTLModelChecker(structure, fairness=constraint)
    assert checker.satisfaction_node(formula) == _instantiated_edge(
        structure, formula, constraint
    )
    assert _fallbacks("fairness_not_closed") == before + 1
    # The structure's symmetry itself is sound; only this checker declines it.
    assert structure.verified_symmetry() is not None


@pytest.mark.parametrize(
    "sigma, reason",
    [
        ({1: 2, 2: 1, 3: 3, 4: 4}, "not_one_cycle"),  # a transposition
        ({1: 3, 3: 2, 2: 4, 4: 1}, "transition_not_invariant"),  # a 4-cycle, not a rotation
    ],
    ids=["transposition", "scrambled-cycle"],
)
def test_bogus_candidate_is_rejected_and_falls_back(sigma, reason, ring_with_candidate):
    structure = ring_with_candidate(token_ring.symbolic_token_ring(4), sigma)
    formula = token_ring.property_request_until_token()
    before = _fallbacks(reason)
    node = SymbolicCTLModelChecker(structure).satisfaction_node(formula)
    assert structure.verified_symmetry() is None
    assert structure.symmetry_reason == reason
    assert node == _instantiated_edge(structure, formula)
    assert _fallbacks(reason) == before + 1


def test_inverse_rotation_is_accepted(ring_with_candidate):
    structure = ring_with_candidate(
        token_ring.symbolic_token_ring(4), {1: 4, 2: 1, 3: 2, 4: 3}
    )
    assert structure.verified_symmetry() is not None, structure.symmetry_reason


@pytest.mark.parametrize(
    "structure",
    [
        pytest.param(lambda: counter.symbolic_counter(4), id="counter"),
        pytest.param(lambda: token_ring.build_token_ring(3), id="from_explicit"),
    ],
)
def test_structures_without_a_candidate_fall_back(structure):
    checker = SymbolicCTLModelChecker(structure())
    symbolic = checker.symbolic
    formula = index_forall("i", AG(AF(lor(iatom("z", "i"), iatom("t", "i")))))
    before = _fallbacks("no_candidate")
    node = checker.satisfaction_node(formula)
    assert symbolic.verified_symmetry() is None
    assert symbolic.symmetry_reason == "no_candidate"
    assert node == _instantiated_edge(symbolic, formula)
    assert _fallbacks("no_candidate") == before + 1
