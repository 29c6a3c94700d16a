"""Unit tests for the bitset CTL engine and the engine selection plumbing."""

import pytest

from repro.errors import FragmentError, ModelCheckingError, ValidationError
from repro.kripke.compiled import compile_structure
from repro.kripke.structure import KripkeStructure
from repro.logic import parse
from repro.logic.ast import Atom, IndexExists
from repro.logic.transform import instantiate_quantifiers
from repro.mc.bitset import (
    ENGINE_MODULES,
    ENGINE_NAMES,
    BitsetCTLModelChecker,
    make_ctl_checker,
)
from repro.mc.ctl import CTLModelChecker
from repro.mc.indexed import ICTLStarModelChecker, check_batch
from repro.mc.oracle import crosscheck_ctl_engines
from repro.systems import barrier, round_robin, token_ring

FORMULAS = [
    "p",
    "!p",
    "p & q",
    "p | q",
    "p -> q",
    "E X p",
    "A X p",
    "E F q",
    "A F q",
    "E G p",
    "A G (p | q | !p)",
    "E (p U q)",
    "A (p U q)",
    "A G (p -> A F q)",
    "E F (q & E X p)",
]


def _assert_engines_agree(structure, formula):
    naive = CTLModelChecker(structure).satisfaction_set(formula)
    fast = BitsetCTLModelChecker(structure).satisfaction_set(formula)
    assert fast == naive


@pytest.mark.parametrize("text", FORMULAS)
def test_bitset_matches_naive_on_branching(branching_structure, text):
    _assert_engines_agree(branching_structure, parse(text))


@pytest.mark.parametrize("text", FORMULAS)
def test_bitset_matches_naive_on_toggle(toggle_structure, text):
    _assert_engines_agree(toggle_structure, parse(text))


def test_release_and_weak_until_match_naive(branching_structure):
    for text in ["E (p R q)", "A (p R q)", "E (p W q)", "A (p W q)"]:
        _assert_engines_agree(branching_structure, parse(text))


def test_iff_matches_naive(branching_structure):
    _assert_engines_agree(branching_structure, parse("p <-> q"))


def test_checker_accepts_precompiled_structure(branching_structure):
    compiled = compile_structure(branching_structure)
    checker = BitsetCTLModelChecker(compiled)
    assert checker.compiled is compiled
    assert checker.structure is branching_structure
    assert checker.check(parse("E F q"))


def test_check_batch_shares_one_compilation(branching_structure):
    checker = BitsetCTLModelChecker(branching_structure)
    named = checker.check_batch({"ef_q": parse("E F q"), "ag_true": parse("A G true")})
    assert named == {"ef_q": True, "ag_true": True}
    formulas = [parse("E F q"), parse("E G p")]
    keyed = checker.check_batch(formulas)
    assert set(keyed) == set(formulas)


def test_label_batch_computes_each_shared_subformula_once(branching_structure):
    checker = BitsetCTLModelChecker(branching_structure)
    computed = []
    original = checker._compute

    def counting_compute(formula):
        computed.append(formula)
        return original(formula)

    checker._compute = counting_compute
    # Three formulas sharing the sub-formula (p | q) and the atoms.
    shared = parse("p | q")
    family = [
        parse("E F (p | q)"),
        parse("A G (p | q)"),
        parse("(p | q) & E X p"),
    ]
    results = checker.check_batch(family)
    fresh = BitsetCTLModelChecker(branching_structure)
    assert results == {formula: fresh.check(formula) for formula in family}
    assert computed.count(shared) == 1
    assert computed.count(parse("p")) == 1
    assert computed.count(parse("q")) == 1
    # Every distinct sub-formula landed in the shared bitmask table.
    assert shared in checker._cache
    for formula in family:
        assert formula in checker._cache


def test_label_batch_matches_individual_checks(ring3):
    from repro.logic.transform import instantiate_quantifiers
    from repro.systems import token_ring

    family = [
        instantiate_quantifiers(formula, ring3.index_values)
        for formula in token_ring.ring_properties().values()
    ]
    batch = BitsetCTLModelChecker(ring3).check_batch(family)
    fresh = BitsetCTLModelChecker(ring3)
    for formula in family:
        assert batch[formula] == fresh.check(formula)


def test_bitset_rejects_index_quantifiers(branching_structure):
    checker = BitsetCTLModelChecker(branching_structure)
    with pytest.raises(FragmentError):
        checker.satisfaction_set(IndexExists("i", Atom("p")))


def test_bitset_validates_totality():
    broken = KripkeStructure(
        states=["alive", "dead"],
        transitions=[("alive", "dead")],
        labeling={},
        initial_state="alive",
    )
    with pytest.raises(ValidationError):
        BitsetCTLModelChecker(broken)
    # Validation can be skipped, matching the naive checker's contract.
    BitsetCTLModelChecker(broken, validate_structure=False)


def test_make_ctl_checker_engine_selection(branching_structure):
    assert isinstance(make_ctl_checker(branching_structure, "bitset"), BitsetCTLModelChecker)
    assert isinstance(make_ctl_checker(branching_structure, "naive"), CTLModelChecker)
    compiled = compile_structure(branching_structure)
    naive = make_ctl_checker(compiled, "naive")
    assert naive.structure is branching_structure
    with pytest.raises(ModelCheckingError):
        make_ctl_checker(branching_structure, "frozenset")


def test_engine_modules_name_where_each_checker_lives(ring3):
    assert sorted(ENGINE_MODULES) == sorted(ENGINE_NAMES)
    for engine in ENGINE_NAMES:
        checker = make_ctl_checker(ring3, engine)
        assert type(checker).__module__ == ENGINE_MODULES[engine], engine
        getattr(checker, "close", lambda: None)()


def test_ictlstar_engine_parameter(ring3):
    fast = ICTLStarModelChecker(ring3, engine="bitset")
    slow = ICTLStarModelChecker(ring3, engine="naive")
    assert fast.engine == "bitset" and slow.engine == "naive"
    for formula in token_ring.ring_properties().values():
        assert fast.satisfaction_set(formula) == slow.satisfaction_set(formula)
    with pytest.raises(ModelCheckingError):
        ICTLStarModelChecker(ring3, engine="frozenset")


def test_ictlstar_check_batch(ring3):
    properties = token_ring.ring_properties()
    batch = ICTLStarModelChecker(ring3).check_batch(properties)
    assert batch == {name: True for name in properties}
    helper = check_batch(ring3, properties)
    assert helper == batch


def test_crosscheck_ctl_engines_returns_common_set(branching_structure):
    formula = parse("A G (p -> A F q)")
    result = crosscheck_ctl_engines(branching_structure, formula)
    assert result == CTLModelChecker(branching_structure).satisfaction_set(formula)


def _token_ring_formulas():
    merged = dict(token_ring.ring_properties())
    merged.update(token_ring.ring_invariants())
    return merged


FAMILIES = {
    "token_ring": (token_ring.build_token_ring, _token_ring_formulas, (2, 3, 4)),
    "round_robin": (round_robin.build_round_robin, round_robin.round_robin_properties, (2, 3)),
    "barrier": (barrier.build_barrier, barrier.barrier_properties, (2, 3)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engines_agree_on_all_system_families(family):
    build, properties, sizes = FAMILIES[family]
    for size in sizes:
        structure = build(size)
        naive = CTLModelChecker(structure)
        fast = BitsetCTLModelChecker(structure)
        for name, formula in properties().items():
            instantiated = instantiate_quantifiers(formula, structure.index_values)
            assert fast.satisfaction_set(instantiated) == naive.satisfaction_set(
                instantiated
            ), (family, size, name)
