"""Unit tests for the lock-based mutual-exclusion family (`systems/mutex.py`)."""

import pytest

from repro.errors import StructureError
from repro.kripke.paths import is_path
from repro.kripke.validation import assert_total
from repro.mc import BoundedModelChecker, SymbolicCTLModelChecker, crosscheck_ctl_engines
from repro.mc.indexed import ICTLStarModelChecker
from repro.logic.builders import AF, iatom
from repro.systems import mutex


@pytest.fixture(scope="module")
def mutex3():
    return mutex.build_mutex(3)


@pytest.fixture(scope="module")
def mutex3_buggy():
    return mutex.build_mutex(3, buggy=True)


class TestExplicitStructure:
    def test_initial_state_and_totality(self, mutex3):
        initial = mutex3.initial_state
        assert initial == mutex.mutex_initial_state(3)
        assert not initial.lock
        assert_total(mutex3)

    def test_state_count_small_instances(self):
        # One process: I -> R -> C cycle, 3 states.
        assert mutex.build_mutex(1).num_states == 3
        # The lock bit is derived (lock iff someone is critical), so states
        # are the part vectors with at most one C: 3^n - over-counts; n=2
        # explicit exploration gives the exact reachable count.
        assert mutex.build_mutex(2).num_states == 8

    def test_labels(self, mutex3):
        from repro.kripke.structure import IndexedProp

        label = mutex3.label(mutex3.initial_state)
        assert label == frozenset(IndexedProp("n", i) for i in (1, 2, 3))
        state = mutex.MutexState(parts=("C", "R", "I"), lock=True)
        assert mutex.mutex_state_label(state) == frozenset(
            {IndexedProp("c", 1), IndexedProp("r", 2), IndexedProp("n", 3), mutex.LOCK_PROP}
        )

    def test_buggy_reaches_more_states(self, mutex3, mutex3_buggy):
        assert mutex3_buggy.num_states > mutex3.num_states

    def test_max_states_guard(self):
        with pytest.raises(StructureError):
            mutex.build_mutex(4, max_states=5)

    def test_invalid_size(self):
        with pytest.raises(StructureError):
            mutex.build_mutex(0)


class TestProperties:
    def test_safety_holds_and_liveness_needs_fairness(self, mutex3):
        plain = ICTLStarModelChecker(mutex3, enforce_restrictions=False)
        assert plain.check(mutex.mutex_safety(3))
        assert not plain.check(mutex.mutex_liveness())
        fair = ICTLStarModelChecker(
            mutex3,
            enforce_restrictions=False,
            fairness=mutex.mutex_scheduler_fairness(3),
        )
        assert fair.check(mutex.mutex_liveness())

    def test_buggy_violates_safety(self, mutex3_buggy):
        checker = ICTLStarModelChecker(mutex3_buggy, enforce_restrictions=False)
        assert not checker.check(mutex.mutex_safety(3))
        # The request/critical cycle itself still works.
        assert checker.check(mutex.mutex_liveness()) is False

    def test_crosschecked_across_satisfaction_set_engines(self, mutex3, mutex3_buggy):
        crosscheck_ctl_engines(mutex3, mutex.mutex_safety(3))
        crosscheck_ctl_engines(mutex3_buggy, mutex.mutex_safety(3))
        crosscheck_ctl_engines(
            mutex3, AF(iatom("c", 2)), fairness=mutex.mutex_scheduler_fairness(3)
        )


class TestSymbolicEncoding:
    def test_symbolic_matches_explicit_state_count(self, mutex3):
        assert mutex.symbolic_mutex(3).num_states == mutex3.num_states

    def test_symbolic_verdicts_match_explicit(self, mutex3):
        symbolic = SymbolicCTLModelChecker(mutex.symbolic_mutex(3))
        explicit = ICTLStarModelChecker(mutex3, enforce_restrictions=False)
        for formula in (mutex.mutex_safety(3), mutex.mutex_liveness()):
            assert symbolic.check(formula) == explicit.check(formula)

    def test_symbolic_buggy_violates_safety(self):
        checker = SymbolicCTLModelChecker(mutex.symbolic_mutex(3, buggy=True))
        assert not checker.check(mutex.mutex_safety(3))

    def test_encode_decode_round_trip(self):
        encoded = mutex.symbolic_mutex(2)
        state = mutex.MutexState(parts=("R", "C"), lock=True)
        assert encoded.decode_state(encoded.encode_state(state)) == state

    def test_domain_validation(self):
        with pytest.raises(StructureError):
            mutex.symbolic_mutex(2, domain="bogus")


class TestBMCTarget:
    """The mutex family as the BMC falsification target (all five engines)."""

    def test_bmc_finds_the_race_with_validated_path(self):
        size = 4
        explicit = mutex.build_mutex(size, buggy=True)
        free = mutex.symbolic_mutex(size, buggy=True, domain="free")
        checker = BoundedModelChecker(free, bound=8)
        assert not checker.check(mutex.mutex_safety(size))
        path = checker.last_counterexample
        assert path is not None and path[0] == explicit.initial_state
        assert is_path(explicit, path)
        # Depth 4: request, acquire, request, buggy acquire.
        assert len(path) - 1 == 4

    def test_bmc_proves_correct_mutex_safe(self):
        free = mutex.symbolic_mutex(3, domain="free")
        checker = BoundedModelChecker(free, bound=10)
        assert checker.check(mutex.mutex_safety(3))
        assert "induction" in checker.last_detail

    def test_all_four_engines_agree_on_safety(self, mutex3, mutex3_buggy):
        from repro.mc import make_ctl_checker
        from repro.mc.bitset import ENGINE_NAMES

        for structure, expected in ((mutex3, True), (mutex3_buggy, False)):
            size = len(structure.index_values)
            for engine in ENGINE_NAMES:
                checker = make_ctl_checker(structure, engine=engine, bound=10)
                assert checker.check(mutex.mutex_safety(size)) is expected, engine


class TestOneProcess:
    """With one process there is no pair to exclude: safety is ``AG true``."""

    @pytest.mark.parametrize("buggy", [False, True])
    @pytest.mark.parametrize("engine", ["bitset", "naive", "bdd", "bmc", "ic3"])
    def test_safety_holds(self, engine, buggy):
        from repro.mc import make_ctl_checker

        checker = make_ctl_checker(mutex.build_mutex(1, buggy=buggy), engine=engine, bound=10)
        assert checker.check(mutex.mutex_safety(1))

    @pytest.mark.parametrize("buggy", [False, True])
    @pytest.mark.parametrize("engine", ["bitset", "naive", "bdd", "bmc", "ic3"])
    def test_cli_exits_zero(self, engine, buggy, capsys):
        from repro.cli import main

        args = ["--system", "mutex", "--size", "1", "--engine", engine]
        assert main(args + (["--buggy"] if buggy else [])) == 0
        assert "FAIL" not in capsys.readouterr().out
