"""Unit tests for the SAT-based bounded model checker (``engine="bmc"``)."""

import pytest

from repro.errors import (
    FragmentError,
    InconclusiveError,
    ModelCheckingError,
)
from repro.kripke.paths import is_lasso, is_path
from repro.kripke.structure import KripkeStructure
from repro.logic.builders import (
    AF,
    AG,
    EF,
    EG,
    EU,
    atom,
    exactly_one,
    iatom,
    land,
    lnot,
    lor,
)
from repro.mc import BoundedModelChecker, ENGINE_NAMES, make_ctl_checker
from repro.mc.bitset import BitsetCTLModelChecker
from repro.mc.fairness import FairnessConstraint
from repro.mc.indexed import ICTLStarModelChecker
from repro.systems import token_ring


@pytest.fixture(scope="module")
def branching():
    """a -> {b, c}; b self-loops (p); c -> d (p, q) -> a."""
    return KripkeStructure(
        states=["a", "b", "c", "d"],
        transitions=[("a", "b"), ("a", "c"), ("b", "b"), ("c", "d"), ("d", "a")],
        labeling={"a": set(), "b": {"p"}, "c": {"q"}, "d": {"p", "q"}},
        initial_state="a",
        name="branching",
    )


class TestInvariantFragment:
    def test_true_invariant_proved(self, branching):
        checker = BoundedModelChecker(branching, bound=8)
        assert checker.check(AG(lor(atom("p"), atom("q"), lnot(atom("p")))))
        assert "induction" in checker.last_detail

    def test_violated_invariant_yields_minimal_path(self, branching):
        checker = BoundedModelChecker(branching, bound=8)
        assert not checker.check(AG(lnot(atom("q"))))
        path = checker.last_counterexample
        assert path is not None
        assert path[0] == "a"
        assert is_path(branching, path)
        assert path[-1] == "c" and len(path) == 2  # q first reachable at depth 1

    def test_verdicts_agree_with_bitset_on_invariants(self, branching):
        bitset = BitsetCTLModelChecker(branching)
        bmc = BoundedModelChecker(branching, bound=8)
        for body in [atom("p"), lnot(atom("p")), lor(atom("p"), atom("q"))]:
            for wrap in (AG, EF):
                formula = wrap(body)
                assert bmc.check(formula) == bitset.check(formula), formula

    def test_ef_witness_and_unreachability(self, branching):
        checker = BoundedModelChecker(branching, bound=8)
        assert checker.check(EF(land(atom("p"), atom("q"))))
        assert not checker.check(EF(land(atom("q"), lnot(atom("q")))))

    def test_boolean_combinations_and_negation(self, branching):
        checker = BoundedModelChecker(branching, bound=8)
        assert checker.check(land(AG(lor(atom("p"), atom("q"), lnot(atom("p")))),
                                  EF(atom("q"))))
        assert not checker.check(lnot(EF(atom("q"))))

    def test_verdicts_are_memoised(self, branching):
        checker = BoundedModelChecker(branching, bound=8)
        formula = AG(lnot(atom("q")))
        assert checker.check(formula) is False
        calls_before = checker.stats()["solve_calls"]
        assert checker.check(formula) is False  # memoised: no new SAT calls
        assert checker.stats()["solve_calls"] == calls_before
        assert checker.last_detail == "memoised verdict"


class TestLassos:
    def test_af_counterexample_is_valid_lasso(self, branching):
        checker = BoundedModelChecker(branching, bound=8)
        assert not checker.check(AF(atom("q")))  # loop a->b->b... avoids q
        lasso = checker.last_lasso
        assert lasso is not None and is_lasso(branching, lasso)
        assert all("q" not in branching.label(state) for state in lasso.positions())

    def test_eg_witness_is_valid_lasso(self, branching):
        checker = BoundedModelChecker(branching, bound=8)
        assert checker.check(EG(lnot(atom("q"))))
        lasso = checker.last_lasso
        assert is_lasso(branching, lasso)

    def test_liveness_that_holds_is_inconclusive(self, branching):
        checker = BoundedModelChecker(branching, bound=4)
        with pytest.raises(InconclusiveError):
            checker.check(AF(lor(atom("p"), atom("q"))))

    def test_an_inconclusive_conjunct_does_not_hide_a_false_one(self, branching):
        checker = BoundedModelChecker(branching, bound=4)
        holds = AF(lor(atom("p"), atom("q")))  # BMC cannot prove liveness
        assert checker.check(land(holds, AG(atom("p")))) is False
        with pytest.raises(InconclusiveError):  # nothing decides it when the right one holds
            checker.check(land(holds, AG(lor(atom("p"), lnot(atom("p"))))))


class TestFragmentBoundaries:
    def test_nested_temporal_rejected(self, branching):
        checker = BoundedModelChecker(branching, bound=4)
        with pytest.raises(FragmentError):
            checker.check(AG(EF(atom("p"))))

    def test_until_rejected(self, branching):
        checker = BoundedModelChecker(branching, bound=4)
        with pytest.raises(FragmentError):
            checker.check(EU(atom("p"), atom("q")))

    def test_fairness_rejected_at_construction(self, branching):
        constraint = FairnessConstraint(conditions=(atom("p"),), name="p fair")
        with pytest.raises(FragmentError):
            BoundedModelChecker(branching, fairness=constraint)

    def test_non_initial_start_state_rejected(self, branching):
        checker = BoundedModelChecker(branching, bound=4)
        with pytest.raises(ModelCheckingError):
            checker.check(AG(atom("p")), state="b")
        # The initial state itself is accepted.
        assert not checker.check(AG(lnot(atom("q"))), state="a")

    def test_propositional_formulas_evaluate_at_initial(self, branching):
        checker = BoundedModelChecker(branching, bound=4)
        assert checker.check(lnot(atom("p")))
        assert not checker.check(atom("p"))


class TestEngineRegistration:
    def test_engine_registry(self):
        assert "bmc" in ENGINE_NAMES

    def test_make_ctl_checker_builds_bmc(self, branching):
        checker = make_ctl_checker(branching, engine="bmc", bound=7)
        assert isinstance(checker, BoundedModelChecker)
        assert checker.bound == 7
        assert checker.supports_satisfaction_sets is False

    def test_ictlstar_front_end_dispatches_check(self, ring4):
        checker = ICTLStarModelChecker(ring4, engine="bmc", bound=8)
        assert checker.check(token_ring.invariant_one_token())
        assert checker.check(token_ring.property_critical_implies_token())
        with pytest.raises(FragmentError):
            checker.satisfaction_set(token_ring.invariant_one_token())

    def test_ictlstar_bmc_agrees_with_bitset_on_ring(self, ring3):
        bmc = ICTLStarModelChecker(ring3, engine="bmc", bound=8)
        bitset = ICTLStarModelChecker(ring3, engine="bitset")
        for formula in [
            token_ring.invariant_one_token(),
            token_ring.property_critical_implies_token(),
        ]:
            assert bmc.check(formula) == bitset.check(formula)


class TestRingAcceptance:
    def test_seeded_ring_bug_found_and_matches_bitset_oracle(self):
        """The headline acceptance check at r <= 8 (here 6, well inside it)."""
        from repro.mc import counterexample_ag

        size = 6
        explicit = token_ring.build_token_ring(size, buggy=True)
        free = token_ring.symbolic_token_ring(size, buggy=True, domain="free")
        checker = BoundedModelChecker(free, bound=8)
        assert not checker.check(token_ring.invariant_one_token())
        path = checker.last_counterexample
        assert path is not None and path[0] == explicit.initial_state
        assert is_path(explicit, path)
        assert not explicit.atom_holds(path[-1], exactly_one("t"))
        oracle = counterexample_ag(explicit, exactly_one("t"), engine="bitset")
        assert oracle is not None and len(oracle) == len(path)

    def test_kinduction_proves_one_token_without_reachability(self):
        """``AG Θ_i t_i`` proved on the *free* domain — no fixpoint, no ceiling."""
        free = token_ring.symbolic_token_ring(8, domain="free")
        checker = BoundedModelChecker(free, bound=8)
        assert checker.check(token_ring.invariant_one_token())
        assert checker.last_detail == "proved by 1-induction"
        stats = checker.stats()
        assert stats["solve_calls"] >= 2  # one base query, one induction query

    @pytest.mark.parametrize("size", [4, 6])
    def test_kinduction_proof_is_drat_certified(self, size):
        free = token_ring.symbolic_token_ring(size, domain="free")
        checker = BoundedModelChecker(free, bound=8, drat=True)
        assert checker.check(token_ring.invariant_one_token())
        assert "induction" in checker.last_detail
        assert checker.last_proof_stats["unsat_checks"] >= 1

    def test_prove_invariant_reports_induction_length(self):
        free = token_ring.symbolic_token_ring(5, domain="free")
        checker = BoundedModelChecker(free, bound=8)
        assert checker.prove_invariant(exactly_one("t")) == 1

    def test_af_counterexample_on_unfair_ring(self, ring3):
        """The E11 story replayed through SAT: AF t_3 fails without fairness."""
        checker = BoundedModelChecker(ring3, bound=10)
        assert not checker.check(AF(iatom("t", 3)))
        lasso = checker.last_lasso
        assert is_lasso(ring3, lasso)
        from repro.kripke.structure import IndexedProp

        assert all(
            IndexedProp("t", 3) not in ring3.label(state) for state in lasso.positions()
        )

    def test_shares_symbolic_encoding_with_bdd_engine(self, ring3):
        from repro.kripke.symbolic import symbolic_structure

        checker = BoundedModelChecker(ring3, bound=4)
        assert checker.symbolic is symbolic_structure(ring3)
