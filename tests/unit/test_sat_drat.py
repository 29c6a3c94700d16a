"""Tests for DRAT proof logging and the forward RUP/RAT proof checker.

Three layers: the checker itself (accepts valid derivations, rejects
fabricated ones — a checker that accepts everything certifies nothing),
the solver's proof logging across its whole feature surface (learning,
assumptions, clause deletions), and the end-to-end certification paths the
engines expose (IC3 invariant certificates, BMC k-induction proofs).
"""

from __future__ import annotations

import random

import pytest

from repro.sat.drat import ProofError, ProofLog, check_proof
from repro.sat.solver import Solver


# ---------------------------------------------------------------------------
# The checker on hand-built proofs
# ---------------------------------------------------------------------------


class TestChecker:
    def test_classic_resolution_refutation(self):
        # (1 2)(−1 2)(1 −2)(−1 −2): derive (2) by RUP, then the empty clause.
        log = ProofLog()
        for clause in ([1, 2], [-1, 2], [1, -2], [-1, -2]):
            log.input(clause)
        log.add([2])
        log.add([])
        stats = check_proof(log)
        assert stats == {"inputs": 4, "added": 2, "deleted": 0, "unsat_checks": 0}

    def test_unsat_verdict_without_assumptions(self):
        log = ProofLog()
        log.input([1])
        log.input([-1])
        log.unsat([])
        assert check_proof(log)["unsat_checks"] == 1

    def test_unsat_verdict_under_assumptions(self):
        # Satisfiable database, contradiction only under the assumption.
        log = ProofLog()
        log.input([-1, 2])
        log.input([-2])
        log.unsat([1])
        assert check_proof(log)["unsat_checks"] == 1

    def test_bogus_verdict_rejected(self):
        log = ProofLog()
        log.input([1, 2])
        log.unsat([])
        with pytest.raises(ProofError, match="UNSAT"):
            check_proof(log)

    def test_non_rup_addition_rejected(self):
        log = ProofLog()
        log.input([1, 2])
        log.add([-1])  # nothing implies this
        with pytest.raises(ProofError, match="neither RUP nor RAT"):
            check_proof(log)

    def test_deleting_absent_clause_rejected(self):
        log = ProofLog()
        log.input([1, 2])
        log.delete([1, 3])
        with pytest.raises(ProofError, match="matches no active clause"):
            check_proof(log)

    def test_deletion_is_multiset_matched(self):
        log = ProofLog()
        log.input([1, 2])
        log.delete([2, 1])  # same clause, different literal order: fine
        assert check_proof(log)["deleted"] == 1
        log.delete([2, 1])  # but only one copy existed
        with pytest.raises(ProofError):
            check_proof(log)

    def test_rat_addition_accepted(self):
        # (4) is not RUP over {(1 2)} but is vacuously RAT on pivot 4:
        # no clause contains -4, so there are no resolvents to check.
        log = ProofLog()
        log.input([1, 2])
        log.add([4])
        assert check_proof(log)["added"] == 1

    def test_deletion_can_break_a_later_derivation(self):
        # After deleting (1 2), the RUP derivation of (2) no longer goes
        # through — the checker must track deletions, not just additions.
        log = ProofLog()
        for clause in ([1, 2], [-1, 2], [1, -2], [-1, -2]):
            log.input(clause)
        log.delete([1, 2])
        log.add([2])
        with pytest.raises(ProofError):
            check_proof(log)

    def test_error_reports_step_index(self):
        log = ProofLog()
        log.input([1, 2])
        log.add([-2])
        try:
            check_proof(log)
        except ProofError as error:
            assert "step 1" in str(error)
        else:  # pragma: no cover - the check must fail
            pytest.fail("bogus addition was accepted")

    def test_drat_text_export(self):
        log = ProofLog()
        log.input([1, 2])
        log.add([1])
        log.delete([1, 2])
        log.unsat([5])
        text = log.to_drat_text()
        lines = text.strip().splitlines()
        assert "1 0" in lines
        assert "d 1 2 0" in lines
        assert any(line.startswith("c ") and "5" in line for line in lines)
        assert "1 2 0" not in lines  # inputs live in the CNF, not the proof

    def test_log_bookkeeping(self):
        log = ProofLog()
        log.input([1])
        log.add([2])
        log.unsat([3])
        assert len(log) == 3
        assert log.inputs() == [(1,)]
        assert log.unsat_verdicts() == [(3,)]
        log.clear()
        assert len(log) == 0


# ---------------------------------------------------------------------------
# Solver round-trips
# ---------------------------------------------------------------------------


def _random_instance(rng: random.Random, num_vars: int, num_clauses: int) -> Solver:
    solver = Solver()
    variables = [solver.new_var() for _ in range(num_vars)]
    solver.start_proof()
    for _ in range(num_clauses):
        chosen = rng.sample(variables, 3)
        solver.add_clause([var * rng.choice((1, -1)) for var in chosen])
    return solver


class TestSolverRoundTrip:
    def test_pigeonhole_refutation_certifies(self):
        solver = Solver()
        pigeon = {(i, j): solver.new_var() for i in range(4) for j in range(3)}
        solver.start_proof()
        for i in range(4):
            solver.add_clause([pigeon[(i, j)] for j in range(3)])
        for j in range(3):
            for first in range(4):
                for second in range(first + 1, 4):
                    solver.add_clause([-pigeon[(first, j)], -pigeon[(second, j)]])
        assert not solver.solve()
        stats = check_proof(solver.proof)
        assert stats["unsat_checks"] == 1
        assert stats["added"] > 0  # the refutation needed learnt clauses

    def test_unsat_under_assumptions_certifies(self):
        solver = Solver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.start_proof()
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        assert solver.solve()  # satisfiable outright: no verdict logged
        assert not solver.solve([a, -c])
        assert solver.proof.unsat_verdicts() == [(a, -c)]
        check_proof(solver.proof)

    def test_random_unsat_instances_certify(self):
        rng = random.Random(7)
        verdicts = 0
        for _ in range(30):
            solver = _random_instance(rng, rng.randint(4, 10), rng.randint(18, 50))
            if not solver.solve():
                verdicts += check_proof(solver.proof)["unsat_checks"]
        assert verdicts >= 5  # at that ratio, a good share must be UNSAT

    def test_tampered_log_is_rejected(self):
        solver = Solver()
        v = solver.new_var()
        w = solver.new_var()
        solver.start_proof()
        solver.add_clause([v, w])
        solver.add_clause([-v, w])
        solver.add_clause([-w])
        assert not solver.solve()
        check_proof(solver.proof)  # sanity: the honest log passes
        # Flip the (-w) input: the database is now satisfiable, so the
        # logged UNSAT verdict can no longer be certified.
        for index, (kind, lits) in enumerate(solver.proof.steps):
            if kind == "i" and lits == (-w,):
                solver.proof.steps[index] = (kind, (w,))
                break
        with pytest.raises(ProofError):
            check_proof(solver.proof)

    def test_start_proof_snapshots_existing_state(self):
        # Clauses added *before* start_proof appear as inputs, so later
        # derivations check against the solver's real database.
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a, b])
        log = solver.start_proof()
        solver.add_clause([-b])
        assert not solver.solve()
        assert len(log.inputs()) >= 2
        check_proof(log)

    def test_stop_proof_detaches(self):
        solver = Solver()
        v = solver.new_var()
        solver.start_proof()
        solver.add_clause([v])
        solver.stop_proof()
        assert solver.proof is None
        solver.add_clause([-v])  # no log to corrupt
        assert not solver.solve()


class TestFuzzHarness:
    def test_fuzz_batch_certifies_every_unsat(self, capsys):
        from repro.sat.fuzz import run_fuzz

        assert run_fuzz(count=10, seed=5) == 0
        out = capsys.readouterr().out
        assert "certified UNSAT" in out


# ---------------------------------------------------------------------------
# Engine-level certification
# ---------------------------------------------------------------------------


class TestEngineCertification:
    def test_ic3_mutex_invariant_is_drat_certified(self, sanitizers):
        from repro.mc.ic3 import IC3ModelChecker
        from repro.systems import mutex

        checker = IC3ModelChecker(mutex.build_mutex(2), drat=True)
        assert checker.check(mutex.mutex_safety(2))
        stats = checker.last_proof_stats
        assert stats is not None and stats["unsat_checks"] >= 1

    def test_ic3_without_drat_skips_certification(self):
        from repro.mc.ic3 import IC3ModelChecker
        from repro.systems import mutex

        checker = IC3ModelChecker(mutex.build_mutex(2))
        assert checker.check(mutex.mutex_safety(2))
        assert checker.last_proof_stats is None

    def test_bmc_k_induction_proof_is_drat_certified(self, sanitizers):
        from repro.mc.bmc import BoundedModelChecker
        from repro.systems import mutex

        checker = BoundedModelChecker(mutex.build_mutex(2), bound=10, drat=True)
        assert checker.check(mutex.mutex_safety(2))
        assert "induction" in checker.last_detail
        stats = checker.last_proof_stats
        assert stats is not None and stats["unsat_checks"] >= 1
