"""Unit tests for the CNF layer: gates, BDD lowering, DIMACS round-trips."""

import itertools

import pytest

from repro.bdd import BDDManager
from repro.sat.cnf import (
    CNF,
    SatError,
    enumerate_models,
    evaluate_clauses,
    naive_satisfiable,
    parse_dimacs,
    to_dimacs,
    tseitin_bdd,
)


def _models_of_output(cnf, inputs, output):
    """The input patterns under which the formula forces ``output`` true."""
    patterns = set()
    for model in enumerate_models(cnf):
        if model[abs(output)] == (output > 0):
            patterns.add(tuple(model[var] for var in inputs))
    return patterns


class TestGates:
    def test_gate_and_semantics(self):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        out = cnf.gate_and([a, -b, c])
        expected = {
            pattern
            for pattern in itertools.product([False, True], repeat=3)
            if pattern[0] and not pattern[1] and pattern[2]
        }
        assert _models_of_output(cnf, (a, b, c), out) == expected

    def test_gate_or_semantics(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        out = cnf.gate_or([-a, b])
        expected = {
            pattern
            for pattern in itertools.product([False, True], repeat=2)
            if (not pattern[0]) or pattern[1]
        }
        assert _models_of_output(cnf, (a, b), out) == expected

    def test_gate_xor_iff_ite(self):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        x = cnf.gate_xor(a, b)
        e = cnf.gate_iff(a, b)
        t = cnf.gate_ite(a, b, c)
        for model in enumerate_models(cnf):
            va, vb, vc = model[a], model[b], model[c]
            assert (model[abs(x)] == (x > 0)) == (va ^ vb)
            assert (model[abs(e)] == (e > 0)) == (va == vb)
            assert (model[abs(t)] == (t > 0)) == (vb if va else vc)

    @pytest.mark.parametrize("agreeing", [True, False])
    def test_gate_ite_propagates_agreeing_branches(self, agreeing):
        """Branches that agree settle the output by propagation alone, with no conflict."""
        from repro.sat.solver import Solver

        solver = Solver()
        c, t, e = (solver.new_var() for _ in range(3))
        o = solver.gate_ite(c, t, e)
        sign = 1 if agreeing else -1
        assert not solver.solve([sign * t, sign * e, -sign * o])
        assert solver.stats.conflicts == 0

    def test_empty_gates_are_constants(self):
        cnf = CNF()
        assert cnf.gate_and([]) == cnf.true_literal()
        assert cnf.gate_or([]) == -cnf.true_literal()

    def test_single_literal_gates_pass_through(self):
        cnf = CNF()
        a = cnf.new_var()
        assert cnf.gate_and([a]) == a
        assert cnf.gate_or([-a]) == -a


class TestBDDToCNF:
    def test_tseitin_bdd_matches_bdd_semantics(self):
        manager = BDDManager()
        x, y, z = manager.var(0), manager.var(1), manager.var(2)
        edge = manager.apply_or(manager.apply_and(x, manager.negate(y)), z)
        cnf = CNF()
        lits = {0: cnf.new_var(), 1: cnf.new_var(), 2: cnf.new_var()}
        out = tseitin_bdd(manager, edge, lits, cnf)
        for model in enumerate_models(cnf):
            assignment = {var: model[lit] for var, lit in lits.items()}
            assert (model[abs(out)] == (out > 0)) == manager.evaluate(edge, assignment)

    def test_tseitin_bdd_constants(self):
        manager = BDDManager()
        cnf = CNF()
        assert tseitin_bdd(manager, 1, {}, cnf) == cnf.true_literal()
        assert tseitin_bdd(manager, 0, {}, cnf) == -cnf.true_literal()

    def test_tseitin_bdd_complement_edge_negates_literal(self):
        manager = BDDManager()
        x = manager.var(0)
        cnf = CNF()
        cache = {}
        lits = {0: cnf.new_var()}
        positive = tseitin_bdd(manager, x, lits, cnf, cache)
        negative = tseitin_bdd(manager, manager.negate(x), lits, cnf, cache)
        assert negative == -positive

    def test_tseitin_bdd_missing_variable_mapping(self):
        manager = BDDManager()
        x = manager.var(0)
        with pytest.raises(SatError):
            tseitin_bdd(manager, x, {}, CNF())

    def test_tseitin_bdd_survives_deep_chains(self):
        """Lowering is iterative: a 3000-variable conjunction chain must not recurse."""
        import sys

        manager = BDDManager()
        width = 3000
        cube = manager.cube({var: True for var in range(width)})
        cnf = CNF()
        lits = {var: cnf.new_var() for var in range(width)}
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(200)
            out = tseitin_bdd(manager, cube, lits, cnf)
        finally:
            sys.setrecursionlimit(limit)
        cnf.add_clause([out])
        from repro.sat.solver import Solver

        solver = Solver()
        for _ in range(cnf.num_vars):
            solver.new_var()
        for clause in cnf.clauses:
            solver.add_clause(clause)
        assert solver.solve()
        assert all(solver.model_value(lit) for lit in lits.values())


class TestDimacs:
    def test_round_trip(self):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([a, -b])
        cnf.add_clause([-a, b, c])
        cnf.add_clause([-c])
        parsed = parse_dimacs(to_dimacs(cnf, comments=["round trip"]))
        assert parsed.num_vars == cnf.num_vars
        assert parsed.clauses == cnf.clauses

    def test_parse_multiline_clause(self):
        parsed = parse_dimacs("p cnf 3 2\n1 -2\n3 0\nc mid comment\n-1 2 0\n")
        assert parsed.clauses == [(1, -2, 3), (-1, 2)]

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 0\n",  # clause before header
            "p cnf x 1\n1 0\n",  # non-numeric header
            "p cnf 2 1\n3 0\n",  # literal exceeds declared vars
            "p cnf 2 1\n1 2\n",  # unterminated clause
            "p cnf 2 1\np cnf 2 1\n1 0\n",  # duplicate header
            "p cnf 2 2\n1 0\n",  # clause count mismatch
            "",  # no header at all
        ],
    )
    def test_parse_rejects_malformed_documents(self, text):
        with pytest.raises(SatError):
            parse_dimacs(text)


class TestReferenceSemantics:
    def test_evaluate_clauses(self):
        assert evaluate_clauses([(1, -2)], {1: True, 2: True})
        assert not evaluate_clauses([(1,), (-1,)], {1: True})

    def test_naive_satisfiable(self):
        sat = CNF()
        a, b = sat.new_vars(2)
        sat.add_clause([a, b])
        assert naive_satisfiable(sat)
        unsat = CNF()
        v = unsat.new_var()
        unsat.add_clause([v])
        unsat.add_clause([-v])
        assert not naive_satisfiable(unsat)

    def test_zero_literal_rejected(self):
        with pytest.raises(SatError):
            CNF().add_clause([0])
