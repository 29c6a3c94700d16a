"""Unit tests for the CDCL solver: propagation, learning, assumptions, fuzz."""

import random

import pytest

from repro.sat.cnf import CNF, SatError, evaluate_clauses, naive_satisfiable
from repro.sat.drat import check_proof
from repro.sat.fuzz import random_3cnf, run_fuzz
from repro.sat.solver import Solver, luby


def _solver_for(cnf: CNF) -> Solver:
    solver = Solver()
    for _ in range(cnf.num_vars):
        solver.new_var()
    for clause in cnf.clauses:
        solver.add_clause(clause)
    return solver


def test_luby_sequence():
    assert [luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    assert luby(6, base=100) == 400


def test_empty_formula_is_satisfiable():
    solver = Solver()
    assert solver.solve()
    assert solver.model() == {}


def test_unit_propagation_chain():
    """A 100-literal implication chain must resolve by propagation alone."""
    solver = Solver()
    variables = [solver.new_var() for _ in range(100)]
    solver.add_clause([variables[0]])
    for source, target in zip(variables, variables[1:]):
        solver.add_clause([-source, target])
    assert solver.solve()
    assert all(solver.model_value(var) for var in variables)
    assert solver.stats.decisions == 0  # the chain never needs a guess


def test_conflicting_units_unsat():
    solver = Solver()
    v = solver.new_var()
    solver.add_clause([v])
    assert not solver.add_clause([-v]) or not solver.solve()
    assert not solver.solve()


def test_pigeonhole_three_pigeons_two_holes_unsat():
    solver = Solver()
    pigeon = {(i, j): solver.new_var() for i in range(3) for j in range(2)}
    for i in range(3):
        solver.add_clause([pigeon[(i, 0)], pigeon[(i, 1)]])
    for j in range(2):
        for first in range(3):
            for second in range(first + 1, 3):
                solver.add_clause([-pigeon[(first, j)], -pigeon[(second, j)]])
    assert not solver.solve()
    assert solver.stats.conflicts > 0


def test_assumption_incrementality():
    """One solver, contradictory assumption sets, clauses added in between."""
    solver = Solver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([a, b])
    assert solver.solve(assumptions=[-a, -b]) is False
    assert solver.solve(assumptions=[-a])  # still satisfiable: b carries
    assert solver.model_value(b)
    solver.add_clause([-b, c])  # incremental clause addition after solving
    assert solver.solve(assumptions=[-a])
    assert solver.model_value(c)
    assert solver.solve(assumptions=[a, -b, -c])
    assert not solver.solve(assumptions=[-a, -c])
    # The database itself never became unsatisfiable.
    assert solver.solve()


def test_assumptions_do_not_persist():
    solver = Solver()
    v = solver.new_var()
    assert solver.solve(assumptions=[-v])
    assert solver.solve(assumptions=[v])


def test_model_validity_on_random_instances():
    rng = random.Random(42)
    for _ in range(30):
        cnf = random_3cnf(rng, rng.randint(4, 10), rng.randint(8, 40))
        solver = _solver_for(cnf)
        if solver.solve():
            assert evaluate_clauses(cnf.clauses, solver.model())
        else:
            assert not naive_satisfiable(cnf)


def test_tautological_and_duplicate_clauses():
    solver = Solver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, -a, b])  # tautology: silently satisfied
    solver.add_clause([a, a, b])  # duplicate literal collapsed
    assert solver.solve(assumptions=[-a])
    assert solver.model_value(b)


def test_zero_literal_rejected():
    with pytest.raises(SatError):
        Solver().add_clause([0])
    with pytest.raises(SatError):
        Solver().solve(assumptions=[0])


def test_model_unavailable_before_sat():
    solver = Solver()
    v = solver.new_var()
    with pytest.raises(SatError):
        solver.model_value(v)


def test_stale_model_cleared_on_unsat():
    """An UNSAT answer must invalidate the model of an earlier SAT call."""
    solver = Solver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    assert solver.solve()
    assert not solver.solve(assumptions=[-a, -b])
    with pytest.raises(SatError):
        solver.model()
    with pytest.raises(SatError):
        solver.model_value(a)


def test_stats_accumulate_across_calls():
    solver = Solver()
    variables = [solver.new_var() for _ in range(20)]
    rng = random.Random(7)
    for _ in range(80):
        clause = [var if rng.random() < 0.5 else -var for var in rng.sample(variables, 3)]
        solver.add_clause(clause)
    first = solver.solve()
    calls_after_first = solver.stats.solve_calls
    solver.solve(assumptions=[variables[0]])
    assert solver.stats.solve_calls == calls_after_first + 1
    assert solver.stats.propagations > 0
    assert isinstance(first, bool)
    payload = solver.stats.as_dict()
    assert set(payload) >= {"conflicts", "decisions", "propagations", "learned_clauses"}


def test_learnt_clause_database_reduction():
    """Force enough conflicts that the learnt DB is reduced at least once."""
    solver = Solver()
    solver._max_learnts = 10.0  # shrink the budget so reduction triggers fast
    variables = [solver.new_var() for _ in range(40)]
    rng = random.Random(3)
    for _ in range(170):
        clause = [var if rng.random() < 0.5 else -var for var in rng.sample(variables, 3)]
        solver.add_clause(clause)
    solver.solve()
    assert solver.stats.learned_clauses > 0
    assert solver.stats.deleted_clauses > 0


def test_gate_interface_on_solver():
    """The solver doubles as a Tseitin sink (ClauseSink mixin)."""
    solver = Solver()
    a, b = solver.new_var(), solver.new_var()
    both = solver.gate_and([a, b])
    solver.add_clause([both])
    assert solver.solve()
    assert solver.model_value(a) and solver.model_value(b)


def test_fuzz_harness_clean():
    assert run_fuzz(count=25, max_vars=10, seed=123) == 0


def test_unsat_core_names_the_assumptions_used():
    solver = Solver()
    x, y, z = (solver.new_var() for _ in range(3))
    solver.add_clause([x])
    solver.add_clause([-x, y])
    assert not solver.solve(assumptions=[-y, z])
    core = solver.unsat_core()
    assert core <= {-y, z}
    assert -y in core  # z is irrelevant to the conflict
    # The core is sufficient: the database plus the core alone is UNSAT.
    replay = Solver()
    for _ in range(3):
        replay.new_var()
    replay.add_clause([x])
    replay.add_clause([-x, y])
    assert not replay.solve(assumptions=sorted(core))


def test_unsat_core_empty_when_database_alone_is_unsat():
    solver = Solver()
    v = solver.new_var()
    w = solver.new_var()
    solver.add_clause([v])
    solver.add_clause([-v])
    assert not solver.solve(assumptions=[w])
    assert solver.unsat_core() == frozenset()


def test_unsat_core_unavailable_after_sat():
    solver = Solver()
    v = solver.new_var()
    solver.add_clause([v])
    assert solver.solve()
    with pytest.raises(SatError):
        solver.unsat_core()


def test_glue_reduction_keeps_binary_clauses_sound():
    """Aggressive DB reduction with glue-aware retention never loses answers."""
    rng = random.Random(5)
    cnf = random_3cnf(rng, 30, 126)
    solver = _solver_for(cnf)
    solver._max_learnts = 5.0  # force constant reduction pressure
    verdict = solver.solve()
    if verdict:
        assert evaluate_clauses(cnf.clauses, solver.model())
    # Re-query under assumptions: deleted learnts must not have taken
    # original clauses with them.
    for var in range(1, 6):
        if solver.solve(assumptions=[var]):
            assert solver.model_value(var)
        if solver.solve(assumptions=[-var]):
            assert not solver.model_value(var)
    assert solver.stats.deleted_clauses > 0 or solver.stats.conflicts < 10


# ---------------------------------------------------------------------------
# Search identity: the counters below were recorded before the propagation,
# heap and value-table internals were last rewritten.  A change to the
# solver's speed must leave them exactly as they are; a change to its
# heuristics has to re-record them on purpose.  The free-domain IC3 rows
# also pin which queries the IC3 search issues (mutex takes the trusted
# symmetry path, the ring the checked one), so a change to its lemma
# strategy re-records those rows too.
# ---------------------------------------------------------------------------

_PINNED_FIELDS = ("conflicts", "decisions", "propagations", "learned_clauses", "restarts")


def _pigeonhole_stats():
    solver = Solver()
    pigeon = {(i, j): solver.new_var() for i in range(6) for j in range(5)}
    for i in range(6):
        solver.add_clause([pigeon[(i, j)] for j in range(5)])
    for j in range(5):
        for first in range(6):
            for second in range(first + 1, 6):
                solver.add_clause([-pigeon[(first, j)], -pigeon[(second, j)]])
    assert not solver.solve()
    return solver.stats.as_dict()


def _random_3cnf_stats(seed):
    solver = _solver_for(random_3cnf(random.Random(seed), 60, 256))
    solver.solve()
    return solver.stats.as_dict()


def _bmc_buggy_mutex_stats():
    from repro.mc.bmc import BoundedModelChecker
    from repro.systems.mutex import build_mutex, mutex_safety

    checker = BoundedModelChecker(build_mutex(4, buggy=True))
    assert not checker.check(mutex_safety(4))
    return checker.stats()


def _ic3_mutex_stats():
    from repro.mc.ic3 import IC3ModelChecker
    from repro.systems.mutex import build_mutex, mutex_safety

    checker = IC3ModelChecker(build_mutex(4))
    assert checker.check(mutex_safety(4))
    return checker.stats()


def _ic3_free_mutex_stats():
    from repro.mc.ic3 import IC3ModelChecker
    from repro.systems.mutex import mutex_safety, symbolic_mutex

    checker = IC3ModelChecker(symbolic_mutex(4, domain="free"))
    assert checker.check(mutex_safety(4))
    return checker.stats()


def _ic3_free_ring_stats():
    from repro.mc.ic3 import IC3ModelChecker
    from repro.systems.token_ring import ring_mutual_exclusion, symbolic_token_ring

    checker = IC3ModelChecker(symbolic_token_ring(4, domain="free"))
    assert checker.check(ring_mutual_exclusion(4))
    return checker.stats()


@pytest.mark.parametrize(
    "run, expected",
    [
        pytest.param(_pigeonhole_stats, (155, 201, 1790, 150, 1), id="php-6-5"),
        pytest.param(lambda: _random_3cnf_stats(0), (86, 97, 1607, 77, 0), id="3cnf-seed0"),
        pytest.param(lambda: _random_3cnf_stats(1), (29, 45, 530, 29, 0), id="3cnf-seed1"),
        pytest.param(lambda: _random_3cnf_stats(2), (134, 155, 1835, 129, 1), id="3cnf-seed2"),
        pytest.param(lambda: _random_3cnf_stats(3), (93, 108, 1664, 93, 0), id="3cnf-seed3"),
        pytest.param(lambda: _random_3cnf_stats(4), (56, 88, 876, 54, 0), id="3cnf-seed4"),
        pytest.param(_bmc_buggy_mutex_stats, (201, 355, 50982, 198, 1), id="bmc-buggy-mutex-4"),
        pytest.param(_ic3_mutex_stats, (0, 0, 138, 0, 0), id="ic3-mutex-4"),
        pytest.param(_ic3_free_mutex_stats, (114, 320, 7773, 108, 0), id="ic3-free-mutex-4"),
        pytest.param(_ic3_free_ring_stats, (157, 319, 11196, 149, 0), id="ic3-free-ring-4"),
    ],
)
def test_search_is_pinned(run, expected):
    stats = run()
    assert tuple(stats[field] for field in _PINNED_FIELDS) == expected


# ---------------------------------------------------------------------------
# Solver.clone
# ---------------------------------------------------------------------------


def _loaded(seed=7, num_vars=40, num_clauses=160):
    return _solver_for(random_3cnf(random.Random(seed), num_vars, num_clauses))


def test_clone_shares_no_mutable_state():
    source = _loaded()
    source.solve()
    twin = source.clone()
    assert vars(twin).keys() == vars(source).keys()
    for name, value in vars(source).items():
        if isinstance(value, (list, dict)):
            assert vars(twin)[name] is not value, name
    assert twin.stats is not source.stats
    assert twin._order._heap is not source._order._heap
    assert twin._order._position is not source._order._position
    assert twin._order._activity is twin._activity
    source_clauses = {id(clause) for clause in source._clauses + source._learnts}
    twin_clauses = twin._clauses + twin._learnts
    assert not source_clauses & {id(clause) for clause in twin_clauses}
    for watchers in twin._watches:
        for clause in watchers[1::2]:
            assert id(clause) not in source_clauses


def test_clone_clauses_never_reach_source_or_sibling():
    source = Solver()
    x, y, z = (source.new_var() for _ in range(3))
    source.add_clause([x, y])
    first, second = source.clone(), source.clone()
    first.add_clause([-x])
    first.add_clause([-y, z])
    assert not first.solve(assumptions=[-z])
    for other in (source, second):
        assert other.solve(assumptions=[-x, -z])
        assert other.model_value(y)
        assert other.num_clauses == 1
    second.add_clause([-y])
    assert first.solve()
    assert first.model_value(y) and first.model_value(z)


def test_solving_a_clone_leaves_the_source_untouched():
    source = _loaded()

    def snapshot(solver):
        return (
            list(solver._values),
            list(solver._trail),
            solver._trail_lim == [],
            solver.stats.as_dict(),
            [list(clause.lits) for clause in solver._clauses],
            [list(watchers[0::2]) for watchers in solver._watches],
            list(solver._activity),
            list(solver._order._heap),
        )

    before = snapshot(source)
    twin = source.clone()
    twin.solve()
    twin.solve(assumptions=[1, -2, 3])
    twin.add_clause([4, 5])
    assert twin.stats.conflicts > 0
    assert snapshot(source) == before


def test_clone_searches_exactly_like_a_freshly_loaded_solver():
    cnf = random_3cnf(random.Random(11), 50, 205)
    fresh = _solver_for(cnf)
    twin = _solver_for(cnf).clone()
    rng = random.Random(3)
    for round_number in range(30):
        assumptions = [
            var if rng.random() < 0.5 else -var for var in rng.sample(range(1, 51), k=4)
        ]
        verdicts = [solver.solve(assumptions) for solver in (fresh, twin)]
        assert verdicts[0] == verdicts[1]
        if verdicts[0]:
            assert fresh.model() == twin.model()
        else:
            assert fresh.unsat_core() == twin.unsat_core()
        assert fresh.stats == twin.stats
        if round_number % 5 == 4:
            extra = [var if rng.random() < 0.5 else -var for var in rng.sample(range(1, 51), k=3)]
            fresh.add_clause(extra)
            twin.add_clause(extra)


def test_clone_proof_certifies_its_unsat_answer():
    source = Solver()
    pigeon = {(i, j): source.new_var() for i in range(4) for j in range(3)}
    for i in range(4):
        source.add_clause([pigeon[(i, j)] for j in range(3)])
    twin = source.clone()
    log = twin.start_proof()
    for j in range(3):
        for first in range(4):
            for second in range(first + 1, 4):
                twin.add_clause([-pigeon[(first, j)], -pigeon[(second, j)]])
    assert not twin.solve()
    assert check_proof(log)["unsat_checks"] == 1
    assert source.proof is None and source.solve()


def test_clone_refused_with_a_proof_log_or_above_level_zero():
    solver = Solver()
    solver.add_clause([1, 2])
    solver.start_proof()
    with pytest.raises(SatError, match="proof log"):
        solver.clone()
    solver.stop_proof()
    solver._trail_lim.append(len(solver._trail))  # as if mid-search
    with pytest.raises(SatError, match="decision level 0"):
        solver.clone()
