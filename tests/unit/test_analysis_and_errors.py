"""Unit tests for the analysis helpers and the error hierarchy."""

from repro import errors
from repro.analysis.explosion import sample_large_ring_correspondence, token_ring_explosion_sweep
from repro.analysis.timing import timed_call


def test_error_hierarchy_is_rooted_at_repro_error():
    leaf_errors = [
        errors.FormulaError,
        errors.ParseError,
        errors.FragmentError,
        errors.RestrictionError,
        errors.StructureError,
        errors.ValidationError,
        errors.ModelCheckingError,
        errors.CorrespondenceError,
        errors.CompositionError,
    ]
    for error_type in leaf_errors:
        assert issubclass(error_type, errors.ReproError)
    assert issubclass(errors.ParseError, errors.FormulaError)
    assert issubclass(errors.ValidationError, errors.StructureError)
    assert issubclass(errors.RestrictionError, errors.FormulaError)


def test_parse_error_carries_position():
    error = errors.ParseError("bad", position=7)
    assert error.position == 7
    assert errors.ParseError("bad").position is None


def test_timed_call_returns_value_and_duration():
    result = timed_call(sum, [1, 2, 3])
    assert result.value == 6
    assert result.seconds >= 0.0


def test_explosion_sweep_reports_growth():
    points = token_ring_explosion_sweep([2, 3])
    assert [point.size for point in points] == [2, 3]
    assert points[0].num_states == 8
    assert points[1].num_states == 24
    assert points[1].num_states > points[0].num_states
    assert all(point.results for point in points)
    assert all(value for point in points for value in point.results.values())


def test_explosion_sweep_accepts_custom_formulas():
    from repro.systems import token_ring

    points = token_ring_explosion_sweep([2], formulas={"one_token": token_ring.invariant_one_token()})
    assert points[0].results == {"one_token": True}


def test_large_ring_spot_check_never_builds_the_graph():
    counters = sample_large_ring_correspondence(50, num_walks=3, walk_length=10, seed=1)
    assert counters["visited"] == 30
    assert counters["paired"] == counters["visited"]
    assert counters["partition_ok"] == counters["visited"]


def test_large_ring_spot_check_at_1000_processes():
    """The paper's "1000 processes" claim, on the fly: the ring is never built."""
    counters = sample_large_ring_correspondence(1000, num_walks=5, walk_length=20, seed=7)
    assert counters["visited"] == counters["paired"] == counters["partition_ok"]


def test_large_ring_spot_check_is_deterministic_for_a_seed():
    first = sample_large_ring_correspondence(20, num_walks=2, walk_length=8, seed=42)
    second = sample_large_ring_correspondence(20, num_walks=2, walk_length=8, seed=42)
    assert first == second


def test_experiment_drivers_quick_subset():
    from repro.analysis import experiments

    e1 = experiments.run_e1_fig31()
    assert e1["corresponds"] and e1["all_agree"]
    assert e1["degree_exact_match"] == 0 and e1["degree_two_steps"] == 2

    e3 = experiments.run_e3_nexttime(sizes=(2, 3, 4))
    assert e3["holds"] == {2: False, 3: True, 4: False}

    e4 = experiments.run_e4_fig51()
    assert e4["num_states"] == 8 and e4["num_transitions"] == 14

    e5 = experiments.run_e5_invariants(sizes=(2, 3))
    assert e5["all_hold"]

    e9 = experiments.run_e9_conjecture(max_size=3, max_depth=2)
    assert e9["conjecture_holds_on_family"]

    e11 = experiments.run_e11_fairness(sizes=(2, 3), symbolic_sizes=(4,))
    assert e11["unfair_fails_everywhere"]
    assert e11["fair_holds_everywhere"]
    assert e11["engines_agree"]
    assert e11["counterexample_valid"]
