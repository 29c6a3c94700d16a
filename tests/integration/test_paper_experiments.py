"""The paper's experiments E1–E10, each body run once.

Each test regenerates one figure or claim: Fig. 3.1's correspondence and
degrees (E1), the Fig. 4.1 counting formula (E2), the next-time counting
example (E3), Fig. 5.1 (E4), the Section 5 invariants and properties across
ring sizes (E5, E6), the refutation of the literal ``M_2``-vs-``M_r`` claim
and the corrected ``M_3`` base case (E7), the state explosion that
correspondence avoids (E8), the Section 6 nesting conjecture (E9) and the
decision algorithm as the large instance grows (E10).  Wall time is
measured by the repo benchmark (``perfbench/run.py``), not here.
"""

import pytest

from repro.analysis import experiments
from repro.analysis.explosion import token_ring_explosion_sweep
from repro.correspondence import (
    correspondence_violations,
    find_correspondence,
    verify_index_relation,
)
from repro.kripke import reduce_to_index
from repro.mc import ICTLStarModelChecker
from repro.systems import barrier, figures, round_robin, token_ring

# -- E1: Fig. 3.1 ------------------------------------------------------------


def test_e1_fig31_correspondence(fig31_pair):
    left, right = fig31_pair
    relation = find_correspondence(left, right)
    assert relation is not None
    assert relation.degree("s1", "s1'''") == 0
    assert relation.degree("s1", "s1'") == 2


def test_e1_fig31_full_experiment():
    report = experiments.run_e1_fig31()
    assert report["corresponds"]
    assert report["all_agree"]
    assert report["degree_exact_match"] == 0
    assert report["degree_two_steps"] == 2


# -- E2: Fig. 4.1, the counting formula --------------------------------------


def test_e2_fig41_counting_table():
    report = experiments.run_e2_fig41(4)
    assert report["counting_matches_size"]
    assert report["depth1_is_restricted"]
    assert report["nested_formula_rejected_by_restrictions"]


def test_e2_fig41_depth3_on_four_processes():
    checker = ICTLStarModelChecker(figures.fig41_network(4), enforce_restrictions=False)
    assert checker.check(figures.fig41_counting_formula(3)) is True


# -- E3: the Section 2 next-time counting example ----------------------------


def test_e3_nexttime_counting_sweep():
    report = experiments.run_e3_nexttime((1, 2, 3, 4, 5, 6))
    assert report["holds_only_when_size_divides_3"]
    assert report["holds"][3] is True
    assert report["holds"][4] is False


def test_e3_nexttime_on_the_three_ring():
    ring = figures.circulating_token_ring(3)
    checker = ICTLStarModelChecker(ring, enforce_restrictions=False)
    assert checker.check(figures.nexttime_counting_formula(3)) is True


# -- E4: Fig. 5.1 ------------------------------------------------------------


def test_e4_build_two_process_ring():
    structure = token_ring.build_token_ring(2)
    assert structure.num_states == 8
    assert structure.num_transitions == 14
    assert structure.is_total()


def test_e4_fig51_experiment():
    report = experiments.run_e4_fig51()
    assert report["num_states"] == 8
    assert report["num_transitions"] == 14
    assert report["partition_invariant"]
    assert report["initial_out_degree"] == 2


# -- E5, E6: the Section 5 invariants and properties -------------------------


def test_e5_invariant_sweep():
    assert experiments.run_e5_invariants((2, 3, 4))["all_hold"]


def test_e5_one_token_on_m4(ring4):
    assert ICTLStarModelChecker(ring4).check(token_ring.invariant_one_token()) is True


def test_e5_request_persistence_on_m4(ring4):
    checker = ICTLStarModelChecker(ring4)
    assert checker.check(token_ring.invariant_request_persistence()) is True


def test_e6_property_sweep():
    assert experiments.run_e6_properties((2, 3, 4))["all_hold"]


def test_e6_eventual_entry_on_m5(ring5):
    assert ICTLStarModelChecker(ring5).check(token_ring.property_eventual_entry()) is True


def test_e6_token_only_on_request_on_m5(ring5):
    checker = ICTLStarModelChecker(ring5)
    assert checker.check(token_ring.property_token_only_on_request()) is True


def test_e6_all_properties_on_the_base_ring(ring3):
    checker = ICTLStarModelChecker(ring3)
    results = {
        name: checker.check(formula) for name, formula in token_ring.ring_properties().items()
    }
    assert all(results.values())


# -- E7: correspondence between rings ----------------------------------------


def test_e7_paper_claim_is_refuted(ring2, ring4):
    report = verify_index_relation(ring2, ring4, token_ring.section5_index_relation(4))
    assert not report.holds
    assert (1, 1) in report.failing_pairs


def test_e7_corrected_base_corresponds(ring3, ring4):
    report = verify_index_relation(ring3, ring4, token_ring.corrected_index_relation(3, 4))
    assert report.holds


def test_e7_single_reduction_pair(ring3, ring5):
    relation = find_correspondence(reduce_to_index(ring3, 1), reduce_to_index(ring5, 1))
    assert relation is not None


def test_e7_explicit_relation_validation(ring2, ring4):
    relation = token_ring.section5_correspondence(ring2, ring4, 1, 1)
    left = reduce_to_index(ring2, 1)
    right = reduce_to_index(ring4, 1)
    # The reproduction's documented finding: the paper's relation is not a
    # correspondence relation (the appendix case analysis has a gap).
    assert correspondence_violations(left, right, relation)


# -- E8: state explosion -----------------------------------------------------


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_e8_direct_checking_grows_with_size(size, request):
    structure = request.getfixturevalue("ring%d" % size)
    checker = ICTLStarModelChecker(structure)
    assert all(checker.check_batch(token_ring.ring_properties()).values())


def test_e8_build_cost_sweep():
    sizes = [point.num_states for point in token_ring_explosion_sweep([2, 3, 4, 5])]
    assert sizes == sorted(sizes)
    assert sizes[-1] > 10 * sizes[0]


def test_e8_base_instance_check_is_small(ring3):
    checker = ICTLStarModelChecker(ring3)
    assert all(checker.check_batch(token_ring.ring_properties()).values())


# -- E9: the Section 6 nesting conjecture ------------------------------------


def test_e9_conjecture_sweep():
    report = experiments.run_e9_conjecture(4, 3)
    assert report["conjecture_holds_on_family"]
    # Depth k distinguishes k-1 from k components...
    assert report["rows"][1][2] is False and report["rows"][2][2] is True
    # ... but not k from anything larger.
    assert report["rows"][3][2] == report["rows"][4][2] == report["rows"][2][2]


def test_e9_free_product_checking_cost():
    checker = ICTLStarModelChecker(figures.fig41_network(5), enforce_restrictions=False)
    assert checker.check(figures.fig41_counting_formula(2)) is True


# -- E10: the decision algorithm as the large instance grows -----------------


@pytest.mark.parametrize("size", [3, 4, 5])
def test_e10_ring_reduction_scaling(size, ring3, request):
    left = reduce_to_index(ring3, 1)
    right = reduce_to_index(request.getfixturevalue("ring%d" % size), 1)
    assert find_correspondence(left, right) is not None


@pytest.mark.parametrize("size", [4, 8, 12])
def test_e10_round_robin_scaling(size):
    small = reduce_to_index(round_robin.build_round_robin(2), 1)
    large = reduce_to_index(round_robin.build_round_robin(size), 1)
    assert find_correspondence(small, large) is not None


@pytest.mark.parametrize("size", [3, 4, 5])
def test_e10_barrier_scaling(size):
    small = reduce_to_index(barrier.build_barrier(2), 1)
    large = reduce_to_index(barrier.build_barrier(size), 1)
    assert find_correspondence(small, large) is not None
