"""Engine verdicts at scale, each body run once.

Every engine decides the Section 5 ring; the direct BDD encodings are
checked beyond the explicit range (up to r = 20, twenty million states);
the SAT engines refute the seeded bugs and prove the invariants they can,
next to the BDD engine on the same families.  Exact counts (``r·2^r``
reachable states, counterexample depths, "proved by 1-induction"), the
peak-live-node ceilings, the r = 12 work ceilings, the IC3 work ceilings,
the SAT conflict ceilings, the counter-18 peak ceiling, the node-table
pins and the relation fingerprints are deterministic, so they gate
regressions without timing anything; wall time is measured by the repo
benchmark (``perfbench/run.py``).
"""

import pytest

import repro.bdd.sanitize as bdd_sanitize
from repro.analysis.explosion import symbolic_token_ring_explosion_sweep
from repro.errors import FragmentError
from repro.kripke.paths import is_path
from repro.logic.builders import exactly_one
from repro.mc import (
    BoundedModelChecker,
    IC3ModelChecker,
    ICTLStarModelChecker,
    SymbolicCTLModelChecker,
    counterexample_ag,
)
from repro.mc.bitset import BitsetCTLModelChecker
from repro.systems import counter, mutex, token_ring

# -- every CTL engine on the Section 5 ring --------------------------------


@pytest.mark.parametrize("size", [4, 6])
@pytest.mark.parametrize("engine", ["bitset", "naive", "bdd"])
def test_every_engine_decides_the_ring_properties(engine, size, request):
    """The explicit engines on M_r, the bdd engine on its direct encoding."""
    if engine == "bdd":
        checker = SymbolicCTLModelChecker(token_ring.symbolic_token_ring(size))
    else:
        structure = request.getfixturevalue("ring%d" % size)
        checker = ICTLStarModelChecker(structure, engine=engine)
    assert all(checker.check_batch(token_ring.ring_properties()).values())


@pytest.mark.parametrize("size", [4, 6])
@pytest.mark.parametrize("engine", ["bitset", "naive"])
def test_fair_liveness_family_on_both_explicit_engines(engine, size, request):
    """Both independent SCC-restricted fair-EG fixpoints decide the family."""
    structure = request.getfixturevalue("ring%d" % size)
    constraint = token_ring.ring_scheduler_fairness(size)
    checker = ICTLStarModelChecker(structure, engine=engine, fairness=constraint)
    assert all(checker.check_batch(token_ring.fair_ring_properties()).values())


def test_fair_eventual_token_on_the_direct_bdd_ring8():
    """The Emerson–Lei fixpoint beyond the explicit sizes above."""
    checker = SymbolicCTLModelChecker(
        token_ring.symbolic_token_ring(8), fairness=token_ring.ring_scheduler_fairness(8)
    )
    assert checker.check(token_ring.property_eventual_token())


@pytest.mark.parametrize("size", [4, 6])
def test_bitset_ring_verdicts_match_the_bdd_engine(size, request):
    """The bitset engine on M_r and the bdd engine on its direct encoding."""
    properties = token_ring.ring_properties()
    explicit = ICTLStarModelChecker(request.getfixturevalue("ring%d" % size), engine="bitset")
    symbolic = SymbolicCTLModelChecker(token_ring.symbolic_token_ring(size))
    verdicts = explicit.check_batch(properties)
    assert all(verdicts.values())
    assert symbolic.check_batch(properties) == verdicts


def test_symbolic_verdicts_match_bitset_at_r5(ring5):
    """Properties and invariants (incl. the one-token Θ) agree where both run."""
    family = {**token_ring.ring_properties(), **token_ring.ring_invariants()}
    explicit = ICTLStarModelChecker(ring5, engine="bitset").check_batch(family)
    symbolic = SymbolicCTLModelChecker(token_ring.symbolic_token_ring(5)).check_batch(family)
    assert symbolic == explicit


# -- the bdd engine beyond the explicit range ------------------------------

#: Peak-live-node regression ceilings for the explosion sweep (the core
#: peaked at ~65k/~430k on these sizes when they were set).
_PEAK_NODE_CEILING = {12: 170_000, 16: 450_000, 20: 1_000_000}


@pytest.mark.parametrize("size", [12, 16, 20])
def test_symbolic_ring_beyond_the_explicit_range(size):
    [point] = symbolic_token_ring_explosion_sweep([size])
    assert all(point.results.values())
    # The holder is any of r processes in T or C and every other process is
    # independently in N or D, giving r * 2^r reachable states.
    assert point.num_states == size * 2 ** size
    assert point.peak_nodes <= _PEAK_NODE_CEILING[size], (
        "peak live nodes regressed past the ceiling: %d > %d"
        % (point.peak_nodes, _PEAK_NODE_CEILING[size])
    )


def test_fair_af_family_at_r20():
    """``∧_i AF t_i`` fails unfairly and holds under twenty fairness conditions."""
    size = 20
    formula = token_ring.property_eventual_token()
    structure = token_ring.symbolic_token_ring(size)
    unfair = SymbolicCTLModelChecker(structure).check(formula)
    fair = SymbolicCTLModelChecker(
        structure, fairness=token_ring.ring_scheduler_fairness(size)
    ).check(formula)
    assert not unfair and fair
    assert structure.manager.stats().peak_live_nodes <= _PEAK_NODE_CEILING[size]


#: BDD work of the r = 12 property batch when the ceilings were set.  The
#: counts are deterministic (independent of hash seed and machine load), so
#: unlike a wall-clock race they do not flake.
_R12_WORK = {"peak_live_nodes": 30_611, "relprod_misses": 9_739, "ite_misses": 33_165}

#: Headroom over ``_R12_WORK`` before the ceiling fails.
_WORK_MARGIN = 1.25


def test_symbolic_ring12_work_ceilings():
    structure = token_ring.symbolic_token_ring(12)
    verdicts = SymbolicCTLModelChecker(structure).check_batch(token_ring.ring_properties())
    assert all(verdicts.values())
    stats = structure.manager.stats()
    misses = {cache.name: cache.misses for cache in stats.caches}
    work = {
        "peak_live_nodes": stats.peak_live_nodes,
        "relprod_misses": misses["relprod"],
        "ite_misses": misses["ite"],
    }
    for name, baseline in _R12_WORK.items():
        ceiling = int(baseline * _WORK_MARGIN)
        assert work[name] <= ceiling, "%s regressed: %d > %d" % (name, work[name], ceiling)


#: IC3 work over the whole CLI property family, summed per checker, before
#: blocked cubes were seeded along their symmetry orbit: (obligations,
#: generalization queries).  Seeding must at least halve both.
_IC3_FAMILY_WORK = {
    "mutex-12": (mutex.mutex_family, mutex.symbolic_mutex, 12, (168, 332)),
    "ring-8": (token_ring.ring_family, token_ring.symbolic_token_ring, 8, (148, 298)),
}


@pytest.mark.parametrize("name", sorted(_IC3_FAMILY_WORK))
def test_ic3_symmetry_work_ceilings(name):
    family_of, build, size, (obligations, queries) = _IC3_FAMILY_WORK[name]
    family, _ = family_of(size, False)
    checker = IC3ModelChecker(build(size, domain="free"))
    for formula in family.values():
        try:
            assert checker.check(formula)
        except FragmentError:
            continue  # liveness: outside the IC3 fragment
    stats = checker.stats()
    assert stats["obligations"] <= obligations // 2, stats
    assert stats["generalization_queries"] <= queries // 2, stats


#: SAT conflicts over the whole CLI property family, summed per checker,
#: when each BDD node was lowered to its four defining clauses only.  The
#: two redundant ITE clauses must cut them to at most 60 %.
_SAT_FAMILY_CONFLICTS = {
    "bmc-buggy-ring-12": (
        BoundedModelChecker, token_ring.ring_family, token_ring.symbolic_token_ring, True, 1087
    ),
    "ic3-mutex-12": (IC3ModelChecker, mutex.mutex_family, mutex.symbolic_mutex, False, 2033),
}


@pytest.mark.parametrize("name", sorted(_SAT_FAMILY_CONFLICTS))
def test_sat_conflict_ceilings(name):
    engine, family_of, build, buggy, conflicts = _SAT_FAMILY_CONFLICTS[name]
    family, _ = family_of(12, False)
    checker = engine(build(12, buggy=buggy, domain="free"))
    for formula in family.values():
        try:
            checker.check(formula)
        except FragmentError:
            continue  # liveness: outside the SAT engines' fragment
    stats = checker.stats()
    assert stats["conflicts"] <= conflicts * 60 // 100, stats


#: The node table each direct encoding leaves behind: the initial-state and
#: reachable-domain edges, ``len(manager)`` and the peak live-node count.
#: Allocation order fixes every node index, so these are exact; a kernel
#: change that keeps the work the same keeps them all, and so does a
#: relabelling of the variables that keeps their order.
_NODE_TABLE_PINS = {
    "ring-6": (lambda: token_ring.symbolic_token_ring(6), (5688, 7252, 3677, 3677)),
    "mutex-5": (lambda: mutex.symbolic_mutex(5), (1712, 2418, 1219, 1219)),
    "counter-8": (lambda: counter.symbolic_counter(8), (756, 2895, 1572, 1572)),
}


@pytest.mark.parametrize("name", sorted(_NODE_TABLE_PINS))
def test_node_table_pins(name):
    build, pins = _NODE_TABLE_PINS[name]
    structure = build()
    manager = structure.manager
    # Under REPRO_SANITIZE=1 the kernel sanitizer audits the whole build.
    bdd_sanitize.maybe_check_manager(manager)
    table = (
        structure.initial,
        structure.domain,
        len(manager),
        manager.stats().peak_live_nodes,
    )
    assert table == pins


#: Each direct encoding's relation, domain and initial state by function:
#: ``(node_count(T), |T| over current+next vars, node_count(D), |D| over
#: current vars, node_count(Init))``.  Canonical BDDs under the fixed
#: variable order make these independent of construction order and node
#: ids, so a change to how the relation is assembled must keep them all.
_RELATION_FINGERPRINTS = {
    "ring-3-correct-reachable": (77, 165, 4, 24, 6),
    "ring-3-correct-free": (77, 165, 0, 64, 6),
    "ring-3-buggy-reachable": (79, 213, 3, 56, 6),
    "ring-3-buggy-free": (79, 213, 0, 64, 6),
    "ring-6-correct-reachable": (218, 23118, 10, 384, 12),
    "ring-6-correct-free": (218, 23118, 0, 4096, 12),
    "ring-6-buggy-reachable": (220, 29262, 6, 4032, 12),
    "ring-6-buggy-free": (220, 29262, 0, 4096, 12),
    "ring-10-correct-reachable": (406, 10288930, 18, 10240, 20),
    "ring-10-correct-free": (406, 10288930, 0, 1048576, 20),
    "ring-10-buggy-reachable": (408, 12910370, 10, 1047552, 20),
    "ring-10-buggy-free": (408, 12910370, 0, 1048576, 20),
    "ring-14-correct-reachable": (594, 3735775862, 26, 229376, 28),
    "ring-14-correct-free": (594, 3735775862, 0, 268435456, 28),
    "ring-14-buggy-reachable": (596, 4675299958, 14, 268419072, 28),
    "ring-14-buggy-free": (596, 4675299958, 0, 268435456, 28),
    "mutex-3-correct-reachable": (67, 240, 12, 20, 7),
    "mutex-3-correct-free": (67, 240, 0, 128, 7),
    "mutex-3-buggy-reachable": (66, 288, 17, 45, 7),
    "mutex-3-buggy-free": (66, 288, 0, 128, 7),
    "mutex-5-correct-reachable": (123, 6400, 20, 112, 11),
    "mutex-5-correct-free": (123, 6400, 0, 2048, 11),
    "mutex-5-buggy-reachable": (122, 7680, 31, 453, 11),
    "mutex-5-buggy-free": (122, 7680, 0, 2048, 11),
    "mutex-12-correct-reachable": (319, 251658240, 48, 28672, 25),
    "mutex-12-correct-free": (319, 251658240, 0, 33554432, 25),
    "mutex-12-buggy-reachable": (318, 301989888, 80, 1058785, 25),
    "mutex-12-buggy-free": (318, 301989888, 0, 33554432, 25),
    "counter-4-correct-reachable": (21, 16, 4, 15, 4),
    "counter-4-correct-free": (21, 16, 0, 16, 4),
    "counter-4-buggy-reachable": (15, 16, 0, 16, 4),
    "counter-4-buggy-free": (15, 16, 0, 16, 4),
    "counter-8-correct-reachable": (49, 256, 8, 255, 8),
    "counter-8-correct-free": (49, 256, 0, 256, 8),
    "counter-8-buggy-reachable": (35, 256, 0, 256, 8),
    "counter-8-buggy-free": (35, 256, 0, 256, 8),
    "counter-14-correct-reachable": (91, 16384, 14, 16383, 14),
    "counter-14-correct-free": (91, 16384, 0, 16384, 14),
    "counter-14-buggy-reachable": (65, 16384, 0, 16384, 14),
    "counter-14-buggy-free": (65, 16384, 0, 16384, 14),
}

_FAMILY_BUILDERS = {
    "ring": token_ring.symbolic_token_ring,
    "mutex": mutex.symbolic_mutex,
    "counter": counter.symbolic_counter,
}


@pytest.mark.parametrize("name", sorted(_RELATION_FINGERPRINTS))
def test_relation_fingerprint(name):
    family, size, variant, domain = name.split("-")
    structure = _FAMILY_BUILDERS[family](
        int(size), buggy=variant == "buggy", domain=domain
    )
    manager = structure.manager
    bdd_sanitize.maybe_check_manager(manager)
    current = structure.current_vars
    both = current + tuple(var + 1 for var in current)
    fingerprint = (
        manager.node_count(structure.transition),
        manager.sat_count(structure.transition, both),
        manager.node_count(structure.domain),
        manager.sat_count(structure.domain, current),
        manager.node_count(structure.initial),
    )
    assert fingerprint == _RELATION_FINGERPRINTS[name]


# -- bmc: time-to-counterexample and k-induction ---------------------------

#: Falsification depth cap: the seeded bugs sit at depth 2 (ring) and 4
#: (mutex), so this is headroom, not a tuning knob.
_BOUND = 8


@pytest.mark.parametrize("size", [8, 12, 16])
def test_bdd_refutes_the_buggy_ring(size):
    structure = token_ring.symbolic_token_ring(size, buggy=True)
    assert not SymbolicCTLModelChecker(structure).check(token_ring.invariant_one_token())


@pytest.mark.parametrize("size", [8, 12, 16])
def test_bmc_refutes_the_buggy_ring_at_depth_2(size):
    structure = token_ring.symbolic_token_ring(size, buggy=True, domain="free")
    checker = BoundedModelChecker(structure, bound=_BOUND)
    assert not checker.check(token_ring.invariant_one_token())
    assert checker.last_counterexample is not None
    # Delay one process, let it jump the token queue.
    assert len(checker.last_counterexample) - 1 == 2


@pytest.mark.parametrize("size", [8, 12, 16])
def test_kinduction_proves_one_token_on_the_free_domain(size):
    structure = token_ring.symbolic_token_ring(size, domain="free")
    checker = BoundedModelChecker(structure, bound=_BOUND)
    assert checker.check(token_ring.invariant_one_token())
    assert checker.last_detail == "proved by 1-induction"


def test_bmc_refutes_the_buggy_mutex10_at_depth_4():
    structure = mutex.symbolic_mutex(10, buggy=True, domain="free")
    checker = BoundedModelChecker(structure, bound=_BOUND)
    assert not checker.check(mutex.mutex_safety(10))
    # Request, acquire, request, buggy acquire.
    assert len(checker.last_counterexample) - 1 == 4


def test_bmc_invariant_counterexample_matches_the_bitset_oracle():
    """The decoded SAT path is a real, minimal counterexample of the explicit ring."""
    size = 6
    explicit = token_ring.build_token_ring(size, buggy=True)
    structure = token_ring.symbolic_token_ring(size, buggy=True, domain="free")
    path = BoundedModelChecker(structure, bound=_BOUND).invariant_counterexample(
        exactly_one("t")
    )
    assert path is not None
    assert path[0] == explicit.initial_state
    assert is_path(explicit, path)
    assert not explicit.atom_holds(path[-1], exactly_one("t"))
    oracle = counterexample_ag(explicit, exactly_one("t"), engine="bitset")
    assert oracle is not None
    assert len(path) == len(oracle)


# -- ic3 vs bdd: unbounded proofs ------------------------------------------

_FAMILIES = {
    "mutex": (mutex.symbolic_mutex, mutex.mutex_safety),
    "ring": (token_ring.symbolic_token_ring, token_ring.ring_mutual_exclusion),
    "counter": (counter.symbolic_counter, counter.counter_nonzero),
}

#: Mutex safety (shallow, BDD-friendly), ring pairwise exclusion (not
#: k-inductive) and the saturating counter (a single path of 2^n - 2
#: steps: one clause for IC3, O(n) squaring steps for the bdd engine).
_PROOFS = [
    ("mutex", 4), ("mutex", 8), ("mutex", 12),
    ("ring", 4), ("ring", 6), ("ring", 8),
    ("counter", 10), ("counter", 14), ("counter", 18),
]


@pytest.mark.parametrize("family, size", _PROOFS)
def test_ic3_proof(family, size):
    """IC3 on the free domain: no reachability fixpoint anywhere."""
    build, prop = _FAMILIES[family]
    checker = IC3ModelChecker(build(size, domain="free"))
    assert checker.check(prop(size))
    assert checker.last_detail.startswith("ic3-invariant")


@pytest.mark.parametrize("family, size", _PROOFS)
def test_bdd_proof(family, size):
    """The bdd engine builds the reachable set first (by iterative squaring on counter)."""
    build, prop = _FAMILIES[family]
    assert SymbolicCTLModelChecker(build(size)).check(prop(size))


#: Peak live nodes of the counter-18 proof.  Frontier search, one image per
#: step of the 2^18 - 2 path, peaked at 1,706,818; iterative squaring peaks
#: at 9,147.
_COUNTER18_PEAK_CEILING = 20_000


def test_counter18_bdd_proof_peak_live_nodes():
    structure = counter.symbolic_counter(18)
    assert SymbolicCTLModelChecker(structure).check(counter.counter_nonzero(18))
    peak = structure.manager.stats().peak_live_nodes
    assert peak <= _COUNTER18_PEAK_CEILING, "peak live nodes %d" % peak


def test_ic3_verdicts_match_the_bitset_oracle_on_mutex3():
    size = 3
    for buggy in (False, True):
        checker = IC3ModelChecker(mutex.symbolic_mutex(size, buggy=buggy, domain="free"))
        verdict = checker.check(mutex.mutex_safety(size))
        oracle = BitsetCTLModelChecker(mutex.build_mutex(size, buggy=buggy))
        assert verdict == oracle.check(mutex.mutex_safety(size))
        assert verdict != buggy
        if not buggy:
            assert checker.certificate is not None
