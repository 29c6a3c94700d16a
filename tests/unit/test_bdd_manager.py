"""Unit tests for the complement-edge ROBDD manager and the BDDFunction wrapper.

Covers the invariants the symbolic engine relies on: canonical complement-edge
form (structural equality is edge-id equality, O(1) negation, regular high
edges), the unified ITE apply cache, quantification and relational products
against brute-force truth tables, order-preserving renaming with canonical
content-derived cache keys, satisfy-counting, mark-and-sweep garbage
collection driven by reference-counted handles, and bounded operation caches
with hit/miss/evict statistics.
"""

from itertools import product

import pytest

from repro.bdd import BDDFunction, BDDManager
from repro.errors import BDDError

LEVELS = (0, 1, 2)


def brute_force(function, levels=LEVELS):
    """The truth table of a BDDFunction as a frozenset of satisfying tuples."""
    return frozenset(
        values
        for values in product([False, True], repeat=len(levels))
        if function.evaluate(dict(zip(levels, values)))
    )


@pytest.fixture()
def manager():
    return BDDManager()


@pytest.fixture()
def abc(manager):
    return tuple(BDDFunction.variable(manager, level) for level in LEVELS)


# ---------------------------------------------------------------------------
# Canonical form (hash-consing + complement edges)
# ---------------------------------------------------------------------------


def test_same_function_built_differently_is_same_node(manager, abc):
    a, b, c = abc
    de_morgan_left = ~(a | b)
    de_morgan_right = ~a & ~b
    assert de_morgan_left.node == de_morgan_right.node
    assert de_morgan_left == de_morgan_right
    assert (a & b) | (a & c) == a & (b | c)


def test_negation_is_an_edge_flip(manager, abc):
    a, b, _ = abc
    f = (a & b) | (~a & ~b)
    before = len(manager)
    g = ~f
    # O(1): no node may be allocated by a complement.
    assert len(manager) == before
    assert g.node == f.node ^ 1
    assert ~g == f
    assert manager.negate(f.node) == f.node ^ 1


def test_reduction_rules(manager):
    for var in (0, 1, 2):  # _mk is the raw constructor; variables must exist
        manager.var(var)
    # Redundant test: mk(var, t, t) must collapse to t.
    v = manager.var(0)
    assert manager._mk(1, v, v) == v
    # Sharing: building the same triple twice yields the same edge.
    left = manager._mk(2, 0, 1)
    right = manager._mk(2, 0, 1)
    assert left == right
    # Complement normalization: a complemented high edge flips the result.
    assert manager._mk(2, 1, 0) == manager._mk(2, 0, 1) ^ 1


def test_high_edges_are_always_regular(manager, abc):
    a, b, c = abc
    _ = (a & b) | (b ^ c) | (~a & c)
    for var, table in enumerate(manager._subtables):
        for (lo, hi), node in table.items():
            assert hi & 1 == 0, "stored high edge must be regular"
            assert var < min(manager._varr[lo >> 1], manager._varr[hi >> 1])
        assert len(set(table.values())) == len(table)


def test_terminals_and_literals(manager):
    t = BDDFunction.true(manager)
    f = BDDFunction.false(manager)
    assert t.is_true and f.is_false
    assert (~t) == f and (~f) == t
    v = BDDFunction.variable(manager, 4)
    assert (v | ~v).is_true
    assert (v & ~v).is_false


# ---------------------------------------------------------------------------
# The unified ITE apply cache
# ---------------------------------------------------------------------------


def _ite_cache(manager):
    return [cache for cache in manager.stats().caches if cache.name == "ite"][0]


def test_apply_cache_hits_on_repeated_conjunction(manager, abc):
    a, b, c = abc
    f = (a | b) & (b | c)
    before = _ite_cache(manager).hits
    g = (a | b) & (b | c)  # same operands: every recursive step must hit
    assert g == f
    assert _ite_cache(manager).hits > before


def test_apply_cache_shared_across_expressions(manager, abc):
    a, b, c = abc
    lhs = (a & b) | c
    misses_before = _ite_cache(manager).misses
    rhs = (a & b) | c
    assert rhs == lhs
    # The second build re-resolves a & b from the cache without new misses.
    assert _ite_cache(manager).misses == misses_before


def test_apply_dispatcher_derived_ops(manager, abc):
    a, b, _ = abc
    assert manager.apply("imp", a.node, b.node) == (~a | b).node
    assert manager.apply("iff", a.node, b.node) == ((a & b) | (~a & ~b)).node
    assert manager.apply("diff", a.node, b.node) == (a & ~b).node
    with pytest.raises(BDDError):
        manager.apply("nand", a.node, b.node)


def test_bounded_cache_evicts_and_counts(manager, abc):
    small = BDDManager(cache_limit=8)
    vs = [BDDFunction.variable(small, i) for i in range(6)]
    f = vs[0]
    for v in vs[1:]:
        f = (f & v) | (~f & ~v)
    stats = {cache.name: cache for cache in small.stats().caches}
    assert stats["ite"].evictions > 0
    assert stats["ite"].size <= 8
    assert stats["ite"].misses > 0


# ---------------------------------------------------------------------------
# ite / restrict
# ---------------------------------------------------------------------------


def test_ite_matches_boolean_definition(manager, abc):
    a, b, c = abc
    assert a.ite(b, c) == (a & b) | (~a & c)
    assert a.ite(BDDFunction.true(manager), BDDFunction.false(manager)) == a


def test_restrict_is_cofactor(manager, abc):
    a, b, c = abc
    f = (a & b) | (~a & c)
    assert f.restrict(0, True) == b
    assert f.restrict(0, False) == c
    assert f.restrict(2, True).restrict(0, False).is_true


# ---------------------------------------------------------------------------
# Quantification and relational product
# ---------------------------------------------------------------------------


def test_exists_equals_or_of_cofactors(manager, abc):
    a, b, c = abc
    f = (a & b) | (b ^ c)
    assert f.exists([1]) == f.restrict(1, False) | f.restrict(1, True)
    assert f.forall([1]) == f.restrict(1, False) & f.restrict(1, True)


def test_exists_against_truth_table(manager, abc):
    a, b, c = abc
    f = (a | b) & (~b | c)
    quantified = f.exists([0, 2])
    for value in (False, True):
        expect = any(
            f.evaluate({0: x, 1: value, 2: z}) for x in (False, True) for z in (False, True)
        )
        assert quantified.evaluate({1: value}) == expect


def test_relprod_equals_unfused_quantified_conjunction(manager, abc):
    a, b, c = abc
    # Check the fused relational product against exists(f & g) for a grid of
    # operand shapes, including ones whose conjunction is constant.
    operands = [a & b, a | ~c, b ^ c, a.ite(b, c), ~a, BDDFunction.true(manager)]
    for f in operands:
        for g in operands:
            for cube in ([0], [1], [0, 1], [0, 1, 2], [2]):
                assert f.relprod(g, cube) == (f & g).exists(cube), (f, g, cube)


def test_rename_shifts_support(manager, abc):
    a, b, c = abc
    f = (a & b) | c
    shifted = f.rename({0: 10, 1: 11, 2: 12})
    assert shifted.support() == frozenset({10, 11, 12})
    assert brute_force(shifted, (10, 11, 12)) == brute_force(f)


def test_rename_rejects_order_violations(manager, abc):
    a, b, _ = abc
    with pytest.raises(BDDError):
        (a & b).rename({0: 5, 1: 3})


def test_rename_rejects_interleaving_with_unmapped_support(manager):
    # {0: 5} is trivially monotone on its own, but moving variable 0 past the
    # *unmapped* support variable 3 would build an unordered diagram.
    f = BDDFunction.variable(manager, 0) & BDDFunction.variable(manager, 3)
    with pytest.raises(BDDError):
        f.rename({0: 5})


def test_rename_cache_key_is_content_derived(manager, abc):
    """Semantically identical mappings share cache entries.

    The cache key is derived from the mapping's sorted content, so two equal
    mappings passed as distinct dict objects hit each other's entries.
    """
    a, b, c = abc
    f = (a & b) | c
    first = manager.rename(f.node, {0: 10, 1: 11, 2: 12})
    rename_stats = {cache.name: cache for cache in manager.stats().caches}["rename"]
    misses_before = rename_stats.hits + rename_stats.misses  # snapshot via counters
    hits_before = rename_stats.hits
    # A *different* dict object with the same content.
    second = manager.rename(f.node, {2: 12, 0: 10, 1: 11})
    assert second == first
    rename_stats = {cache.name: cache for cache in manager.stats().caches}["rename"]
    assert rename_stats.hits > hits_before
    assert rename_stats.hits + rename_stats.misses == misses_before + 1


def test_permute_accepts_what_rename_rejects(manager, abc):
    a, b, c = abc
    f = (a & ~b) | c
    swapped = f.permute({0: 1, 1: 0})  # order-reversing: rename raises here
    assert swapped == (b & ~a) | c
    permute_stats = {cache.name: cache for cache in manager.stats().caches}["permute"]
    assert permute_stats.misses > 0
    with pytest.raises(BDDError, match="not injective"):
        f.permute({0: 2, 1: 2})


# ---------------------------------------------------------------------------
# Counting, models, support
# ---------------------------------------------------------------------------


def test_sat_count_weights_free_variables(manager, abc):
    a, b, c = abc
    f = a & b
    assert f.sat_count([0, 1]) == 1
    assert f.sat_count([0, 1, 2]) == 2
    assert f.sat_count([0, 1, 2, 3, 4]) == 8
    assert BDDFunction.true(manager).sat_count(LEVELS) == 8
    assert BDDFunction.false(manager).sat_count(LEVELS) == 0


def test_sat_count_of_complemented_edges(manager, abc):
    a, b, c = abc
    f = (a & b) | (b ^ c)
    assert f.sat_count(LEVELS) + (~f).sat_count(LEVELS) == 8


def test_sat_count_requires_support_coverage(manager, abc):
    a, b, _ = abc
    with pytest.raises(BDDError):
        (a & b).sat_count([0])


def test_models_enumerate_exactly_the_satisfying_assignments(manager, abc):
    a, b, c = abc
    f = (a | b) & ~c
    models = list(f.models(LEVELS))
    assert len(models) == f.sat_count(LEVELS)
    assert len({tuple(sorted(m.items())) for m in models}) == len(models)
    for model in models:
        assert f.evaluate(model)


def test_support_and_size(manager, abc):
    a, _, c = abc
    f = a ^ c
    assert f.support() == frozenset({0, 2})
    assert f.size == manager.node_count(f.node)
    assert BDDFunction.true(manager).support() == frozenset()


def test_cube_builder(manager):
    cube = manager.cube({0: True, 2: False, 4: True})
    assert manager.evaluate(cube, {0: True, 2: False, 4: True})
    assert not manager.evaluate(cube, {0: True, 2: True, 4: True})
    assert manager.sat_count(cube, (0, 1, 2, 3, 4)) == 4


# ---------------------------------------------------------------------------
# Garbage collection and ManagerStats
# ---------------------------------------------------------------------------


def test_collect_reclaims_unreferenced_nodes_and_clears_caches(manager):
    vs = [BDDFunction.variable(manager, i) for i in range(8)]
    keep = (vs[0] & vs[1]) | (vs[2] ^ vs[3])
    keep_table = brute_force(keep, tuple(range(8)))
    # Build a pile of garbage whose handles die immediately.
    for i in range(7):
        _ = (vs[i] | ~vs[i + 1]) & (vs[0] ^ vs[i])
    live_before = len(manager)
    stats_before = manager.stats()
    assert any(cache.size for cache in stats_before.caches)
    freed = manager.collect()
    stats_after = manager.stats()
    assert freed > 0
    assert len(manager) < live_before
    # Caches are cleared automatically on GC.
    assert all(cache.size == 0 for cache in stats_after.caches)
    assert stats_after.gc_runs == stats_before.gc_runs + 1
    assert stats_after.gc_reclaimed >= freed
    # Externally referenced functions survive with identical semantics.
    assert brute_force(keep, tuple(range(8))) == keep_table


def test_handle_lifetime_drives_external_references(manager):
    v = BDDFunction.variable(manager, 0)
    w = BDDFunction.variable(manager, 1)
    f = v & w
    external_with = manager.stats().external_references
    node = f.node
    del f
    assert manager.stats().external_references < external_with
    # The dropped conjunction is garbage now; the literals are still held.
    manager.collect()
    assert manager.evaluate(v.node, {0: True})
    assert node  # silences the linter; the raw id is dead after collect()


def test_stats_snapshot_shape(manager, abc):
    a, b, _ = abc
    _ = a & b
    stats = manager.stats()
    assert stats.live_nodes == len(manager)
    assert stats.peak_live_nodes >= stats.live_nodes
    assert stats.num_vars == 3
    payload = stats.as_dict()
    assert set(payload["caches"]) == {"ite", "exists", "relprod", "rename", "restrict", "permute"}
    ite = [cache for cache in stats.caches if cache.name == "ite"][0]
    assert 0.0 <= ite.hit_rate <= 1.0


# ---------------------------------------------------------------------------
# Wrapper safety
# ---------------------------------------------------------------------------


def test_functions_from_different_managers_do_not_mix(manager, abc):
    other = BDDManager()
    foreign = BDDFunction.variable(other, 0)
    with pytest.raises(BDDError):
        abc[0] & foreign


def test_truthiness_is_rejected(abc):
    with pytest.raises(BDDError):
        bool(abc[0])


def test_evaluate_requires_support_coverage(manager, abc):
    a, b, _ = abc
    with pytest.raises(BDDError):
        (a & b).evaluate({0: True})
