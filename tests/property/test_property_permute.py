"""Property tests for general variable substitution, ``BDDManager.permute``.

Random functions on up to eight variables (drawn as truth tables, so every
function is equally likely) and random permutations of those variables:
the permuted diagram must evaluate like the original read through the
permutation, undo under the inverse permutation edge for edge, leave a
function alone under the identity, agree with the order-preserving
``rename`` wherever that applies.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDDFunction, BDDManager

NUM_VARS = 8


@st.composite
def functions_and_permutations(draw):
    """``(num_vars, truth_table, permutation)`` with ``permutation[v]`` = π(v)."""
    num_vars = draw(st.integers(min_value=1, max_value=NUM_VARS))
    table = draw(st.integers(min_value=0, max_value=(1 << (1 << num_vars)) - 1))
    permutation = draw(st.permutations(range(num_vars)))
    return num_vars, table, list(permutation)


def _build(manager, num_vars, table):
    """The function whose minterm ``m`` (bit ``v`` = variable ``v``) is in ``table``."""
    node = 0
    for minterm in range(1 << num_vars):
        if table >> minterm & 1:
            cube = manager.cube({var: bool(minterm >> var & 1) for var in range(num_vars)})
            node = manager.apply_or(node, cube)
    return BDDFunction(manager, node)


def _assignments(num_vars):
    for values in product([False, True], repeat=num_vars):
        yield dict(enumerate(values))


@given(case=functions_and_permutations())
@settings(max_examples=100, deadline=None)
def test_permute_evaluates_through_the_permutation(case):
    num_vars, table, permutation = case
    manager = BDDManager()
    function = _build(manager, num_vars, table)
    mapping = dict(enumerate(permutation))
    permuted = function.permute(mapping)
    for assignment in _assignments(num_vars):
        pulled_back = {var: assignment[mapping[var]] for var in range(num_vars)}
        assert permuted.evaluate(assignment) == function.evaluate(pulled_back)


@given(case=functions_and_permutations())
@settings(max_examples=100, deadline=None)
def test_inverse_permutation_restores_the_edge(case):
    num_vars, table, permutation = case
    manager = BDDManager()
    function = _build(manager, num_vars, table)
    mapping = dict(enumerate(permutation))
    inverse = {target: var for var, target in mapping.items()}
    assert function.permute(mapping).permute(inverse) == function


@given(case=functions_and_permutations())
@settings(max_examples=50, deadline=None)
def test_identity_map_returns_the_same_edge(case):
    num_vars, table, _ = case
    manager = BDDManager()
    function = _build(manager, num_vars, table)
    assert function.permute({var: var for var in range(num_vars)}) == function
    assert function.permute({}) == function


@given(
    case=functions_and_permutations(),
    targets=st.sets(
        st.integers(min_value=0, max_value=2 * NUM_VARS - 1),
        min_size=NUM_VARS,
        max_size=NUM_VARS,
    ),
)
@settings(max_examples=100, deadline=None)
def test_order_preserving_maps_agree_with_rename(case, targets):
    num_vars, table, _ = case
    manager = BDDManager()
    for var in range(2 * NUM_VARS):
        manager.var(var)
    function = _build(manager, num_vars, table)
    mapping = dict(zip(range(num_vars), sorted(targets)))
    assert function.permute(mapping) == function.rename(mapping)
