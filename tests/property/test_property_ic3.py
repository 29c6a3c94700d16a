"""Differential property tests: the IC3/PDR engine against the bitset oracle.

Four properties:

* **verdict agreement** — on random total Kripke structures, the IC3 verdict
  for ``AG p`` / ``EF p`` (propositional ``p``) equals the bitset engine's.
  Unlike BMC there is no inconclusive case to filter: IC3 is unbounded, and
  the default frame ceiling is far beyond the diameter of a five-state
  structure;
* **counterexample validity** — every refutation decodes to a genuine path
  of the source structure, from the initial state to a ``¬p`` state;
* **certificate soundness** — every proof's :class:`InvariantCertificate` is
  re-verified here with *fresh* SAT solvers over a freshly built CNF
  transition template: each clause holds initially (initiation), the clause
  set is self-inductive under the transition relation (consecution), and it
  excludes every bad state with a successor (safety);
* **family agreement** — on the mutex protocol (non-buggy and buggy, random
  sizes) IC3 run over the free bit-pattern domain agrees with the bitset
  engine run on the explicit graph.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import ATOMS, kripke_structures

from repro.kripke.paths import is_path
from repro.logic.ast import And, Atom, Implies, Not, Or
from repro.logic.builders import AG, EF
from repro.mc.bitset import BitsetCTLModelChecker
from repro.mc.ic3 import IC3ModelChecker, _TransitionTemplate
from repro.systems import mutex


@st.composite
def propositional_formulas(draw, max_depth: int = 2):
    """A random propositional formula over ``ATOMS``."""
    if max_depth <= 0:
        return draw(st.sampled_from([Atom(name) for name in ATOMS]))
    choice = draw(st.integers(min_value=0, max_value=4))
    if choice == 0:
        return draw(st.sampled_from([Atom(name) for name in ATOMS]))
    sub = lambda: draw(propositional_formulas(max_depth=max_depth - 1))  # noqa: E731
    if choice == 1:
        return Not(sub())
    if choice == 2:
        return And(sub(), sub())
    if choice == 3:
        return Or(sub(), sub())
    return Implies(sub(), sub())


@given(
    structure=kripke_structures(max_states=5),
    body=propositional_formulas(),
)
@settings(max_examples=60, deadline=None)
def test_ic3_verdicts_agree_with_bitset(structure, body):
    bitset = BitsetCTLModelChecker(structure)
    ic3 = IC3ModelChecker(structure)
    for formula in (AG(body), EF(body)):
        assert ic3.check(formula) == bitset.check(formula), formula


@given(
    structure=kripke_structures(max_states=5),
    body=propositional_formulas(),
)
@settings(max_examples=60, deadline=None)
def test_ic3_counterexamples_decode_to_valid_paths(structure, body):
    checker = IC3ModelChecker(structure)
    if checker.check(AG(body)):
        return
    path = checker.last_counterexample
    assert path is not None
    assert path[0] == structure.initial_state
    assert is_path(structure, path)
    oracle = BitsetCTLModelChecker(structure)
    assert not oracle.check(body, state=path[-1])


@given(
    structure=kripke_structures(max_states=5),
    body=propositional_formulas(),
)
@settings(max_examples=60, deadline=None)
def test_ic3_certificates_reverify_with_fresh_solvers(structure, body):
    checker = IC3ModelChecker(structure)
    if not checker.check(AG(body)):
        return
    certificate = checker.certificate
    assert certificate is not None
    symbolic = checker.symbolic
    template = _TransitionTemplate(symbolic)
    num_bits = symbolic.num_bits

    def primed(literal):
        return literal + num_bits if literal > 0 else literal - num_bits

    # Initiation: no certificate clause excludes an initial state.
    init_solver = template.new_solver()
    init_literal = template.encode_state_set(init_solver, symbolic.initial, {})
    init_solver.add_clause((init_literal,))
    for cube in certificate.cubes:
        assert not init_solver.solve(list(cube)), "initiation violated"

    # Consecution: the clause set is self-inductive under the CNF transition
    # relation — and safety: it excludes every bad state with a successor.
    consecution = template.new_solver()
    for cube in certificate.cubes:
        consecution.add_clause(tuple(-literal for literal in cube))
    for cube in certificate.cubes:
        assert not consecution.solve(
            [primed(literal) for literal in cube]
        ), "consecution violated"
    # A fresh front end, so the property BDD is not the checker's cached one.
    front = IC3ModelChecker(structure, validate_structure=False)
    property_fn = front.propositional_fn(body)
    bad_fn = symbolic.function(symbolic.complement(property_fn.node))
    bad_literal = template.encode_state_set(consecution, bad_fn.node, {})
    assert not consecution.solve([bad_literal]), "safety violated"


@given(
    size=st.integers(min_value=1, max_value=4),
    buggy=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_ic3_agrees_with_bitset_on_the_mutex_family(size, buggy):
    explicit = mutex.build_mutex(size, buggy=buggy)
    oracle = BitsetCTLModelChecker(explicit)
    symbolic = mutex.symbolic_mutex(size, buggy=buggy, domain="free")
    checker = IC3ModelChecker(symbolic)
    formula = mutex.mutex_safety(size)
    assert checker.check(formula) == oracle.check(formula)
