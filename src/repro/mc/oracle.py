"""A brute-force lasso oracle used to cross-validate the model checkers.

On a finite Kripke structure every satisfiable path property has an
*ultimately periodic* witness.  This module evaluates LTL path formulas
directly on lassos (``stem · cycle^ω``) and searches for simple-lasso
witnesses.  Because the search is restricted to lassos whose stem and cycle
are simple (no repeated states), finding a witness proves ``E g`` but failing
to find one does not refute it; the test-suite therefore uses the oracle as a
*one-sided* check against :mod:`repro.mc.ltl` together with exact agreement
tests on deterministic structures (where simple lassos are exhaustive).

Leaf formulas are decided per lasso position.  With ``engine="bitset"``
(the default) the structure is compiled once per search and leaves are read
off the compiled per-proposition bitmasks; ``engine="naive"`` keeps the
original per-state label-set lookups; ``engine="bdd"`` reads them off the
symbolic encoding's per-proposition BDDs.  The module also hosts
:func:`crosscheck_ctl_engines`, the differential-testing entry point that
replays a CTL formula through every satisfaction-set engine
(:data:`repro.mc.bitset.CTL_ENGINES`) and insists on identical satisfaction
sets.  The verdict-only SAT engines (``"bmc"``, ``"ic3"``) are outside
``CTL_ENGINES`` and get their own differential suites
(``tests/property/test_property_bmc.py`` / ``test_property_ic3.py``); see
``docs/ENGINES.md`` for the full registry.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import EngineDisagreementError, ModelCheckingError
from repro.kripke.compiled import compile_structure
from repro.kripke.paths import Lasso, enumerate_lassos
from repro.kripke.structure import KripkeStructure, State
from repro.logic.ast import (
    And,
    Atom,
    ExactlyOne,
    FalseLiteral,
    Formula,
    IndexedAtom,
    Next,
    Not,
    Or,
    TrueLiteral,
    Until,
    subformulas,
)
from repro.logic.syntax import is_ltl_path_formula
from repro.logic.transform import expand
from repro.mc.bitset import CTL_ENGINES, make_ctl_checker
from repro.mc.ltl import AtomEval

__all__ = [
    "lasso_satisfies",
    "find_lasso_witness",
    "simple_lasso_exists",
    "crosscheck_ctl_engines",
]

_LEAVES = (TrueLiteral, FalseLiteral, Atom, IndexedAtom, ExactlyOne)


def _make_atom_eval(
    structure: KripkeStructure,
    atom_eval: Optional[AtomEval],
    engine: str,
) -> AtomEval:
    """Resolve the leaf evaluator: explicit ``atom_eval`` wins, then the engine.

    A structure is stored as its bitset table, so repeated oracle calls
    against the same structure share one table.
    """
    if atom_eval is not None:
        return atom_eval
    if engine == "bitset":
        frozen = compile_structure(structure)

        def evaluate(state: State, leaf: Formula) -> bool:
            return bool(frozen.atom_mask(leaf) >> frozen.index_of(state) & 1)

        return evaluate
    if engine == "naive":
        return lambda state, leaf: structure.atom_holds(state, leaf)
    if engine == "bdd":
        from repro.kripke.symbolic import symbolic_structure

        encoded = symbolic_structure(structure)

        def evaluate_symbolic(state: State, leaf: Formula) -> bool:
            return encoded.holds_at(encoded.atom_node(leaf), state)

        return evaluate_symbolic
    raise ModelCheckingError(
        "unknown CTL engine %r; expected one of %s" % (engine, ", ".join(CTL_ENGINES))
    )


def lasso_satisfies(
    structure: KripkeStructure,
    lasso: Lasso,
    path_formula: Formula,
    atom_eval: AtomEval | None = None,
    engine: str = "bitset",
) -> bool:
    """Decide whether the infinite path represented by ``lasso`` satisfies ``path_formula``.

    The lasso is a finite object (stem plus cycle); satisfaction is computed
    with fixpoint iteration over its positions, which is exact because the
    path is deterministic from every position onward.
    """
    if not is_ltl_path_formula(path_formula):
        raise ModelCheckingError(
            "the lasso oracle evaluates pure path formulas; got %s" % path_formula
        )
    evaluate = _make_atom_eval(structure, atom_eval, engine)
    core = expand(path_formula)
    positions = lasso.positions()
    count = len(positions)
    successor = [lasso.successor_position(index) for index in range(count)]

    values: Dict[Formula, List[bool]] = {}
    for formula in subformulas(core):
        if isinstance(formula, TrueLiteral):
            values[formula] = [True] * count
        elif isinstance(formula, FalseLiteral):
            values[formula] = [False] * count
        elif isinstance(formula, _LEAVES):
            values[formula] = [evaluate(positions[index], formula) for index in range(count)]
        elif isinstance(formula, Not):
            operand = values[formula.operand]
            values[formula] = [not value for value in operand]
        elif isinstance(formula, And):
            left, right = values[formula.left], values[formula.right]
            values[formula] = [left[index] and right[index] for index in range(count)]
        elif isinstance(formula, Or):
            left, right = values[formula.left], values[formula.right]
            values[formula] = [left[index] or right[index] for index in range(count)]
        elif isinstance(formula, Next):
            operand = values[formula.operand]
            values[formula] = [operand[successor[index]] for index in range(count)]
        elif isinstance(formula, Until):
            left, right = values[formula.left], values[formula.right]
            # Least fixpoint of v[i] = right[i] or (left[i] and v[succ(i)]).
            current = [False] * count
            for _ in range(count + 1):
                updated = [
                    right[index] or (left[index] and current[successor[index]])
                    for index in range(count)
                ]
                if updated == current:
                    break
                current = updated
            values[formula] = current
        else:
            raise ModelCheckingError("unexpected operator in expanded formula: %r" % (formula,))
    return values[core][0]


def find_lasso_witness(
    structure: KripkeStructure,
    state: State,
    path_formula: Formula,
    atom_eval: AtomEval | None = None,
    max_stem: Optional[int] = None,
    max_cycle: Optional[int] = None,
    engine: str = "bitset",
) -> Optional[Lasso]:
    """Search for a simple lasso from ``state`` satisfying ``path_formula``.

    Returns the first witness found, or ``None`` when no *simple* lasso
    witness exists (which does not by itself refute ``E path_formula``).
    The structure is compiled once for the whole search when the bitset
    engine decides the leaves.
    """
    evaluate = _make_atom_eval(structure, atom_eval, engine)
    for lasso in enumerate_lassos(structure, state, max_stem=max_stem, max_cycle=max_cycle):
        if lasso_satisfies(structure, lasso, path_formula, evaluate):
            return lasso
    return None


def simple_lasso_exists(
    structure: KripkeStructure,
    state: State,
    path_formula: Formula,
    atom_eval: AtomEval | None = None,
    engine: str = "bitset",
) -> bool:
    """Return ``True`` when some simple lasso from ``state`` satisfies ``path_formula``."""
    return find_lasso_witness(structure, state, path_formula, atom_eval, engine=engine) is not None


def crosscheck_ctl_engines(
    structure: KripkeStructure,
    formula: Formula,
    validate_structure: bool = True,
    fairness=None,
):
    """Differential test: run ``formula`` through every CTL engine and compare.

    Replays the formula through all of :data:`repro.mc.bitset.CTL_ENGINES` —
    the compiled bitset engine, the naive frozenset oracle, and the symbolic
    BDD engine — and insists on identical satisfaction sets.  Returns the
    common satisfaction set; raises
    :class:`~repro.errors.EngineDisagreementError` when any two engines
    disagree, carrying the formula and each engine's satisfaction set so the
    property-based tests (and the parallel portfolio's late-loser audit) can
    report exactly which states differ.

    With ``fairness`` (a :class:`repro.mc.fairness.FairnessConstraint`) every
    engine decides the fairness-constrained semantics, which differentially
    tests the three independent fair-``EG`` implementations (two
    SCC-restricted explicit fixpoints, one Emerson–Lei symbolic fixpoint)
    against each other.
    """
    from repro.obs import metrics as _metrics
    from repro.obs.trace import span as _obs_span

    reference = None
    reference_engine = None
    _metrics.counter("oracle.crosschecks").inc()
    for engine in CTL_ENGINES:
        checker = make_ctl_checker(
            structure,
            engine=engine,
            validate_structure=validate_structure,
            fairness=fairness,
        )
        with _obs_span("oracle.crosscheck", engine=engine):
            result = checker.satisfaction_set(formula)
        if reference is None:
            reference, reference_engine = result, engine
        elif result != reference:
            raise EngineDisagreementError(
                "engines %r and %r disagree on %s: only-%s=%r, only-%s=%r"
                % (
                    reference_engine,
                    engine,
                    formula,
                    reference_engine,
                    sorted(reference - result, key=repr),
                    engine,
                    sorted(result - reference, key=repr),
                ),
                formula=formula,
                verdicts={
                    reference_engine: sorted(reference, key=repr),
                    engine: sorted(result, key=repr),
                },
            )
    return reference
