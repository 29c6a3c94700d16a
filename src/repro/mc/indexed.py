"""Model checking indexed CTL* (ICTL*) formulas on indexed Kripke structures.

For a *finite* index set ``I`` the semantics of the index quantifiers is just
a finite disjunction/conjunction: ``s ⊨ ∨_i f(i)`` iff ``s ⊨ f(c)`` for some
``c ∈ I``.  The checker therefore instantiates every quantifier over the
structure's index set and dispatches the resulting plain formula to the CTL
labelling algorithm when possible and to the full CTL* checker otherwise.
The ``Θ_i P_i`` ("exactly one") proposition is evaluated directly from the
structure's labels.

By default the checker *enforces* the Section 4 restrictions (closed, no
next-time, no nested index quantifiers, no index quantifiers inside until
operands).  The restrictions are what make the correspondence theorem of the
paper applicable — an unrestricted formula such as the Fig. 4.1 counting
formula can distinguish networks of different sizes, so verifying it on a
small instance says nothing about larger ones.  Pass
``enforce_restrictions=False`` to evaluate such formulas anyway (the Fig. 4.1
experiment does exactly this to demonstrate the problem).

Formulas whose instantiation lands in plain CTL — every property the paper
actually checks — are dispatched to an engine selected by the ``engine``
parameter, any name from :data:`repro.mc.bitset.ENGINE_NAMES` (the registry
documented engine-by-engine in ``docs/ENGINES.md``).  The fixpoint engines
(``"bitset"``, ``"naive"``, ``"bdd"``) compute satisfaction sets and decide
full CTL; the SAT-based engines (``"bmc"``, ``"ic3"``) expose
``supports_satisfaction_sets = False``, decide only the invariant fragment,
answer :meth:`~ICTLStarModelChecker.check` (never satisfaction *sets*), and
honour the ``bound`` parameter (unrolling depth for ``"bmc"``, frame
ceiling for ``"ic3"``).

A :class:`repro.mc.fairness.FairnessConstraint` passed as ``fairness=`` is
forwarded to the CTL engine, so restricted ICTL* formulas are decided under
the fairness-constrained semantics; formulas that need the CTL* fallback are
rejected when fairness is set (fair CTL* is not implemented).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Mapping, Optional, Union

from repro.errors import FragmentError
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import KripkeStructure, State
from repro.kripke.validation import assert_total
from repro.logic.ast import Formula, IndexExists, IndexForall, walk
from repro.logic.syntax import (
    assert_restricted_ictl,
    is_ctl,
    is_state_formula,
)
from repro.logic.transform import free_index_variables, instantiate_quantifiers
from repro.mc.bitset import SAT_ENGINES, make_ctl_checker
from repro.mc.ctlstar import CTLStarModelChecker
from repro.mc.fairness import FairnessConstraint, normalize_fairness

if TYPE_CHECKING:
    from repro.kripke.symbolic import SymbolicKripkeStructure

__all__ = [
    "ICTLStarModelChecker",
    "make_checker",
    "satisfaction_set",
    "check",
    "check_batch",
]


class ICTLStarModelChecker:
    """ICTL* model checker bound to one indexed Kripke structure."""

    def __init__(
        self,
        structure: IndexedKripkeStructure,
        enforce_restrictions: bool = True,
        validate_structure: bool = True,
        engine: str = "bitset",
        fairness: Optional[FairnessConstraint] = None,
        bound: Optional[int] = None,
    ) -> None:
        if validate_structure:
            assert_total(structure)
        self._structure = structure
        self._enforce_restrictions = enforce_restrictions
        self._engine = engine
        self._fairness = normalize_fairness(fairness)
        self._ctl = make_ctl_checker(
            structure,
            engine=engine,
            validate_structure=False,
            fairness=self._fairness,
            bound=bound,
        )
        self._ctlstar = CTLStarModelChecker(structure, validate_structure=False)
        self._cache: Dict[Formula, FrozenSet[State]] = {}

    @property
    def structure(self) -> IndexedKripkeStructure:
        """The indexed structure this checker operates on."""
        return self._structure

    @property
    def engine(self) -> str:
        """The engine in use (one of :data:`repro.mc.bitset.ENGINE_NAMES`)."""
        return self._engine

    @property
    def fairness(self) -> Optional[FairnessConstraint]:
        """The fairness constraint forwarded to the CTL engine (``None``: all paths)."""
        return self._fairness

    # -- public API ----------------------------------------------------------

    def satisfaction_set(self, formula: Formula) -> FrozenSet[State]:
        """Return the set of states satisfying the ICTL* formula ``formula``."""
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        if not getattr(self._ctl, "supports_satisfaction_sets", True):
            raise FragmentError(
                "engine %r decides single verdicts, not satisfaction sets; "
                "use check() or a fixpoint engine" % self._engine
            )
        self._validate_formula(formula)
        instantiated = instantiate_quantifiers(formula, self._structure.index_values)
        if self._is_plain_ctl(instantiated):
            result = self._ctl.satisfaction_set(instantiated)
        elif self._fairness is not None:
            raise FragmentError(
                "fairness-constrained checking is only implemented for the CTL "
                "fragment; %s instantiates outside CTL" % formula
            )
        else:
            result = self._ctlstar.satisfaction_set(instantiated)
        self._cache[formula] = result
        return result

    def check(self, formula: Formula, state: Optional[State] = None) -> bool:
        """Decide ``M, state ⊨ formula`` (default state: the initial state).

        Verdict-only engines (``supports_satisfaction_sets = False``, i.e.
        the SAT-based ``"bmc"`` and ``"ic3"``) are dispatched directly — the
        instantiated formula must then fall inside the engine's fragment.
        """
        if not getattr(self._ctl, "supports_satisfaction_sets", True):
            self._validate_formula(formula)
            instantiated = instantiate_quantifiers(formula, self._structure.index_values)
            return self._ctl.check(instantiated, state)
        target = self._structure.initial_state if state is None else state
        return target in self.satisfaction_set(formula)

    def check_batch(
        self,
        formulas: Union[Mapping[str, Formula], Iterable[Formula]],
        state: Optional[State] = None,
    ) -> Dict:
        """Check a whole family of ICTL* formulas against one compiled structure.

        The structure is validated and compiled once (at construction) and
        each instantiated formula is dispatched to the shared engine, whose
        per-sub-formula memo carries over between the formulas of the family.
        With a mapping the result is keyed by the mapping's names; with a
        plain iterable it is keyed by the formulas themselves.
        """
        if isinstance(formulas, Mapping):
            return {name: self.check(formula, state) for name, formula in formulas.items()}
        return {formula: self.check(formula, state) for formula in formulas}

    # -- helpers ---------------------------------------------------------------

    def _validate_formula(self, formula: Formula) -> None:
        if self._enforce_restrictions:
            assert_restricted_ictl(formula)
            return
        if not is_state_formula(formula):
            raise FragmentError("ICTL* checking decides state formulas; got %s" % formula)
        unbound = free_index_variables(formula)
        if unbound:
            raise FragmentError(
                "formula has free index variables %s; bind them with an index "
                "quantifier or substitute concrete process numbers" % sorted(unbound)
            )

    @staticmethod
    def _is_plain_ctl(formula: Formula) -> bool:
        if not is_ctl(formula):
            return False
        return not any(isinstance(node, (IndexExists, IndexForall)) for node in walk(formula))


def make_checker(
    structure: Union[KripkeStructure, SymbolicKripkeStructure],
    engine: str = "bitset",
    fairness: Optional[FairnessConstraint] = None,
    bound: Optional[int] = None,
):
    """The checker that runs a property family on ``structure`` with ``engine``.

    The one dispatch of the CLI and the portfolio workers.  The SAT engines,
    and ``bdd`` on a direct symbolic encoding (which has no explicit state
    graph to hand to the indexed wrapper), come straight from
    :func:`~repro.mc.bitset.make_ctl_checker`.  Every other engine runs
    inside :class:`ICTLStarModelChecker` with ``enforce_restrictions=False``:
    the families' concrete-index properties (pairwise mutual exclusion) are
    already instantiated, which the Section 4 closedness restriction would
    reject.
    """
    direct = engine in SAT_ENGINES
    if engine == "bdd":
        # Only bdd asks; it loads the symbolic layer anyway.
        from repro.kripke.symbolic import SymbolicKripkeStructure

        direct = isinstance(structure, SymbolicKripkeStructure)
    if direct:
        return make_ctl_checker(structure, engine=engine, fairness=fairness, bound=bound)
    return ICTLStarModelChecker(
        structure, engine=engine, fairness=fairness, enforce_restrictions=False
    )


def satisfaction_set(
    structure: IndexedKripkeStructure,
    formula: Formula,
    enforce_restrictions: bool = True,
    engine: str = "bitset",
    fairness: Optional[FairnessConstraint] = None,
) -> FrozenSet[State]:
    """One-shot helper: the satisfaction set of an ICTL* formula."""
    checker = ICTLStarModelChecker(
        structure, enforce_restrictions=enforce_restrictions, engine=engine, fairness=fairness
    )
    return checker.satisfaction_set(formula)


def check(
    structure: IndexedKripkeStructure,
    formula: Formula,
    state: Optional[State] = None,
    enforce_restrictions: bool = True,
    engine: str = "bitset",
    fairness: Optional[FairnessConstraint] = None,
    bound: Optional[int] = None,
) -> bool:
    """One-shot helper: decide an ICTL* formula at ``state`` (default: initial state)."""
    checker = ICTLStarModelChecker(
        structure,
        enforce_restrictions=enforce_restrictions,
        engine=engine,
        fairness=fairness,
        bound=bound,
    )
    return checker.check(formula, state)


def check_batch(
    structure: IndexedKripkeStructure,
    formulas: Union[Mapping[str, Formula], Iterable[Formula]],
    state: Optional[State] = None,
    enforce_restrictions: bool = True,
    engine: str = "bitset",
    fairness: Optional[FairnessConstraint] = None,
) -> Dict:
    """One-shot helper: check a family of ICTL* formulas, compiling the structure once."""
    checker = ICTLStarModelChecker(
        structure, enforce_restrictions=enforce_restrictions, engine=engine, fairness=fairness
    )
    return checker.check_batch(formulas, state)
