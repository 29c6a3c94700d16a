"""CTL model checking over compiled bitset state sets.

:class:`BitsetCTLModelChecker` is a drop-in replacement for
:class:`repro.mc.ctl.CTLModelChecker` that runs the Clarke–Emerson–Sistla
labelling algorithm entirely on int bitmasks produced by
:class:`repro.kripke.compiled.CompiledKripkeStructure`:

* boolean connectives are single int operations (``&``, ``|``, complement
  against the all-states mask);
* ``E[f U g]`` is a predecessor-propagation worklist over adjacency lists —
  each transition is inspected at most once;
* ``EG f`` is the reverse-pruning fixpoint: per-state counts of successors
  still inside the candidate set are maintained and states are pruned when
  their count reaches zero, again touching each transition at most once.

The naive checker remains the differential-testing oracle — see
``tests/property/test_property_bitset.py`` — and is still available through
``engine="naive"`` wherever the library accepts an engine choice.

Fairness-constrained checking mirrors :class:`repro.mc.ctl.CTLModelChecker`:
``EX``/``EU`` targets are masked with the fair states and fair ``EG`` runs
the SCC-restricted fixpoint (Tarjan over the indices inside the operand
mask, keeping the non-trivial components whose mask intersects every
fairness mask).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import FragmentError, ModelCheckingError
from repro.kripke.compiled import (
    CompiledKripkeStructure,
    bits_of,
    compile_structure,
    popcount,
)
from repro.kripke.structure import KripkeStructure, State
from repro.kripke.validation import assert_total
from repro.mc.fairness import FairnessConstraint, normalize_fairness
from repro.mc.scc import fair_components
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _obs_span
from repro.runtime.limits import checkpoint as _checkpoint
from repro.logic.ast import (
    And,
    Atom,
    ExactlyOne,
    Exists,
    FalseLiteral,
    Finally,
    ForAll,
    Formula,
    Globally,
    Iff,
    Implies,
    IndexExists,
    IndexForall,
    IndexedAtom,
    Next,
    Not,
    Or,
    Release,
    TrueLiteral,
    Until,
    WeakUntil,
)

__all__ = [
    "BitsetCTLModelChecker",
    "CTL_ENGINES",
    "DEFAULT_BOUND",
    "DEFAULT_MAX_FRAMES",
    "ENGINE_MODULES",
    "ENGINE_NAMES",
    "SAT_ENGINES",
    "make_ctl_checker",
    "satisfaction_set",
    "check",
]

_ATOMIC = (TrueLiteral, FalseLiteral, Atom, IndexedAtom, ExactlyOne)

#: Every registered model-checking engine, in registry order — the single
#: source of truth for engine names everywhere (the CLI, the docstrings, the
#: parametrised tests; ``docs/ENGINES.md`` documents each one).  ``"bitset"``,
#: ``"naive"`` and ``"bdd"`` decide full CTL by fixpoint computation; the two
#: SAT-based engines decide the invariant fragment only: ``"bmc"``
#: (:mod:`repro.mc.bmc`) by bounded falsification + k-induction, ``"ic3"``
#: (:mod:`repro.mc.ic3`) by unbounded property-directed reachability with
#: re-verified invariant certificates.  ``"portfolio"``
#: (:mod:`repro.runtime.portfolio`) is the meta-engine racing the others in
#: supervised worker processes and keeping the first conclusive verdict.
ENGINE_NAMES = ("bitset", "naive", "bdd", "bmc", "ic3", "portfolio")

#: The SAT-based engines: they decide the invariant fragment only, take a
#: ``bound``, report how a verdict was reached in ``last_detail``, and
#: reject fairness constraints.
SAT_ENGINES = ("bmc", "ic3")

#: The module defining each engine's checker: what :func:`make_ctl_checker`
#: imports when it builds one, and what the portfolio loads before its
#: workers fork.
ENGINE_MODULES = {
    "bitset": "repro.mc.bitset",
    "naive": "repro.mc.ctl",
    "bdd": "repro.mc.symbolic",
    "bmc": "repro.mc.bmc",
    "ic3": "repro.mc.ic3",
    "portfolio": "repro.runtime.portfolio",
}

#: The ``bound`` each SAT engine falls back to, kept beside the registry so
#: that naming them (the CLI's ``--bound`` help) does not load the engines:
#: the falsification/induction depth ceiling of ``bmc``, and the frame-count
#: safety net of ``ic3`` (not a proof parameter: IC3 proofs are unbounded,
#: and hitting the ceiling raises :class:`~repro.errors.InconclusiveError`
#: instead of looping forever).
DEFAULT_BOUND = 25
DEFAULT_MAX_FRAMES = 100

#: The engines computing full CTL *satisfaction sets* — the differential-
#: testing set replayed by :func:`repro.mc.oracle.crosscheck_ctl_engines`.
#: The SAT engines and ``"portfolio"`` are deliberately excluded: they
#: produce single verdicts, not sets.
CTL_ENGINES = tuple(
    name for name in ENGINE_NAMES if name not in SAT_ENGINES + ("portfolio",)
)


class BitsetCTLModelChecker:
    """Labelling-algorithm CTL model checker running on compiled bitsets.

    Accepts either a plain :class:`KripkeStructure` (compiled on the spot) or
    an already-:class:`CompiledKripkeStructure`, so a whole family of formulas
    can share one compilation.  Satisfaction masks are memoised per formula,
    exactly like the naive checker memoises satisfaction sets.
    """

    def __init__(
        self,
        structure: Union[KripkeStructure, CompiledKripkeStructure],
        validate_structure: bool = True,
        fairness: Optional[FairnessConstraint] = None,
    ) -> None:
        self._compiled = compile_structure(structure)
        if validate_structure and not self._compiled.is_total():
            assert_total(self._compiled.source)
        self._fairness = normalize_fairness(fairness)
        self._cache: Dict[Formula, int] = {}
        self._fair_condition_masks: Optional[Tuple[int, ...]] = None
        self._fair_states_mask: Optional[int] = None

    @property
    def structure(self) -> KripkeStructure:
        """The (source) structure this checker operates on."""
        return self._compiled.source

    @property
    def fairness(self) -> Optional[FairnessConstraint]:
        """The fairness constraint the path quantifiers respect (``None``: all paths)."""
        return self._fairness

    @property
    def compiled(self) -> CompiledKripkeStructure:
        """The compiled form shared by every check against this instance."""
        return self._compiled

    # -- public API ----------------------------------------------------------

    def satisfaction_mask(self, formula: Formula) -> int:
        """Return the satisfaction set of ``formula`` as a bitmask."""
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        result = self._compute(formula)
        self._cache[formula] = result
        return result

    def satisfaction_set(self, formula: Formula) -> FrozenSet[State]:
        """Return the set of states satisfying the CTL state formula ``formula``."""
        return self._compiled.states_of(self.satisfaction_mask(formula))

    def check(self, formula: Formula, state: Optional[State] = None) -> bool:
        """Decide ``M, state ⊨ formula`` (default state: the initial state)."""
        if state is None:
            index = self._compiled.initial_index
        else:
            index = self._compiled.index_of(state)
        with _obs_span("mc.check", engine="bitset"):
            mask = self.satisfaction_mask(formula)
        _metrics.counter("mc.checks", engine="bitset").inc()
        return bool(mask >> index & 1)

    def check_batch(
        self,
        formulas: Union[Mapping[str, Formula], Iterable[Formula]],
        state: Optional[State] = None,
    ) -> Dict:
        """Check a whole family of formulas against the one compiled structure.

        With a mapping the result is keyed by the mapping's names; with a
        plain iterable it is keyed by the formulas themselves.  The batch is
        labelled bottom-up first (:meth:`label_batch`): every distinct state
        sub-formula across the *whole* family is computed exactly once into
        the shared sub-formula → bitmask table, so formulas sharing structure
        never recompute it and deep formulas never recurse.
        """
        if isinstance(formulas, Mapping):
            family = list(formulas.values())
        else:
            family = list(formulas)
        self.label_batch(family)
        if isinstance(formulas, Mapping):
            return {name: self.check(formula, state) for name, formula in formulas.items()}
        return {formula: self.check(formula, state) for formula in family}

    def label_batch(self, formulas: Iterable[Formula]) -> Dict[Formula, int]:
        """Label every distinct state sub-formula of ``formulas`` bottom-up.

        Walks each formula's state sub-formulas in post-order (children of a
        path quantifier are the operands of its temporal operator), dedupes
        them across the batch, and fills the memoised sub-formula → bitmask
        table children-first, so each :meth:`_compute` call finds its
        operands already cached — one table entry per distinct sub-formula
        for the whole family, and no deep recursion on tall formulas.
        Returns the table (shared with :meth:`satisfaction_mask`).
        """
        cache = self._cache
        for formula in formulas:
            stack: List[Tuple[Formula, bool]] = [(formula, False)]
            while stack:
                node, expanded = stack.pop()
                if node in cache:
                    continue
                if expanded:
                    cache[node] = self._compute(node)
                    continue
                stack.append((node, True))
                for child in self._state_children(node):
                    if child not in cache:
                        stack.append((child, False))
        return cache

    @staticmethod
    def _state_children(formula: Formula) -> Tuple[Formula, ...]:
        """The direct *state-formula* children (descending through path operators)."""
        if isinstance(formula, Not):
            return (formula.operand,)
        if isinstance(formula, (And, Or, Implies, Iff)):
            return (formula.left, formula.right)
        if isinstance(formula, (Exists, ForAll)):
            path = formula.path
            if isinstance(path, (Next, Finally, Globally)):
                return (path.operand,)
            if isinstance(path, (Until, Release, WeakUntil)):
                return (path.left, path.right)
        return ()

    # -- recursive computation -------------------------------------------------

    def _compute(self, formula: Formula) -> int:
        compiled = self._compiled
        if isinstance(formula, _ATOMIC):
            return compiled.atom_mask(formula)
        if isinstance(formula, Not):
            return compiled.all_mask & ~self.satisfaction_mask(formula.operand)
        if isinstance(formula, And):
            return self.satisfaction_mask(formula.left) & self.satisfaction_mask(formula.right)
        if isinstance(formula, Or):
            return self.satisfaction_mask(formula.left) | self.satisfaction_mask(formula.right)
        if isinstance(formula, Implies):
            return (
                compiled.all_mask & ~self.satisfaction_mask(formula.left)
            ) | self.satisfaction_mask(formula.right)
        if isinstance(formula, Iff):
            left = self.satisfaction_mask(formula.left)
            right = self.satisfaction_mask(formula.right)
            return compiled.all_mask & ~(left ^ right)
        if isinstance(formula, (IndexExists, IndexForall)):
            raise FragmentError(
                "the CTL checker does not handle index quantifiers; instantiate "
                "them with repro.mc.indexed first (formula: %s)" % formula
            )
        if isinstance(formula, Exists):
            return self._compute_exists(formula.path)
        if isinstance(formula, ForAll):
            return self._compute_forall(formula.path)
        raise FragmentError("formula is not a CTL state formula: %s" % formula)

    def _compute_exists(self, path: Formula) -> int:
        compiled = self._compiled
        if isinstance(path, Next):
            return compiled.preimage(self._constrain(self.satisfaction_mask(path.operand)))
        if isinstance(path, Finally):
            return self._eu(
                compiled.all_mask, self._constrain(self.satisfaction_mask(path.operand))
            )
        if isinstance(path, Globally):
            return self._eg_op(self.satisfaction_mask(path.operand))
        if isinstance(path, Until):
            return self._eu(
                self.satisfaction_mask(path.left),
                self._constrain(self.satisfaction_mask(path.right)),
            )
        if isinstance(path, Release):
            # E[f R g]  ≡  ¬A[¬f U ¬g]
            return compiled.all_mask & ~self._compute_forall(
                Until(Not(path.left), Not(path.right))
            )
        if isinstance(path, WeakUntil):
            # E[f W g]  ≡  E[f U g] ∨ EG f
            return self._compute_exists(Until(path.left, path.right)) | self._compute_exists(
                Globally(path.left)
            )
        raise FragmentError(
            "E must be applied to a single temporal operator over state formulas "
            "for CTL checking; got E(%s)" % path
        )

    def _compute_forall(self, path: Formula) -> int:
        compiled = self._compiled
        everything = compiled.all_mask
        if isinstance(path, Next):
            # AX f ≡ ¬EX ¬f
            return everything & ~compiled.preimage(
                self._constrain(everything & ~self.satisfaction_mask(path.operand))
            )
        if isinstance(path, Finally):
            # AF f ≡ ¬EG ¬f
            return everything & ~self._eg_op(
                everything & ~self.satisfaction_mask(path.operand)
            )
        if isinstance(path, Globally):
            # AG f ≡ ¬EF ¬f
            return everything & ~self._eu(
                everything, self._constrain(everything & ~self.satisfaction_mask(path.operand))
            )
        if isinstance(path, Until):
            # A[f U g] ≡ ¬( E[¬g U (¬f ∧ ¬g)] ∨ EG ¬g )
            not_f = everything & ~self.satisfaction_mask(path.left)
            not_g = everything & ~self.satisfaction_mask(path.right)
            bad = self._eu(not_g, self._constrain(not_f & not_g)) | self._eg_op(not_g)
            return everything & ~bad
        if isinstance(path, Release):
            # A[f R g] ≡ ¬E[¬f U ¬g]
            return everything & ~self._compute_exists(Until(Not(path.left), Not(path.right)))
        if isinstance(path, WeakUntil):
            # A[f W g] ≡ ¬E[¬g U (¬f ∧ ¬g)]
            not_f = everything & ~self.satisfaction_mask(path.left)
            not_g = everything & ~self.satisfaction_mask(path.right)
            return everything & ~self._eu(not_g, self._constrain(not_f & not_g))
        raise FragmentError(
            "A must be applied to a single temporal operator over state formulas "
            "for CTL checking; got A(%s)" % path
        )

    # -- fixpoint primitives -----------------------------------------------------

    def _eu(self, left: int, right: int) -> int:
        """Least fixpoint for ``E[left U right]`` by predecessor propagation.

        Backwards reachability from ``right`` through ``left``: every state is
        enqueued at most once and its predecessor list scanned at most once,
        so the whole fixpoint is ``O(|S| + |R|)`` int operations.
        """
        compiled = self._compiled
        predecessors_of = compiled.predecessors_of
        with _obs_span("bitset.eu") as sp:
            satisfied = right
            frontier = list(bits_of(right))
            pops = 0
            while frontier:
                index = frontier.pop()
                pops += 1
                if not pops & 255:
                    _checkpoint("bitset.worklist")
                for pred in predecessors_of(index):
                    bit = 1 << pred
                    if not satisfied & bit and left & bit:
                        satisfied |= bit
                        frontier.append(pred)
            sp.set(pops=pops, satisfied=popcount(satisfied))
        _metrics.counter("bitset.worklist.pops", op="eu").inc(pops)
        return satisfied

    def _eg(self, operand: int) -> int:
        """Greatest fixpoint for ``EG operand`` by reverse pruning.

        Each candidate state keeps a count of successors still inside the
        candidate set; states whose count drops to zero are pruned and their
        predecessors' counts decremented, touching every transition at most
        once instead of re-scanning the whole set per iteration.
        """
        compiled = self._compiled
        successor_mask = compiled.successor_mask
        predecessors_of = compiled.predecessors_of
        with _obs_span("bitset.eg") as sp:
            current = operand
            counts: Dict[int, int] = {}
            doomed: List[int] = []
            for index in bits_of(operand):
                alive = popcount(successor_mask(index) & operand)
                counts[index] = alive
                if not alive:
                    doomed.append(index)
            pops = 0
            while doomed:
                index = doomed.pop()
                pops += 1
                if not pops & 255:
                    _checkpoint("bitset.worklist")
                current &= ~(1 << index)
                for pred in predecessors_of(index):
                    remaining = counts.get(pred)
                    if remaining is None or not current >> pred & 1:
                        continue
                    remaining -= 1
                    counts[pred] = remaining
                    if not remaining:
                        doomed.append(pred)
            sp.set(pops=pops, satisfied=popcount(current))
        _metrics.counter("bitset.worklist.pops", op="eg").inc(pops)
        return current

    # -- fairness ----------------------------------------------------------------

    def fair_states_mask(self) -> int:
        """The fair states (starting at least one fair path) as a bitmask."""
        if self._fairness is None:
            return self._compiled.all_mask
        if self._fair_states_mask is None:
            self._fair_states_mask = self._fair_eg(self._compiled.all_mask)
        return self._fair_states_mask

    def fair_states(self) -> FrozenSet[State]:
        """The fair states, decoded into a frozenset."""
        return self._compiled.states_of(self.fair_states_mask())

    def fairness_condition_masks(self) -> Tuple[int, ...]:
        """The (plain-semantics) satisfaction masks of the fairness conditions."""
        if self._fairness is None:
            return ()
        if self._fair_condition_masks is None:
            # Conditions are decided under the unconstrained semantics by a
            # plain sub-checker sharing this instance's compilation.
            plain = BitsetCTLModelChecker(self._compiled, validate_structure=False)
            self._fair_condition_masks = tuple(
                plain.satisfaction_mask(condition)
                for condition in self._fairness.conditions
            )
        return self._fair_condition_masks

    def fairness_condition_sets(self) -> Tuple[FrozenSet[State], ...]:
        """The fairness-condition satisfaction sets, decoded into frozensets."""
        states_of = self._compiled.states_of
        return tuple(states_of(mask) for mask in self.fairness_condition_masks())

    def _constrain(self, target: int) -> int:
        """Mask an ``EX``/``EU`` target with the fair states (no-op when unconstrained)."""
        if self._fairness is None:
            return target
        return target & self.fair_states_mask()

    def _eg_op(self, operand: int) -> int:
        """Dispatch ``EG`` to the plain or the fairness-constrained fixpoint."""
        if self._fairness is None:
            return self._eg(operand)
        return self._fair_eg(operand)

    def _fair_eg(self, operand: int) -> int:
        """SCC-restricted greatest fixpoint for fair ``EG operand``.

        Tarjan runs over the state indices inside the operand mask with the
        adjacency filtered to it; the non-trivial components whose index mask
        meets every fairness mask form the hub, and the result is the
        backwards ``EU`` reachability of the hub through the operand.
        """
        compiled = self._compiled
        successors_of = compiled.successors_of
        with _obs_span("bitset.fair_eg") as sp:
            indices = list(bits_of(operand))
            restricted = {
                index: [
                    target for target in successors_of(index) if operand >> target & 1
                ]
                for index in indices
            }
            condition_index_sets = [
                frozenset(bits_of(mask & operand))
                for mask in self.fairness_condition_masks()
            ]
            hub = 0
            components = 0
            for component in fair_components(indices, restricted, condition_index_sets):
                components += 1
                for index in component:
                    hub |= 1 << index
            sp.set(
                candidates=len(indices),
                fair_components=components,
                hub=popcount(hub),
            )
        return self._eu(operand, hub)


def make_ctl_checker(
    structure: Union[KripkeStructure, CompiledKripkeStructure],
    engine: str = "bitset",
    validate_structure: bool = True,
    fairness: Optional[FairnessConstraint] = None,
    bound: Optional[int] = None,
):
    """Construct a model checker for ``structure`` using the named engine.

    The engines (see :data:`ENGINE_NAMES`): ``"bitset"`` returns a
    :class:`BitsetCTLModelChecker`; ``"naive"`` returns the frozenset-based
    :class:`repro.mc.ctl.CTLModelChecker` (the differential-testing oracle);
    ``"bdd"`` returns the symbolic
    :class:`repro.mc.symbolic.SymbolicCTLModelChecker`, which runs the CTL
    fixpoints on binary decision diagrams instead of enumerated state sets;
    ``"bmc"`` returns the SAT-based
    :class:`repro.mc.bmc.BoundedModelChecker`, which decides the invariant
    fragment by bounded falsification and k-induction (``bound`` caps its
    unrolling depth); ``"ic3"`` returns the unbounded SAT-based prover
    :class:`repro.mc.ic3.IC3ModelChecker` (``bound`` caps its *frame count*
    — a divergence safety net, not a proof parameter); ``"portfolio"``
    returns :class:`repro.runtime.portfolio.PortfolioModelChecker`, racing
    the other engines in supervised worker processes and keeping the first
    conclusive verdict (``bound`` is forwarded to its SAT workers).
    ``bound`` is ignored by the fixpoint engines.  See ``docs/ENGINES.md``
    for a when-to-use-which guide.

    With ``fairness`` (a :class:`repro.mc.fairness.FairnessConstraint`) the
    returned checker decides the fairness-constrained CTL semantics: path
    quantifiers range over the paths visiting every fairness set infinitely
    often (rejected by the SAT engines).
    """
    if engine == "bitset":
        return BitsetCTLModelChecker(
            structure, validate_structure=validate_structure, fairness=fairness
        )
    if isinstance(structure, CompiledKripkeStructure):
        structure = structure.source  # only the bitset engine runs on the compiled form
    if engine == "naive":
        from repro.mc.ctl import CTLModelChecker

        return CTLModelChecker(
            structure, validate_structure=validate_structure, fairness=fairness
        )
    if engine == "bdd":
        from repro.mc.symbolic import SymbolicCTLModelChecker

        return SymbolicCTLModelChecker(
            structure, validate_structure=validate_structure, fairness=fairness
        )
    if engine == "bmc":
        from repro.mc.bmc import BoundedModelChecker

        return BoundedModelChecker(
            structure,
            bound=DEFAULT_BOUND if bound is None else bound,
            validate_structure=validate_structure,
            fairness=fairness,
        )
    if engine == "ic3":
        from repro.mc.ic3 import IC3ModelChecker

        return IC3ModelChecker(
            structure,
            max_frames=DEFAULT_MAX_FRAMES if bound is None else bound,
            validate_structure=validate_structure,
            fairness=fairness,
        )
    if engine == "portfolio":
        from repro.runtime.portfolio import PortfolioModelChecker

        return PortfolioModelChecker(structure, bound=bound, fairness=fairness)
    raise ModelCheckingError(
        "unknown engine %r; expected one of %s" % (engine, ", ".join(ENGINE_NAMES))
    )


def satisfaction_set(
    structure: Union[KripkeStructure, CompiledKripkeStructure],
    formula: Formula,
    fairness: Optional[FairnessConstraint] = None,
) -> FrozenSet[State]:
    """One-shot helper: the bitset-engine satisfaction set of ``formula``."""
    return BitsetCTLModelChecker(structure, fairness=fairness).satisfaction_set(formula)


def check(
    structure: Union[KripkeStructure, CompiledKripkeStructure],
    formula: Formula,
    state: Optional[State] = None,
    fairness: Optional[FairnessConstraint] = None,
) -> bool:
    """One-shot helper: decide ``structure, state ⊨ formula`` with the bitset engine."""
    return BitsetCTLModelChecker(structure, fairness=fairness).check(formula, state)
