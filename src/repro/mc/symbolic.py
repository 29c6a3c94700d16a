"""Symbolic CTL model checking over BDD-encoded state sets.

:class:`SymbolicCTLModelChecker` is the third engine next to the naive
frozenset checker and the compiled bitset checker: it computes EX/EU/EG as
fixpoints over :mod:`repro.bdd` decision diagrams, so a satisfaction set is a
boolean *function* of the state bits rather than an enumeration of states.
On explicit structures it is a drop-in replacement (``engine="bdd"``
anywhere an engine is accepted); its real payoff is checking
:class:`~repro.kripke.symbolic.SymbolicKripkeStructure` encodings built
directly from a process family, whose explicit product graph would be too
large to construct — see
:func:`repro.systems.token_ring.symbolic_token_ring` and the extended
explosion experiment.

The fixpoints drive the pre-image of :mod:`repro.kripke.symbolic` (one
relational product with the transition-relation BDD) with the cheapest set
that makes progress:

* ``EX f``   — one pre-image;
* ``E[f U g]`` — least fixpoint iterated on the frontier: each round's
  pre-image only processes the states added in the previous round;
* ``EG f``  — the classic greatest fixpoint ``νZ. f ∧ EX Z``, *deliberately*
  iterated on the full (slowly shrinking) set: successive rounds re-hit
  almost every relational-product subproblem in the bounded caches, which
  makes the iteration incremental — a removal-propagation variant
  confining each pre-image to the candidate set was measured 5× slower
  here (see :meth:`_eg`).

Under a :class:`~repro.mc.fairness.FairnessConstraint` the fair ``EG`` is
the Emerson–Lei nested μ/ν fixpoint

    ``νZ. f ∧ ⋀_i EX E[f U (Z ∧ F_i)]``

— one inner (frontier) ``EU`` round per fairness condition ``F_i`` per outer
iteration — and ``EX``/``EU`` targets are conjoined with the fair states
(``fair = fair-EG true``).  This is the one fair-``EG`` formulation that
never enumerates states, so fairness-constrained liveness stays checkable on
ring sizes only the symbolic encoding reaches.

Every memoised satisfaction set is held through a reference-counted
:class:`~repro.bdd.BDDFunction` handle, as is all fixpoint state, so the
manager's garbage collector can run at any operation boundary without
invalidating a checker.

Unlike the explicit checkers, the symbolic checker also *evaluates index
quantifiers itself* when the underlying encoding knows its index set: family
encodings have no explicit :class:`~repro.kripke.indexed.IndexedKripkeStructure`
to hand to :class:`repro.mc.indexed.ICTLStarModelChecker`, so the Section 5
properties can be checked directly against the symbolic ring.  When the
structure's process symmetry ρ is verified (see
:meth:`~repro.kripke.symbolic.SymbolicKripkeStructure.verified_symmetry`),
the fairness conditions are ρ-closed and the body ``ψ`` of ``∧_i ψ(i)`` /
``∨_i ψ(i)`` has no constant index and no nested quantifier, only
``ψ(i0)`` is model checked: ``Sat(ψ(σ^k(i0))) = ρ^k(Sat(ψ(i0)))``, so the
other ``n − 1`` instances are BDD permutations of the first, and the
combined result is the very edge instantiation would give.  Every other
quantifier is instantiated over the index set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from repro.bdd import BDDFunction
from repro.errors import FragmentError, ValidationError
from repro.kripke.structure import KripkeStructure, State
from repro.kripke.symbolic import ProcessSymmetry, SymbolicKripkeStructure, symbolic_structure
from repro.kripke.validation import assert_total
from repro.mc.fairness import FairnessConstraint, normalize_fairness
from repro.obs import metrics as _metrics
from repro.obs.progress import heartbeat as _heartbeat
from repro.obs.trace import is_enabled as _tracing
from repro.obs.trace import span as _span
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
    walk,
)
from repro.logic.transform import (
    free_index_variables,
    instantiate_quantifiers,
    substitute_index,
)

__all__ = ["SymbolicCTLModelChecker", "satisfaction_set", "check"]

_ATOMIC = (TrueLiteral, FalseLiteral, Atom, IndexedAtom, ExactlyOne)


class SymbolicCTLModelChecker:
    """Fixpoint CTL model checker running on binary decision diagrams.

    Accepts either a plain :class:`KripkeStructure` (encoded on the spot,
    with the encoding memoised on the structure) or an already-encoded
    :class:`SymbolicKripkeStructure`, so a whole family of formulas shares
    one encoding.  Satisfaction BDDs are memoised per formula, exactly like
    the other engines memoise their satisfaction sets/masks.
    """

    def __init__(
        self,
        structure: Union[KripkeStructure, SymbolicKripkeStructure],
        validate_structure: bool = True,
        fairness: Optional[FairnessConstraint] = None,
    ) -> None:
        self._symbolic = symbolic_structure(structure)
        if validate_structure and not self._symbolic.is_total():
            source = self._symbolic.source
            if source is not None:
                assert_total(source)
            raise ValidationError(
                "the symbolic transition relation is not total on its state set"
            )
        self._fairness = normalize_fairness(fairness)
        self._cache: Dict[Formula, BDDFunction] = {}
        self._fair_condition_fns: Optional[Tuple[BDDFunction, ...]] = None
        self._fair_states_fn: Optional[BDDFunction] = None
        self._fairness_symmetric: Optional[bool] = None

    @property
    def fairness(self) -> Optional[FairnessConstraint]:
        """The fairness constraint the path quantifiers respect (``None``: all paths)."""
        return self._fairness

    @property
    def symbolic(self) -> SymbolicKripkeStructure:
        """The BDD encoding shared by every check against this instance."""
        return self._symbolic

    @property
    def structure(self) -> Optional[KripkeStructure]:
        """The explicit source structure, when this checker was built from one."""
        return self._symbolic.source

    # -- public API ----------------------------------------------------------

    def satisfaction_fn(self, formula: Formula) -> BDDFunction:
        """The satisfaction set of ``formula`` as a refcounted handle."""
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        with _span("bdd.satisfaction") as sp:
            if _tracing():
                sp.set(formula=str(formula)[:120])
            result = self._compute(formula)
        self._cache[formula] = result
        return result

    def satisfaction_node(self, formula: Formula) -> int:
        """Return the satisfaction set of ``formula`` as a raw BDD edge id."""
        return self.satisfaction_fn(formula).node

    def satisfaction_bdd(self, formula: Formula) -> BDDFunction:
        """Return the satisfaction set as a :class:`repro.bdd.BDDFunction`."""
        return self.satisfaction_fn(formula)

    def satisfaction_set(self, formula: Formula) -> FrozenSet[State]:
        """Decode the satisfaction set into a frozenset of states.

        This enumerates (only) the satisfying states; scalable callers should
        prefer :meth:`check` / :meth:`satisfy_count`, which stay symbolic.
        """
        return self._symbolic.states_of(self.satisfaction_node(formula))

    def satisfy_count(self, formula: Formula) -> int:
        """The number of states satisfying ``formula``, by BDD satisfy-count."""
        return self._symbolic.count(self.satisfaction_node(formula))

    def check(self, formula: Formula, state: Optional[State] = None) -> bool:
        """Decide ``M, state ⊨ formula`` (default state: the initial state)."""
        manager = self._symbolic.manager
        try:
            with _span("mc.check", engine="bdd"):
                node = self.satisfaction_node(formula)
                if state is None:
                    verdict = manager.apply_and(node, self._symbolic.initial) != 0
                else:
                    verdict = self._symbolic.holds_at(node, state)
        finally:
            # Every exit path, so a check stopped by its budget counts.
            manager.publish_metrics(engine="bdd")
        _metrics.counter("mc.checks", engine="bdd").inc()
        return verdict

    def check_batch(
        self,
        formulas: Union[Mapping[str, Formula], Iterable[Formula]],
        state: Optional[State] = None,
    ) -> Dict:
        """Check a whole family of formulas against the one shared encoding.

        With a mapping the result is keyed by the mapping's names; with a
        plain iterable it is keyed by the formulas themselves.  Shared
        sub-formulas are computed once thanks to the per-formula memo.
        """
        if isinstance(formulas, Mapping):
            return {name: self.check(formula, state) for name, formula in formulas.items()}
        return {formula: self.check(formula, state) for formula in formulas}

    # -- index quantifiers ------------------------------------------------------

    def _index_quantifier(self, formula: Union[IndexForall, IndexExists]) -> BDDFunction:
        """``∧_i ψ(i)`` / ``∨_i ψ(i)``: one instance rotated, or every instance."""
        index_values = self._symbolic.index_values
        if index_values is None:
            raise FragmentError(
                "the symbolic CTL checker can only instantiate index quantifiers "
                "on an indexed encoding; instantiate them with repro.mc.indexed "
                "first (formula: %s)" % formula
            )
        symmetry, reason = self._usable_symmetry(formula)
        if symmetry is None:
            _metrics.counter("mc.symmetry.fallback", reason=reason).inc()
            return self.satisfaction_fn(instantiate_quantifiers(formula, index_values))
        seed = self.satisfaction_fn(
            substitute_index(formula.body, formula.variable, min(index_values))
        )
        result = image = seed
        for _ in range(len(index_values) - 1):
            image = image.permute(symmetry.var_map)
            result = result & image if isinstance(formula, IndexForall) else result | image
        _metrics.counter("mc.symmetry.reduced").inc(len(index_values) - 1)
        return result

    def _usable_symmetry(
        self, formula: Union[IndexForall, IndexExists]
    ) -> Tuple[Optional[ProcessSymmetry], Optional[str]]:
        """The verified symmetry when the rotation argument applies, else a reason."""
        body = formula.body
        if free_index_variables(body) - {formula.variable}:
            return None, "free_index"
        for node in walk(body):
            if isinstance(node, (IndexExists, IndexForall)):
                return None, "nested_quantifier"
            if isinstance(node, IndexedAtom) and not isinstance(node.index, str):
                return None, "concrete_index"
        symmetry = self._symbolic.verified_symmetry()
        if symmetry is None:
            return None, self._symbolic.symmetry_reason
        if not self._fairness_is_symmetric(symmetry):
            return None, "fairness_not_closed"
        return symmetry, None

    def _fairness_is_symmetric(self, symmetry: ProcessSymmetry) -> bool:
        """Whether ρ maps the fairness conditions' edge set onto itself."""
        if self._fairness_symmetric is None:
            conditions = self.fairness_condition_fns()
            self._fairness_symmetric = {
                condition.permute(symmetry.var_map).node for condition in conditions
            } == {condition.node for condition in conditions}
        return self._fairness_symmetric

    # -- recursive computation -------------------------------------------------

    def _fn(self, node: int) -> BDDFunction:
        return self._symbolic.function(node)

    def _domain_fn(self) -> BDDFunction:
        return self._fn(self._symbolic.domain)

    def _complement(self, operand: BDDFunction) -> BDDFunction:
        """The complement relative to the state set ``S``."""
        return self._domain_fn() & ~operand

    def _compute(self, formula: Formula) -> BDDFunction:
        symbolic = self._symbolic
        if isinstance(formula, _ATOMIC):
            return self._fn(symbolic.atom_node(formula))
        if isinstance(formula, Not):
            return self._complement(self.satisfaction_fn(formula.operand))
        if isinstance(formula, And):
            return self.satisfaction_fn(formula.left) & self.satisfaction_fn(formula.right)
        if isinstance(formula, Or):
            return self.satisfaction_fn(formula.left) | self.satisfaction_fn(formula.right)
        if isinstance(formula, Implies):
            return self._complement(self.satisfaction_fn(formula.left)) | (
                self.satisfaction_fn(formula.right)
            )
        if isinstance(formula, Iff):
            left = self.satisfaction_fn(formula.left)
            right = self.satisfaction_fn(formula.right)
            return self._complement(left ^ right)
        if isinstance(formula, Exists):
            return self._compute_exists(formula.path)
        if isinstance(formula, ForAll):
            return self._compute_forall(formula.path)
        if isinstance(formula, (IndexForall, IndexExists)):
            return self._index_quantifier(formula)
        raise FragmentError("formula is not a CTL state formula: %s" % formula)

    def _compute_exists(self, path: Formula) -> BDDFunction:
        symbolic = self._symbolic
        if isinstance(path, Next):
            return symbolic.preimage_fn(
                self._constrain(self.satisfaction_fn(path.operand))
            )
        if isinstance(path, Finally):
            return self._eu(
                self._domain_fn(), self._constrain(self.satisfaction_fn(path.operand))
            )
        if isinstance(path, Globally):
            return self._eg_op(self.satisfaction_fn(path.operand))
        if isinstance(path, Until):
            return self._eu(
                self.satisfaction_fn(path.left),
                self._constrain(self.satisfaction_fn(path.right)),
            )
        if isinstance(path, Release):
            # E[f R g]  ≡  ¬A[¬f U ¬g]
            return self._complement(
                self._compute_forall(Until(Not(path.left), Not(path.right)))
            )
        if isinstance(path, WeakUntil):
            # E[f W g]  ≡  E[f U g] ∨ EG f
            return self._compute_exists(Until(path.left, path.right)) | (
                self._compute_exists(Globally(path.left))
            )
        raise FragmentError(
            "E must be applied to a single temporal operator over state formulas "
            "for CTL checking; got E(%s)" % path
        )

    def _compute_forall(self, path: Formula) -> BDDFunction:
        symbolic = self._symbolic
        if isinstance(path, Next):
            # AX f ≡ ¬EX ¬f
            return self._complement(
                symbolic.preimage_fn(
                    self._constrain(
                        self._complement(self.satisfaction_fn(path.operand))
                    )
                )
            )
        if isinstance(path, Finally):
            # AF f ≡ ¬EG ¬f
            return self._complement(
                self._eg_op(self._complement(self.satisfaction_fn(path.operand)))
            )
        if isinstance(path, Globally):
            # AG f ≡ ¬EF ¬f
            return self._complement(
                self._eu(
                    self._domain_fn(),
                    self._constrain(
                        self._complement(self.satisfaction_fn(path.operand))
                    ),
                )
            )
        if isinstance(path, Until):
            # A[f U g] ≡ ¬( E[¬g U (¬f ∧ ¬g)] ∨ EG ¬g )
            not_f = self._complement(self.satisfaction_fn(path.left))
            not_g = self._complement(self.satisfaction_fn(path.right))
            bad = self._eu(not_g, self._constrain(not_f & not_g)) | self._eg_op(not_g)
            return self._complement(bad)
        if isinstance(path, Release):
            # A[f R g] ≡ ¬E[¬f U ¬g]
            return self._complement(
                self._compute_exists(Until(Not(path.left), Not(path.right)))
            )
        if isinstance(path, WeakUntil):
            # A[f W g] ≡ ¬E[¬g U (¬f ∧ ¬g)]
            not_f = self._complement(self.satisfaction_fn(path.left))
            not_g = self._complement(self.satisfaction_fn(path.right))
            return self._complement(self._eu(not_g, self._constrain(not_f & not_g)))
        raise FragmentError(
            "A must be applied to a single temporal operator over state formulas "
            "for CTL checking; got A(%s)" % path
        )

    # -- fixpoint primitives -----------------------------------------------------

    def _eu(self, left: BDDFunction, right: BDDFunction) -> BDDFunction:
        """Least fixpoint for ``E[left U right]``, iterated on the frontier.

        A state enters the fixpoint in round ``k`` only through a successor
        added in round ``k - 1``, so each round's pre-image is taken of the
        *newly added* states instead of the whole accumulated set.
        """
        symbolic = self._symbolic
        with _span("bdd.fixpoint.eu") as sp:
            # Frontier node sizes are only sampled when tracing: counting
            # BDD nodes walks the graph, which the disabled fast path
            # must not pay.
            trace_on = _tracing()
            frontier_nodes = []
            satisfied = right
            frontier = right
            rounds = 0
            while not frontier.is_false:
                rounds += 1
                _checkpoint("bdd.fixpoint")
                if trace_on:
                    frontier_nodes.append(symbolic.manager.node_count(frontier.node))
                reached = left & symbolic.preimage_fn(frontier)
                frontier = reached & ~satisfied
                satisfied = satisfied | frontier
            sp.set(rounds=rounds, frontier_nodes=frontier_nodes)
        _metrics.counter("mc.fixpoint.rounds", engine="bdd", op="eu").inc(rounds)
        _metrics.histogram("mc.fixpoint.iterations", engine="bdd", op="eu").observe(
            rounds
        )
        return satisfied

    def _eg(self, operand: BDDFunction) -> BDDFunction:
        """Greatest fixpoint for ``EG operand``: ``νZ. operand ∧ EX Z``.

        Iterated on the full candidate set *by design*: the set shrinks
        slowly between rounds, so virtually every relational-product
        subproblem of round ``k`` is a cache hit in round ``k + 1`` — the
        bounded caches (with oldest-half eviction) make the classic
        iteration incremental.  A removal-propagation variant confining each
        pre-image to the candidate set was measured 5× slower here: its per-round
        frontier targets are fresh BDDs that defeat exactly that reuse.
        """
        symbolic = self._symbolic
        with _span("bdd.fixpoint.eg") as sp:
            trace_on = _tracing()
            current = operand
            rounds = 0
            while True:
                rounds += 1
                _checkpoint("bdd.fixpoint")
                if trace_on:
                    sp.set(rounds=rounds, nodes=symbolic.manager.node_count(current.node))
                refined = current & symbolic.preimage_fn(current)
                if refined == current:
                    break
                current = refined
            sp.set(rounds=rounds)
        _metrics.counter("mc.fixpoint.rounds", engine="bdd", op="eg").inc(rounds)
        _metrics.histogram("mc.fixpoint.iterations", engine="bdd", op="eg").observe(
            rounds
        )
        return current

    # -- fairness ----------------------------------------------------------------

    def fair_states_fn(self) -> BDDFunction:
        """The fair states (starting at least one fair path) as a handle."""
        if self._fairness is None:
            return self._domain_fn()
        if self._fair_states_fn is None:
            self._fair_states_fn = self._fair_eg(self._domain_fn())
        return self._fair_states_fn

    def fair_states_node(self) -> int:
        """The fair states as a raw BDD edge id."""
        return self.fair_states_fn().node

    def fair_states(self) -> FrozenSet[State]:
        """The fair states, decoded (non-symbolic convenience for tests/reports)."""
        return self._symbolic.states_of(self.fair_states_node())

    def fairness_condition_fns(self) -> Tuple[BDDFunction, ...]:
        """The (plain-semantics) satisfaction handles of the fairness conditions."""
        if self._fairness is None:
            return ()
        if self._fair_condition_fns is None:
            # Conditions are decided under the unconstrained semantics by a
            # plain sub-checker sharing this instance's encoding.
            plain = SymbolicCTLModelChecker(self._symbolic, validate_structure=False)
            self._fair_condition_fns = tuple(
                plain.satisfaction_fn(condition)
                for condition in self._fairness.conditions
            )
        return self._fair_condition_fns

    def fairness_condition_nodes(self) -> Tuple[int, ...]:
        """The fairness-condition satisfaction sets as raw BDD edge ids."""
        return tuple(fn.node for fn in self.fairness_condition_fns())

    def fairness_condition_sets(self) -> Tuple[FrozenSet[State], ...]:
        """The fairness-condition satisfaction sets, decoded into frozensets."""
        states_of = self._symbolic.states_of
        return tuple(states_of(node) for node in self.fairness_condition_nodes())

    def _constrain(self, target: BDDFunction) -> BDDFunction:
        """Conjoin an ``EX``/``EU`` target with the fair states (no-op when unconstrained)."""
        if self._fairness is None:
            return target
        return target & self.fair_states_fn()

    def _eg_op(self, operand: BDDFunction) -> BDDFunction:
        """Dispatch ``EG`` to the plain or the fairness-constrained fixpoint."""
        if self._fairness is None:
            return self._eg(operand)
        return self._fair_eg(operand)

    def _fair_eg(self, operand: BDDFunction) -> BDDFunction:
        """Emerson–Lei fixpoint for fair ``EG operand``.

        ``νZ. operand ∧ ⋀_i EX E[Z U (Z ∧ F_i)]`` — each outer round shrinks
        ``Z`` to the states that can, for every fairness condition, stay
        inside ``Z`` until hitting the condition *and* ``Z`` again; the
        fixpoint is exactly the start of some fair ``operand``-path.  Two
        standard accelerations keep the nested fixpoint tractable on large
        encodings: the iteration starts from the plain ``EG`` (every fair
        ``operand``-path is in particular an infinite one, and the plain
        greatest fixpoint is far cheaper), and the inner until is confined
        to the current ``Z`` (a fair path's suffix is fair, so the true
        fixpoint survives the stronger condition while the inner fixpoints
        stay small).
        """
        symbolic = self._symbolic
        with _span("bdd.fixpoint.fair_eg", conditions=len(self._fairness or ())) as sp:
            condition_fns = self.fairness_condition_fns()
            current = self._eg(operand)
            rounds = 0
            result = None
            while result is None:
                rounds += 1
                _checkpoint("bdd.fixpoint")
                _heartbeat("bdd", fixpoint="fair_eg", round=rounds)
                refined = current
                for condition in condition_fns:
                    target = current & condition
                    refined = refined & symbolic.preimage_fn(self._eu(current, target))
                    if refined.is_false:
                        result = refined
                        break
                if result is None:
                    if refined == current:
                        result = current
                    else:
                        current = refined
            sp.set(rounds=rounds)
        _metrics.counter("mc.fixpoint.rounds", engine="bdd", op="fair_eg").inc(rounds)
        _metrics.histogram(
            "mc.fixpoint.iterations", engine="bdd", op="fair_eg"
        ).observe(rounds)
        return result


def satisfaction_set(
    structure: Union[KripkeStructure, SymbolicKripkeStructure],
    formula: Formula,
    fairness: Optional[FairnessConstraint] = None,
) -> FrozenSet[State]:
    """One-shot helper: the symbolic-engine satisfaction set of ``formula``."""
    return SymbolicCTLModelChecker(structure, fairness=fairness).satisfaction_set(formula)


def check(
    structure: Union[KripkeStructure, SymbolicKripkeStructure],
    formula: Formula,
    state: Optional[State] = None,
    fairness: Optional[FairnessConstraint] = None,
) -> bool:
    """One-shot helper: decide ``structure, state ⊨ formula`` with the BDD engine."""
    return SymbolicCTLModelChecker(structure, fairness=fairness).check(formula, state)
