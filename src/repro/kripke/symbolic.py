"""Symbolic (BDD-encoded) Kripke structures over current/next state bits.

Where :class:`repro.kripke.compiled.CompiledKripkeStructure` freezes a
structure into *explicit* integer-indexed arrays, this module encodes it into
*boolean functions* over state bits, so that sets of states and the transition
relation are :mod:`repro.bdd` decision diagrams and never need to be
enumerated.  Two construction paths are provided:

* :meth:`SymbolicKripkeStructure.from_explicit` binary-encodes an existing
  explicit structure (state ``i`` becomes the bit pattern of ``i``) — this is
  what ``engine="bdd"`` uses when handed an ordinary
  :class:`~repro.kripke.structure.KripkeStructure`;
* :class:`ProcessFamilyEncoding` assigns each process of a synchronized
  family its own block of state bits, so the global transition relation of
  the family can be written down *directly* as a disjunction of per-rule
  relations — the explicit product graph is never built.  This is the path
  that unlocks ring sizes the explicit engines cannot reach (see
  :func:`repro.systems.token_ring.symbolic_token_ring`).

Image computation
-----------------
The transition relation is one BDD over current and next variables.  An
image is one fused relational product ``∃x. S(x) ∧ R(x, x')`` followed by
a rename of the next variables back to current ones; a pre-image renames
the target to next variables, runs one relational product over them and
conjoins the domain.  The family relations are small (ring-24's is about
a thousand nodes), so the relation is never split into parts: partitioning
only pays once a monolithic relation is too large to build.

State bit ``k`` lives at BDD variable ``2k`` (its *current* copy) and
variable ``2k + 1`` (its *next* copy).  The manager's order is fixed by
variable id, so the pairs are interleaved and the current↔next renames are
order-preserving.  Everything the structure stores is held through
reference-counted :class:`~repro.bdd.BDDFunction` handles, so the manager's
mark-and-sweep GC treats it as roots.

Reachability
------------
The reachable domain starts as frontier search, one image per BFS layer.
A family whose frontier search outlasts a fixed multiple of its bit count
(the saturating counter, a single path of ``2^n − 2`` steps) switches to
iterative squaring, which needs ``O(log diameter)`` steps.  Squaring
composes the closure with itself, so it needs three copies of the state
bits.  They live in a scratch block above ``2·num_bits``: bit ``b`` has
its current copy at ``B + 3b``, the intermediate at ``B + 3b + 1`` and the
next copy at ``B + 3b + 2``, with ``B = 2·num_bits``.  Renaming
``(2b, 2b + 1)`` into the block and back is monotone, so every rename is
the order-preserving :meth:`~repro.bdd.BDDManager.rename`, and the layout
of the state variables themselves never changes.  Families that never
switch (ring, mutex) allocate no scratch variable.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.bdd import BDDFunction, BDDManager
from repro.errors import BDDError, StructureError
from repro.kripke.compiled import compile_structure
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp, KripkeStructure, Label, State
from repro.obs import metrics as _metrics
from repro.obs.progress import heartbeat as _heartbeat
from repro.obs.trace import span as _obs_span
from repro.logic.ast import (
    Atom,
    ExactlyOne,
    FalseLiteral,
    Formula,
    IndexedAtom,
    TrueLiteral,
)

__all__ = [
    "SymbolicKripkeStructure",
    "ProcessFamilyEncoding",
    "ProcessSymmetry",
    "family_domain",
    "symbolic_structure",
]

#: Frontier rounds per state bit before reachability switches to iterative
#: squaring: a family whose diameter exceeds a few times its bit count (the
#: counter's single long path) is deep, one whose frontier search finishes
#: sooner (ring, mutex) never switches.
_SQUARING_AFTER_ROUNDS_PER_BIT = 4

#: Node-count cap on the transition relation and every squared closure;
#: past it reachability falls back to frontier search.
_SQUARING_NODE_CAP = 20000


class ProcessSymmetry(NamedTuple):
    """A candidate process symmetry ρ of a family encoding.

    ``var_map`` is the BDD variable permutation (absent variables are
    fixed) and ``sigma`` the index permutation it induces on the indexed
    labels: ``ρ(p_k)`` should be ``p_σ(k)``.  A candidate proves nothing
    by itself — :meth:`SymbolicKripkeStructure.verified_symmetry` checks it.
    """

    var_map: Mapping[int, int]
    sigma: Mapping[int, int]


class SymbolicKripkeStructure:
    """A Kripke structure encoded as BDDs over current/next state bits.

    Parameters
    ----------
    manager:
        The BDD manager owning every node below.
    num_bits:
        The number of state bits; current copies live at variables
        ``0, 2, …`` and next copies at ``1, 3, …``.
    transition:
        The transition relation ``R`` as one edge over current *and* next
        variables.
    initial:
        The characteristic function of ``{s0}`` over current variables.
    domain:
        The characteristic function of the state set ``S`` over current
        variables, or ``None`` to take ``S`` to be the states reachable from
        ``initial`` (computed symbolically at construction).
    prop_nodes:
        Per-proposition characteristic functions over current variables.
    index_values:
        The index set ``I`` when the structure is indexed (enables ``Θ``).
    source:
        The explicit structure this encoding came from, when there is one.
    encode_assignment / decode_assignment:
        Callbacks translating between states and ``{var: bool}`` truth
        assignments over the current variables.
    symmetry:
        A candidate :class:`ProcessSymmetry` (family encodings pass
        :meth:`ProcessFamilyEncoding.rotation`); used only once
        :meth:`verified_symmetry` has proven it.
    """

    def __init__(
        self,
        manager: BDDManager,
        num_bits: int,
        transition: int,
        initial: int,
        domain: Optional[int],
        prop_nodes: Mapping[Label, int],
        index_values: Optional[FrozenSet[int]] = None,
        source: Optional[KripkeStructure] = None,
        encode_assignment: Optional[Callable[[State], Dict[int, bool]]] = None,
        decode_assignment: Optional[Callable[[Mapping[int, bool]], State]] = None,
        name: Optional[str] = None,
        symmetry: Optional[ProcessSymmetry] = None,
    ) -> None:
        if num_bits < 1:
            raise StructureError("a symbolic structure needs at least one state bit")
        # The whole encode (with the reachable domain when needed) is one
        # "build.encode" span, so traces show where setup time goes before
        # any check starts.
        with _obs_span("build.encode") as sp:
            self.manager = manager
            self._num_bits = num_bits
            self._current_vars = tuple(2 * bit for bit in range(num_bits))
            self._next_vars = tuple(2 * bit + 1 for bit in range(num_bits))
            self._c2n = {2 * bit: 2 * bit + 1 for bit in range(num_bits)}
            self._n2c = {2 * bit + 1: 2 * bit for bit in range(num_bits)}
            for var in self._current_vars + self._next_vars:
                manager.var(var)
            self._transition = BDDFunction(manager, transition)
            self._initial = BDDFunction(manager, initial)
            self._true = BDDFunction.true(manager)
            self._false = BDDFunction.false(manager)
            if domain is None:
                self._domain: Optional[BDDFunction] = None
                self._domain = self._reachable_fn()
            else:
                self._domain = BDDFunction(manager, domain)
            self._prop_nodes: Dict[Label, BDDFunction] = {
                label: BDDFunction(manager, node) for label, node in prop_nodes.items()
            }
            self._index_values = index_values
            self._source = source
            self._encode_assignment = encode_assignment
            self._decode_assignment = decode_assignment
            self._name = name
            self._exactly_one_nodes: Dict[str, BDDFunction] = {}
            self._symmetry = symmetry
            self._symmetry_reason: Optional[str] = None
            self._symmetry_checked = False
            sp.set(name=name, bits=num_bits)
        _metrics.gauge("build.state_bits").set(num_bits)

    # -- basic accessors -----------------------------------------------------

    @property
    def name(self) -> Optional[str]:
        """Optional human-readable name of the structure."""
        return self._name

    @property
    def num_bits(self) -> int:
        """The number of state bits (half the number of BDD variables in use)."""
        return self._num_bits

    @property
    def current_vars(self) -> Tuple[int, ...]:
        """The BDD variables carrying the current-state bits (``0, 2, 4, …``)."""
        return self._current_vars

    @property
    def initial(self) -> int:
        """The edge encoding ``{s0}``."""
        return self._initial.node

    @property
    def domain(self) -> int:
        """The edge encoding the state set ``S``."""
        return self._domain.node

    @property
    def index_values(self) -> Optional[FrozenSet[int]]:
        """The index set ``I`` when the source family is indexed."""
        return self._index_values

    @property
    def source(self) -> Optional[KripkeStructure]:
        """The explicit structure this encoding was built from, if any."""
        return self._source

    def function(self, node: int) -> BDDFunction:
        """Wrap a raw edge of this structure's manager in a refcounted handle."""
        return BDDFunction(self.manager, node)

    @property
    def transition(self) -> int:
        """The edge encoding the transition relation over current and next variables."""
        return self._transition.node

    # -- process symmetry ---------------------------------------------------------

    @property
    def symmetry_reason(self) -> Optional[str]:
        """Why :meth:`verified_symmetry` rejected the candidate (``None`` until it did)."""
        return self._symmetry_reason

    def verified_symmetry(self) -> Optional[ProcessSymmetry]:
        """The candidate symmetry once proven an automorphism of this structure, else ``None``.

        Checked lazily and once, inside one ``bdd.symmetry`` span: ``σ``
        must be a single cycle through the whole index set; the variable
        map must permute state bits pairwise (current to current, its next
        copy alongside); and ``ρ`` must fix the transition relation, the
        domain and every plain label while sending each indexed label
        ``p_k`` to ``p_σ(k)``.  Then ``Sat(ψ(σ(k))) = ρ(Sat(ψ(k)))`` for
        every CTL formula ``ψ`` without constant indices (under fairness,
        when ρ maps the fairness conditions onto themselves).  On failure
        :attr:`symmetry_reason` names the check that failed.
        """
        if not self._symmetry_checked:
            n = len(self._index_values or ())
            with _obs_span("bdd.symmetry", n=n) as sp:
                self._symmetry_reason = self._symmetry_defect()
                self._symmetry_checked = True
                sp.set(verified=self._symmetry_reason is None, reason=self._symmetry_reason)
        return self._symmetry if self._symmetry_reason is None else None

    def _symmetry_defect(self) -> Optional[str]:
        """The first failed soundness condition of the candidate, or ``None``."""
        symmetry = self._symmetry
        if symmetry is None:
            return "no_candidate"
        indices = self._index_values
        sigma = symmetry.sigma
        if not indices or set(sigma) != indices or set(sigma.values()) != indices:
            return "not_one_cycle"
        start = min(indices)
        index, orbit = sigma[start], 1
        while index != start:
            index, orbit = sigma[index], orbit + 1
        if orbit != len(indices):
            return "not_one_cycle"
        var_map = symmetry.var_map
        state_vars = set(self._current_vars + self._next_vars)
        if set(var_map) != set(var_map.values()) or not set(var_map) <= state_vars:
            return "bad_var_map"
        for var in self._current_vars:
            image = var_map.get(var, var)
            if image % 2 or var_map.get(var + 1, var + 1) != image + 1:
                return "bad_var_map"
        if self._transition.permute(var_map) != self._transition:
            return "transition_not_invariant"
        if self._domain.permute(var_map) != self._domain:
            return "domain_not_invariant"
        for label, prop in self._prop_nodes.items():
            if isinstance(label, IndexedProp):
                target = self._prop_nodes.get(IndexedProp(label.name, sigma.get(label.index)))
            else:
                target = prop
            if target is None or prop.permute(var_map) != target:
                return "label_not_mapped"
        return None

    # -- counting ---------------------------------------------------------------

    @property
    def num_states(self) -> int:
        """``|S|`` computed by BDD satisfy-count — no state is ever enumerated."""
        return self._domain.sat_count(self._current_vars)

    @property
    def num_transitions(self) -> int:
        """``|R ∩ (S × S)|`` via satisfy-count over current and next variables."""
        domain = self._domain
        pairs = self._transition & domain & domain.rename(self._c2n)
        return pairs.sat_count(self._current_vars + self._next_vars)

    def count(self, node: int) -> int:
        """The number of domain states in the set encoded by ``node``."""
        return (self.function(node) & self._domain).sat_count(self._current_vars)

    # -- images ------------------------------------------------------------------

    def preimage_fn(self, target: BDDFunction) -> BDDFunction:
        """States of ``S`` with a successor in ``target`` (the EX pre-image).

        ``target`` must be a function of current variables only; it is
        renamed to next variables and quantified out of its conjunction
        with the relation by one relational product.
        """
        renamed = target.rename(self._c2n)
        return renamed.relprod(self._transition, self._next_vars) & self._domain

    def preimage(self, node: int) -> int:
        """Raw-edge convenience wrapper of :meth:`preimage_fn`."""
        return self.preimage_fn(self.function(node)).node

    def image_fn(self, source: BDDFunction) -> BDDFunction:
        """Successors of the states in ``source`` (post-image), over current variables."""
        return source.relprod(self._transition, self._current_vars).rename(self._n2c)

    def image(self, node: int) -> int:
        """Raw-edge convenience wrapper of :meth:`image_fn`."""
        return self.image_fn(self.function(node)).node

    def _reachable_fn(self) -> BDDFunction:
        with _obs_span("bdd.reachable") as sp:
            domain = self._domain
            current = self._initial if domain is None else self._initial & domain
            frontier = current
            rounds = steps = 0
            method = "frontier"
            while not frontier.is_false:
                if rounds == _SQUARING_AFTER_ROUNDS_PER_BIT * self._num_bits:
                    squared, steps = self._squaring_reachable(current)
                    if squared is not None:
                        current, method = squared, "squaring"
                        break
                rounds += 1
                _heartbeat(
                    "bdd", fixpoint="reachable", round=rounds, live=self.manager._live
                )
                fresh = self.image_fn(frontier)
                if domain is not None:
                    fresh = fresh & domain
                frontier = fresh & ~current
                current = current | frontier
            sp.set(rounds=rounds, method=method, squaring_steps=steps)
        _metrics.counter("bdd.reachable.rounds").inc(rounds)
        return current

    def _squaring_reachable(
        self, start: BDDFunction
    ) -> Tuple[Optional[BDDFunction], int]:
        """The states reachable from ``start`` by iterative squaring, and the step count.

        ``C₀ = T ∨ Id`` and ``Cᵢ₊₁(x, x') = ∃y. Cᵢ(x, y) ∧ Cᵢ(y, x')``, so
        ``Cᵢ`` relates the states at most ``2^i`` steps apart and
        ``Rᵢ₊₁ = Img_{Cᵢ}(Rᵢ)`` reaches every state within ``2^(i+1) − 1``
        steps of ``start``.  Every ``Cᵢ ⊇ T ∪ Id``, so once ``R`` is stable
        it is closed under ``T``: the least fixpoint.  With a domain ``D``,
        ``T`` is confined to ``D(x')`` as the frontier loop confines each
        image.  The closures live in the scratch block described in the
        module docstring.  Returns ``(None, steps)`` once the relation or a
        closure passes :data:`_SQUARING_NODE_CAP`.
        """
        base = 2 * self._num_bits
        bits = range(self._num_bits)
        to_scratch = {}
        for bit in bits:
            to_scratch[2 * bit] = base + 3 * bit
            to_scratch[2 * bit + 1] = base + 3 * bit + 2
        scratch_to_state = {base + 3 * bit + 2: 2 * bit for bit in bits}
        next_to_mid = {base + 3 * bit + 2: base + 3 * bit + 1 for bit in bits}
        current_to_mid = {base + 3 * bit: base + 3 * bit + 1 for bit in bits}
        scratch_current = tuple(base + 3 * bit for bit in bits)
        mid = tuple(base + 3 * bit + 1 for bit in bits)

        relation = self._transition
        if self._domain is not None:
            relation = relation & self._domain.rename(self._c2n)
        if relation.size > _SQUARING_NODE_CAP:
            return None, 0
        identity = self._true
        for bit in reversed(bits):
            var = base + 3 * bit
            identity = identity & BDDFunction.variable(self.manager, var).iff(
                BDDFunction.variable(self.manager, var + 2)
            )
        closure = relation.rename(to_scratch) | identity
        reached = start
        steps = 0
        while True:
            steps += 1
            _heartbeat(
                "bdd", fixpoint="reachable_squaring", step=steps, live=self.manager._live
            )
            image = (
                reached.rename(to_scratch)
                .relprod(closure, scratch_current)
                .rename(scratch_to_state)
            )
            if image == reached:
                return reached, steps
            reached = image
            closure = closure.rename(next_to_mid).relprod(
                closure.rename(current_to_mid), mid
            )
            if closure.size > _SQUARING_NODE_CAP:
                return None, steps

    def reachable(self) -> int:
        """The least fixpoint of post-images from the initial state."""
        return self._reachable_fn().node

    def complement(self, node: int) -> int:
        """The complement of ``node`` *relative to the state set* ``S``."""
        manager = self.manager
        return manager.apply_and(self._domain.node, manager.negate(node))

    def is_total(self) -> bool:
        """Return ``True`` when every domain state has at least one successor."""
        has_successor = self.preimage_fn(self._true)
        return (self._domain & ~has_successor).is_false

    # -- atomic satisfaction -------------------------------------------------------

    def atom_node(self, formula: Formula) -> int:
        """The characteristic function of an atomic formula (cf. ``atom_mask``)."""
        manager = self.manager
        domain = self._domain
        if isinstance(formula, TrueLiteral):
            return domain.node
        if isinstance(formula, FalseLiteral):
            return 0
        if isinstance(formula, Atom):
            prop = self._prop_nodes.get(formula.name)
            return 0 if prop is None else manager.apply_and(prop.node, domain.node)
        if isinstance(formula, IndexedAtom):
            prop = self._prop_nodes.get(IndexedProp(formula.name, formula.index))
            return 0 if prop is None else manager.apply_and(prop.node, domain.node)
        if isinstance(formula, ExactlyOne):
            return self._exactly_one_node(formula.name)
        raise StructureError("atom_node expects an atomic formula, got %r" % (formula,))

    def _exactly_one_node(self, name: str) -> int:
        if self._index_values is None:
            raise StructureError(
                "the Θ ('exactly one') proposition is only meaningful on an "
                "indexed structure with a known index set"
            )
        cached = self._exactly_one_nodes.get(name)
        if cached is not None:
            return cached.node
        # Same one-pass "at least one"/"at least two" trick as the compiled
        # engine, but on characteristic functions instead of bitmasks.
        at_least_one = self._false
        at_least_two = self._false
        for value in sorted(self._index_values):
            prop = self._prop_nodes.get(IndexedProp(name, value))
            if prop is None:
                continue
            at_least_two = at_least_two | (at_least_one & prop)
            at_least_one = at_least_one | prop
        result = at_least_one & ~at_least_two & self._domain
        self._exactly_one_nodes[name] = result
        return result.node

    # -- state <-> assignment translation ------------------------------------------

    def encode_state(self, state: State) -> Dict[int, bool]:
        """The current-variable truth assignment encoding ``state``."""
        if self._encode_assignment is None:
            raise BDDError("this symbolic structure has no state encoder")
        return self._encode_assignment(state)

    def decode_state(self, model: Mapping[int, bool]) -> State:
        """Decode a current-variable truth assignment into one source state.

        Family encodings use their ``decode_assignment`` callback; explicit
        encodings invert the binary state numbering of
        :meth:`from_explicit`.  This is how the SAT-based bounded model
        checker (:mod:`repro.mc.bmc`) turns solver models back into genuine
        counterexample states.
        """
        if self._decode_assignment is not None:
            return self._decode_assignment(model)
        if self._source is not None:
            compiled = compile_structure(self._source)
            index = 0
            for bit in range(self._num_bits):
                if model.get(2 * bit, False):
                    index |= 1 << bit
            if index >= compiled.num_states:
                raise BDDError(
                    "assignment decodes to state index %d, outside the %d-state "
                    "source structure" % (index, compiled.num_states)
                )
            return compiled.states[index]
        raise BDDError("this symbolic structure has no state decoder")

    def holds_at(self, node: int, state: State) -> bool:
        """Decide whether ``state`` belongs to the set encoded by ``node``."""
        return self.manager.evaluate(node, self.encode_state(state))

    def states_of(self, node: int) -> FrozenSet[State]:
        """Decode a state-set function back into a frozenset of states.

        With an explicit source the states are evaluated one by one (exact
        and cheap for the structure sizes where decoding matters); family
        encodings decode the satisfying assignments instead.  Either way this
        is an explicitly *non-symbolic* convenience for tests and reports —
        scalable callers should stay on :meth:`count` / :meth:`holds_at`.
        """
        if self._source is not None:
            return frozenset(
                state for state in self._source.states if self.holds_at(node, state)
            )
        if self._decode_assignment is None:
            raise BDDError("this symbolic structure has no state decoder")
        constrained = self.manager.apply_and(node, self._domain.node)
        return frozenset(
            self._decode_assignment(model)
            for model in self.manager.iter_models(constrained, self._current_vars)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        descriptor = self._name or "SymbolicKripkeStructure"
        return "<Symbolic %s: %d bits, %d states>" % (
            descriptor,
            self._num_bits,
            self.num_states,
        )

    # -- construction from an explicit structure ------------------------------------

    @classmethod
    def from_explicit(cls, structure: KripkeStructure) -> "SymbolicKripkeStructure":
        """Binary-encode an explicit structure (state ``i`` ↦ bit pattern of ``i``).

        State indices follow the same deterministic repr-sort as
        :class:`~repro.kripke.compiled.CompiledKripkeStructure`, so the two
        compiled forms of one structure agree on which state is which.
        """
        with _obs_span("build.compile", kind="explicit_to_symbolic") as sp:
            compiled = compile_structure(structure)
            n = compiled.num_states
            sp.set(states=n)
        source = compiled.source
        bits = max(1, (n - 1).bit_length())
        manager = BDDManager()

        def cube_of(index: int, offset: int) -> int:
            return manager.cube(
                {2 * bit + offset: bool(index >> bit & 1) for bit in range(bits)}
            )

        current_cubes = [cube_of(index, 0) for index in range(n)]
        next_cubes = [cube_of(index, 1) for index in range(n)]

        domain = 0
        for cube in current_cubes:
            domain = manager.apply_or(domain, cube)

        transition = 0
        for index in range(n):
            targets = 0
            for target in compiled.successors_of(index):
                targets = manager.apply_or(targets, next_cubes[target])
            transition = manager.apply_or(
                transition, manager.apply_and(current_cubes[index], targets)
            )

        prop_nodes: Dict[Label, int] = {}
        for index, state in enumerate(compiled.states):
            for element in source.label(state):
                prop_nodes[element] = manager.apply_or(
                    prop_nodes.get(element, 0), current_cubes[index]
                )

        index_values = (
            source.index_values if isinstance(source, IndexedKripkeStructure) else None
        )

        def encode_assignment(state: State) -> Dict[int, bool]:
            index = compiled.index_of(state)
            return {2 * bit: bool(index >> bit & 1) for bit in range(bits)}

        return cls(
            manager,
            bits,
            transition,
            current_cubes[compiled.initial_index],
            domain,
            prop_nodes,
            index_values=index_values,
            source=source,
            encode_assignment=encode_assignment,
            name=source.name,
        )


def symbolic_structure(structure: KripkeStructure) -> SymbolicKripkeStructure:
    """Encode ``structure``, reusing an existing encoding for the same object.

    Structures are immutable after construction, so the symbolic form is
    memoised on the structure itself and shared by every checker touching
    the same object.
    """
    if isinstance(structure, SymbolicKripkeStructure):
        return structure
    cached = getattr(structure, "_symbolic_form", None)
    if cached is None:
        cached = SymbolicKripkeStructure.from_explicit(structure)
        structure._symbolic_form = cached
    return cached


def family_domain(domain: str) -> Optional[int]:
    """The ``domain`` argument for a direct encoding's ``domain=`` option.

    ``"reachable"`` maps to ``None``: the states reachable from the initial
    state, computed symbolically at build time (what fixpoint engines want).
    ``"free"`` maps to ``1``, the true function: every bit pattern is a
    state and no fixpoint runs (what the SAT engines unroll).
    """
    if domain not in ("reachable", "free"):
        raise StructureError("domain must be 'reachable' or 'free', got %r" % (domain,))
    return None if domain == "reachable" else 1


class ProcessFamilyEncoding:
    """Bit-block allocator for encoding a synchronized process family directly.

    Each process of the family gets ``ceil(log2(len(parts)))`` state bits
    encoding which *part* (local situation) it is in; the caller then writes
    the family's global transition rules as BDDs over the per-process
    current/next literals this class hands out (:meth:`local_move` is the
    common rule in which one process changes part), without ever constructing
    the explicit product graph.  Every cached literal is externally referenced,
    so the construction is safe across garbage collections.  See
    :func:`repro.systems.token_ring.symbolic_token_ring` for the canonical
    usage.
    """

    def __init__(
        self,
        manager: BDDManager,
        indices: Sequence[int],
        parts: Sequence[str],
    ) -> None:
        if not indices:
            raise StructureError("a process family needs at least one process")
        if len(set(indices)) != len(indices):
            raise StructureError("process indices must be distinct")
        if len(parts) < 2:
            raise StructureError("a process needs at least two local parts")
        self.manager = manager
        self._indices = tuple(indices)
        self._parts = tuple(parts)
        self._part_codes = {part: code for code, part in enumerate(self._parts)}
        self._bits_per_process = max(1, (len(self._parts) - 1).bit_length())
        self._positions = {index: pos for pos, index in enumerate(self._indices)}
        self._current_cache: Dict[Tuple[int, str], int] = {}
        self._next_cache: Dict[Tuple[int, str], int] = {}
        self._unchanged_cache: Dict[int, int] = {}

    @property
    def indices(self) -> Tuple[int, ...]:
        """The process indices, in bit-block order."""
        return self._indices

    @property
    def parts(self) -> Tuple[str, ...]:
        """The local-part alphabet shared by every process."""
        return self._parts

    @property
    def num_bits(self) -> int:
        """Total state bits of the family encoding."""
        return len(self._indices) * self._bits_per_process

    def _block(self, index: int) -> int:
        try:
            return self._positions[index] * self._bits_per_process
        except KeyError:
            raise StructureError("%r is not a process index of this family" % (index,)) from None

    def _part_cube(self, index: int, part: str, offset: int) -> int:
        try:
            code = self._part_codes[part]
        except KeyError:
            raise StructureError("%r is not a local part of this family" % (part,)) from None
        block = self._block(index)
        return self.manager.cube(
            {
                2 * (block + bit) + offset: bool(code >> bit & 1)
                for bit in range(self._bits_per_process)
            }
        )

    def current(self, index: int, part: str) -> int:
        """The literal cube "process ``index`` is currently in ``part``"."""
        key = (index, part)
        node = self._current_cache.get(key)
        if node is None:
            node = self.manager.incref(self._part_cube(index, part, 0))
            self._current_cache[key] = node
        return node

    def next(self, index: int, part: str) -> int:
        """The literal cube "process ``index`` is in ``part`` in the next state"."""
        key = (index, part)
        node = self._next_cache.get(key)
        if node is None:
            node = self.manager.incref(self._part_cube(index, part, 1))
            self._next_cache[key] = node
        return node

    def current_in(self, index: int, parts: Sequence[str]) -> int:
        """Disjunction of :meth:`current` over several parts."""
        node = 0
        for part in parts:
            node = self.manager.apply_or(node, self.current(index, part))
        return node

    def prop_nodes(self, part_props: Mapping[str, Sequence[str]]) -> Dict[Label, int]:
        """The indexed propositions' characteristic functions, per process.

        ``part_props`` maps a part to the names of the indexed propositions
        a process in that part satisfies: ``name_i`` holds wherever process
        ``i`` is in a part carrying ``name``.
        """
        carriers: Dict[str, List[str]] = {}
        for part, names in part_props.items():
            for name in names:
                carriers.setdefault(name, []).append(part)
        return {
            IndexedProp(name, index): self.current_in(index, parts)
            for index in self._indices
            for name, parts in carriers.items()
        }

    def rotation(self) -> ProcessSymmetry:
        """The candidate symmetry moving every process one step along ``indices``.

        Each current bit ``2b`` and next bit ``2b + 1`` of process
        ``indices[p]`` goes to the same bit of ``indices[(p + 1) % n]``;
        bits outside the process blocks (a shared lock) stay fixed.  Pass it
        as ``SymbolicKripkeStructure(..., symmetry=...)``, which proves it
        before any checker relies on it.
        """
        n = len(self._indices)
        width = self._bits_per_process
        var_map: Dict[int, int] = {}
        for position in range(n):
            source = position * width
            target = (position + 1) % n * width
            for bit in range(2 * width):
                var_map[2 * source + bit] = 2 * target + bit
        sigma = {
            index: self._indices[(position + 1) % n]
            for position, index in enumerate(self._indices)
        }
        return ProcessSymmetry(var_map, sigma)

    def local_move(self, source: str, target: str) -> int:
        """The interleaved rule "one process moves ``source`` → ``target``, the rest are framed"."""
        manager = self.manager
        node = 0
        for index in self._indices:
            move = manager.apply_and(self.current(index, source), self.next(index, target))
            node = manager.apply_or(node, manager.apply_and(move, self.frame([index])))
        return node

    def unchanged(self, index: int) -> int:
        """The frame condition "process ``index`` keeps its current part"."""
        node = self._unchanged_cache.get(index)
        if node is not None:
            return node
        manager = self.manager
        block = self._block(index)
        node = 1
        for bit in reversed(range(self._bits_per_process)):
            var = 2 * (block + bit)
            bit_equal = manager.apply(
                "iff", manager.var(var), manager.var(var + 1)
            )
            node = manager.apply_and(bit_equal, node)
        self._unchanged_cache[index] = manager.incref(node)
        return node

    def frame(self, changed: Sequence[int]) -> int:
        """The frame condition for a rule touching only the ``changed`` processes."""
        touched = set(changed)
        node = 1
        for index in self._indices:
            if index not in touched:
                node = self.manager.apply_and(node, self.unchanged(index))
        return node

    @property
    def current_vars(self) -> Tuple[int, ...]:
        """All current-state variables of the family, in order."""
        return tuple(2 * bit for bit in range(self.num_bits))

    def state_cube(self, assignment: Mapping[int, str]) -> int:
        """Encode a full global state (every process mapped to its part)."""
        missing = set(self._indices) - set(assignment)
        if missing:
            raise StructureError(
                "global state leaves processes %s unassigned" % sorted(missing)
            )
        node = 1
        for index in reversed(self._indices):
            node = self.manager.apply_and(self.current(index, assignment[index]), node)
        return node

    def decode(self, model: Mapping[int, bool]) -> Dict[int, str]:
        """Decode a current-variable truth assignment into ``{process: part}``."""
        result: Dict[int, str] = {}
        for index in self._indices:
            block = self._block(index)
            code = 0
            for bit in range(self._bits_per_process):
                if model.get(2 * (block + bit), False):
                    code |= 1 << bit
            if code >= len(self._parts):
                raise StructureError(
                    "assignment decodes process %d to invalid part code %d" % (index, code)
                )
            result[index] = self._parts[code]
        return result

    def encode(self, assignment: Mapping[int, str]) -> Dict[int, bool]:
        """Encode ``{process: part}`` as a current-variable truth assignment."""
        model: Dict[int, bool] = {}
        for index in self._indices:
            try:
                code = self._part_codes[assignment[index]]
            except KeyError:
                raise StructureError(
                    "global state is missing a valid part for process %d" % index
                ) from None
            block = self._block(index)
            for bit in range(self._bits_per_process):
                model[2 * (block + bit)] = bool(code >> bit & 1)
        return model
