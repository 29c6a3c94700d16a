"""Compiled explicit-state representation of a Kripke structure.

The naive model checkers iterate Python ``frozenset``s of hashable states,
which dominates the running time of every fixpoint once the token-ring/product
structures grow.  :class:`CompiledKripkeStructure` freezes a
:class:`~repro.kripke.structure.KripkeStructure` into integer-indexed arrays:

* a state table assigning each state a dense index in ``range(|S|)``;
* successor/predecessor adjacency lists (tuples of state indices) plus the
  same relations as per-state *bitmasks* stored in arbitrary-precision ints;
* one bitmask per atomic proposition recording the states it labels.

A set of states is then a single Python int (bit ``i`` set iff state ``i`` is
in the set), so complement, union and intersection are one machine-word-per-64
-states operations instead of per-element hash lookups.  The compiled form is
immutable and shared: compile once, check a whole family of formulas against
it (see :class:`repro.mc.bitset.BitsetCTLModelChecker`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, KeysView, List, Optional, Tuple

from repro.errors import StructureError
from repro.kripke.structure import (
    IndexedProp,
    KripkeStructure,
    Label,
    State,
)
from repro.logic.ast import (
    Atom,
    ExactlyOne,
    FalseLiteral,
    Formula,
    IndexedAtom,
    TrueLiteral,
)

__all__ = ["CompiledKripkeStructure", "bits_of", "popcount", "compile_structure"]


try:  # int.bit_count is Python >= 3.10; keep 3.9 working.
    (0).bit_count

    def popcount(mask: int) -> int:
        """The number of set bits in ``mask`` (the size of the encoded state set)."""
        return mask.bit_count()

except AttributeError:  # pragma: no cover - exercised only on Python 3.9

    def popcount(mask: int) -> int:
        """The number of set bits in ``mask`` (the size of the encoded state set)."""
        return bin(mask).count("1")


def bits_of(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CompiledKripkeStructure:
    """An immutable integer-indexed view of a Kripke structure.

    Parameters
    ----------
    source:
        The structure to compile.  Indexed structures keep their index set so
        that the ``Θ_i P_i`` proposition stays decidable on the compiled form.

    Notes
    -----
    State indices are assigned by sorting states on their ``repr`` — the same
    deterministic order :meth:`KripkeStructure.to_dict` uses — so two compiles
    of the same structure agree bit-for-bit.
    """

    def __init__(self, source: KripkeStructure) -> None:
        ordered = tuple(sorted(source.states, key=repr))
        index_of = {state: i for i, state in enumerate(ordered)}
        succ_lists = [
            tuple(sorted(index_of[t] for t in source.successors(state))) for state in ordered
        ]
        prop_masks: Dict[Label, int] = {}
        for i, state in enumerate(ordered):
            bit = 1 << i
            for element in source.label(state):
                prop_masks[element] = prop_masks.get(element, 0) | bit
        self._freeze(source, ordered, index_of, succ_lists, prop_masks)

    @classmethod
    def from_table(
        cls,
        source: KripkeStructure,
        states: Tuple[State, ...],
        succ_lists: List[Tuple[int, ...]],
        prop_masks: Dict[Label, int],
    ) -> "CompiledKripkeStructure":
        """The compiled form of ``source``, handed over as its table.

        ``states`` must be in ``repr`` order (the order :meth:`__init__`
        assigns), ``succ_lists[i]`` the sorted, duplicate-free successor
        indices of ``states[i]`` and ``prop_masks`` the states each label
        element holds in.  This is how
        :func:`repro.kripke.builders.build_reachable` emits an explored
        graph without a dict-of-sets structure in between.
        """
        table = cls.__new__(cls)
        index_of = dict(zip(states, range(len(states))))
        table._freeze(source, states, index_of, succ_lists, prop_masks)
        return table

    def _freeze(
        self,
        source: KripkeStructure,
        states: Tuple[State, ...],
        index_of: Dict[State, int],
        succ_lists: List[Tuple[int, ...]],
        prop_masks: Dict[Label, int],
    ) -> None:
        self._source = source
        self._state_of: Tuple[State, ...] = states
        self._index_of: Dict[State, int] = index_of
        n = len(states)
        self._num_states = n
        self._all_mask = (1 << n) - 1
        try:
            self._initial_index = index_of[source.initial_state]
        except KeyError:
            raise StructureError(
                "initial state %r is not a member of the state set" % (source.initial_state,)
            ) from None

        succ_masks: List[int] = []
        pred_sets: List[List[int]] = [[] for _ in range(n)]
        for i, targets in enumerate(succ_lists):
            mask = 0
            for t in targets:
                mask |= 1 << t
                pred_sets[t].append(i)
            succ_masks.append(mask)
        self._succ_lists = tuple(succ_lists)
        self._succ_masks = tuple(succ_masks)
        self._pred_lists = tuple(tuple(sources) for sources in pred_sets)
        pred_masks: List[int] = []
        for sources in pred_sets:
            mask = 0
            for s in sources:
                mask |= 1 << s
            pred_masks.append(mask)
        self._pred_masks = tuple(pred_masks)
        self._prop_masks = prop_masks

        # Only indexed structures have an index set I (Θ_i P_i needs it).
        self._index_values: Optional[FrozenSet[int]] = getattr(source, "index_values", None)
        self._exactly_one_masks: Dict[str, int] = {}

    # -- basic accessors -----------------------------------------------------

    @property
    def source(self) -> KripkeStructure:
        """The structure this compilation was built from."""
        return self._source

    @property
    def num_states(self) -> int:
        """``|S|``."""
        return self._num_states

    @property
    def num_transitions(self) -> int:
        """``|R|``."""
        return sum(len(targets) for targets in self._succ_lists)

    @property
    def all_mask(self) -> int:
        """The bitmask encoding the full state set ``S``."""
        return self._all_mask

    @property
    def initial_index(self) -> int:
        """The index of the initial state ``s0``."""
        return self._initial_index

    @property
    def states(self) -> Tuple[State, ...]:
        """The state table: ``states[i]`` is the state with index ``i``."""
        return self._state_of

    def index_of(self, state: State) -> int:
        """The dense index assigned to ``state``."""
        try:
            return self._index_of[state]
        except KeyError:
            raise StructureError("%r is not a state of this structure" % (state,)) from None

    def state_of(self, index: int) -> State:
        """The state with dense index ``index``."""
        return self._state_of[index]

    def successors_of(self, index: int) -> Tuple[int, ...]:
        """Successor indices of the state with index ``index``."""
        return self._succ_lists[index]

    def predecessors_of(self, index: int) -> Tuple[int, ...]:
        """Predecessor indices of the state with index ``index``."""
        return self._pred_lists[index]

    def successor_mask(self, index: int) -> int:
        """Successors of state ``index`` as a bitmask."""
        return self._succ_masks[index]

    def predecessor_mask(self, index: int) -> int:
        """Predecessors of state ``index`` as a bitmask."""
        return self._pred_masks[index]

    def is_total(self) -> bool:
        """Return ``True`` when every state has at least one successor."""
        return all(self._succ_masks)

    def label_elements(self) -> KeysView[Label]:
        """Every proposition that labels at least one state."""
        return self._prop_masks.keys()

    def labels(self) -> List[FrozenSet[Label]]:
        """``labels()[i]`` is the label of the state with index ``i``."""
        members: List[List[Label]] = [[] for _ in range(self._num_states)]
        for element, mask in self._prop_masks.items():
            for i in bits_of(mask):
                members[i].append(element)
        return [frozenset(label) for label in members]

    # -- set <-> mask conversions ---------------------------------------------

    def mask_of(self, states: Iterable[State]) -> int:
        """Encode an iterable of states as a bitmask."""
        mask = 0
        index_of = self._index_of
        for state in states:
            try:
                mask |= 1 << index_of[state]
            except KeyError:
                raise StructureError("%r is not a state of this structure" % (state,)) from None
        return mask

    def states_of(self, mask: int) -> FrozenSet[State]:
        """Decode a bitmask back into a frozenset of states."""
        state_of = self._state_of
        return frozenset(state_of[i] for i in bits_of(mask))

    # -- atomic satisfaction ---------------------------------------------------

    def atom_mask(self, formula: Formula) -> int:
        """The bitmask of states satisfying an atomic formula.

        Handles ``true``/``false``, plain atoms, indexed atoms with concrete
        indices, and — when the source is an indexed structure — the
        ``Θ_i P_i`` ("exactly one") proposition.
        """
        if isinstance(formula, TrueLiteral):
            return self._all_mask
        if isinstance(formula, FalseLiteral):
            return 0
        if isinstance(formula, Atom):
            return self._prop_masks.get(formula.name, 0)
        if isinstance(formula, IndexedAtom):
            return self._prop_masks.get(IndexedProp(formula.name, formula.index), 0)
        if isinstance(formula, ExactlyOne):
            return self._exactly_one_mask(formula.name)
        raise StructureError("atom_mask expects an atomic formula, got %r" % (formula,))

    def _exactly_one_mask(self, name: str) -> int:
        if self._index_values is None:
            raise StructureError(
                "the Θ ('exactly one') proposition is only meaningful on an "
                "IndexedKripkeStructure with a known index set"
            )
        cached = self._exactly_one_masks.get(name)
        if cached is not None:
            return cached
        # A state satisfies Θ_i P_i iff exactly one index value labels it with
        # P; track "at least one" and "at least two" masks in one pass.
        at_least_one = 0
        at_least_two = 0
        for value in self._index_values:
            value_mask = self._prop_masks.get(IndexedProp(name, value), 0)
            at_least_two |= at_least_one & value_mask
            at_least_one |= value_mask
        result = at_least_one & ~at_least_two
        self._exactly_one_masks[name] = result
        return result

    # -- bulk transition images -------------------------------------------------

    def preimage(self, target: int) -> int:
        """States with at least one successor in ``target`` (the EX pre-image)."""
        result = 0
        pred_masks = self._pred_masks
        for i in bits_of(target):
            result |= pred_masks[i]
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = self._source.name or self._source.__class__.__name__
        return "<Compiled %s: %d states, %d transitions>" % (
            name,
            self._num_states,
            self.num_transitions,
        )


def compile_structure(structure: KripkeStructure) -> CompiledKripkeStructure:
    """Compile ``structure``, reusing an existing compilation for the same object.

    Structures are immutable after construction, so the compiled form is
    memoised on the structure itself: every checker/oracle touching the same
    object shares one compilation, and the memo's lifetime is exactly the
    structure's (no global cache to leak).
    """
    if isinstance(structure, CompiledKripkeStructure):
        return structure
    cached = getattr(structure, "_compiled_form", None)
    if cached is None:
        from repro.obs import metrics as _metrics
        from repro.obs.trace import span as _span

        with _span("build.compile", kind="bitset") as sp:
            cached = CompiledKripkeStructure(structure)
            sp.set(states=cached.num_states)
        _metrics.gauge("build.states").set(cached.num_states)
        structure._compiled_form = cached
    return cached
