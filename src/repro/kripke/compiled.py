"""The bitset table: how every explicit Kripke structure is stored.

The naive model checkers iterate Python ``frozenset``s of hashable states,
which dominates the running time of every fixpoint once the token-ring/product
structures grow.  A :class:`~repro.kripke.structure.KripkeStructure` is
therefore stored as a :class:`CompiledKripkeStructure` of integer-indexed
arrays:

* a state table assigning each state a dense index in ``range(|S|)``;
* successor/predecessor adjacency lists (tuples of state indices) plus the
  same relations as per-state *bitmasks* stored in arbitrary-precision ints;
* one bitmask per atomic proposition recording the states it labels.

A set of states is then a single Python int (bit ``i`` set iff state ``i`` is
in the set), so complement, union and intersection are one machine-word-per-64
-states operations instead of per-element hash lookups.  The table is
immutable and shared: every checker of a structure runs on the one table it
was built as (see :class:`repro.mc.bitset.BitsetCTLModelChecker`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, KeysView, List, Tuple

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
    """The immutable integer-indexed table a Kripke structure is stored as.

    Tables are made by :meth:`from_table`, which the structure's constructor
    and :func:`repro.kripke.builders.build_reachable` call.  State indices
    follow the states' ``repr`` order, so two structures built from the same
    states, transitions and labels have equal tables.  An indexed source
    keeps its index set, so the ``Θ_i P_i`` proposition stays decidable on
    the table.
    """

    @classmethod
    def from_table(
        cls,
        source: KripkeStructure,
        states: Tuple[State, ...],
        succ_lists: List[Tuple[int, ...]],
        prop_masks: Dict[Label, int],
    ) -> "CompiledKripkeStructure":
        """The table of ``source``.

        ``states`` must be in ``repr`` order, ``succ_lists[i]`` the sorted,
        duplicate-free successor indices of ``states[i]`` and ``prop_masks``
        the states each label element holds in.
        """
        table = cls.__new__(cls)
        table._source = source
        table._state_of = states
        table._index_of = index_of = dict(zip(states, range(len(states))))
        table._state_set = None
        n = len(states)
        table._num_states = n
        table._all_mask = (1 << n) - 1
        try:
            table._initial_index = index_of[source.initial_state]
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
        table._succ_lists = tuple(succ_lists)
        table._succ_masks = tuple(succ_masks)
        table._pred_lists = tuple(tuple(sources) for sources in pred_sets)
        pred_masks: List[int] = []
        for sources in pred_sets:
            mask = 0
            for s in sources:
                mask |= 1 << s
            pred_masks.append(mask)
        table._pred_masks = tuple(pred_masks)
        table._prop_masks = prop_masks
        table._exactly_one_masks = {}
        return table

    # -- basic accessors -----------------------------------------------------

    @property
    def source(self) -> KripkeStructure:
        """The structure stored as this table."""
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

    @property
    def state_set(self) -> FrozenSet[State]:
        """The states as a frozenset, built on first use."""
        if self._state_set is None:
            self._state_set = frozenset(self._state_of)
        return self._state_set

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
        # Only indexed structures have an index set I (Θ_i P_i needs it).
        index_values = getattr(self._source, "index_values", None)
        if index_values is None:
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
        for value in index_values:
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
    """The bitset table ``structure`` is stored as (a table is its own)."""
    if isinstance(structure, CompiledKripkeStructure):
        return structure
    return structure._table
