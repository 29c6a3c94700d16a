"""Kripke structures: the models of CTL* (Section 2 of the paper).

A Kripke structure is a tuple ``M = (S, R, L, s0)`` where ``S`` is a finite
set of states, ``R ⊆ S × S`` is a *total* transition relation, ``L`` labels
each state with the atomic propositions true in it, and ``s0`` is the initial
state.

States are arbitrary hashable Python objects — the library never imposes an
encoding.  Labels are sets whose elements are either plain strings (the
non-indexed propositions ``AP``) or :class:`IndexedProp` values (the indexed
propositions ``IP × I`` used by :class:`repro.kripke.indexed.IndexedKripkeStructure`).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Set,
    Tuple,
    Union,
)

from repro.errors import StructureError
from repro.logic.ast import Atom, ExactlyOne, Formula, IndexedAtom

__all__ = ["State", "IndexedProp", "Label", "KripkeStructure"]

#: States are opaque hashable objects.
State = Hashable


class IndexedProp(NamedTuple):
    """An indexed atomic proposition ``name_index`` attached to a state label.

    ``index`` is normally a concrete process number; the reduction ``M|_i``
    (see :mod:`repro.kripke.reduction`) rewrites it to the canonical sentinel
    ``"*"`` so that reductions taken at different index values become directly
    comparable.
    """

    name: str
    index: Union[int, str]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "%s[%s]" % (self.name, self.index)


#: A label element is either a plain proposition name or an indexed proposition.
Label = Union[str, IndexedProp]

#: The dict-of-sets view a structure decodes from its table on first use
#: (see :meth:`KripkeStructure.__getattr__`).
_VIEW_FIELDS = frozenset({"_successors", "_predecessors", "_labels"})


def label_masks(labels: Iterable[Iterable[Label]]) -> Dict[Label, int]:
    """The proposition masks of a table whose ``i``-th state is labelled ``labels[i]``."""
    masks: Dict[Label, int] = {}
    for i, label in enumerate(labels):
        bit = 1 << i
        for element in label:
            masks[element] = masks.get(element, 0) | bit
    return masks


class KripkeStructure:
    """A finite Kripke structure ``(S, R, L, s0)``.

    Parameters
    ----------
    states:
        The state set.  May be any iterable of hashable objects.
    transitions:
        Either an iterable of ``(source, target)`` pairs or a mapping from a
        state to an iterable of its successors.
    labeling:
        Mapping from each state to the collection of propositions true in it.
        States missing from the mapping are labelled with the empty set.
    initial_state:
        The distinguished initial state ``s0``; must be a member of ``states``.
    name:
        Optional human-readable name used in reports and exports.

    Notes
    -----
    The constructor does *not* require the transition relation to be total;
    call :func:`repro.kripke.validation.validate` (or pass the structure
    through :func:`repro.kripke.reachable.restrict_to_reachable`) before model
    checking, since the CTL*/CTL semantics of the paper assume totality.

    A structure is stored as its bitset table
    (:class:`~repro.kripke.compiled.CompiledKripkeStructure`), built by the
    constructor or handed over by
    :func:`repro.kripke.builders.build_reachable`.  The sizes, state set,
    totality and label elements are read from the table; the dict-of-sets
    view behind :meth:`successors`, :meth:`predecessors` and :meth:`label`
    is decoded from it on first use.
    """

    def __init__(
        self,
        states: Iterable[State],
        transitions: Union[Iterable[Tuple[State, State]], Mapping[State, Iterable[State]]],
        labeling: Mapping[State, Iterable[Label]],
        initial_state: State,
        name: str | None = None,
    ) -> None:
        state_set = frozenset(states)
        if not state_set:
            raise StructureError("a Kripke structure must have at least one state")
        if initial_state not in state_set:
            raise StructureError("initial state %r is not a member of the state set" % (initial_state,))
        # The table's order: states by repr.
        ordered = tuple(sorted(state_set, key=repr))
        index_of = dict(zip(ordered, range(len(ordered))))
        targets: List[Set[int]] = [set() for _ in ordered]
        if isinstance(transitions, Mapping):
            transitions = ((s, t) for s, ends in transitions.items() for t in ends)
        for source, target in transitions:
            if source not in index_of:
                raise StructureError("transition source %r is not a state" % (source,))
            if target not in index_of:
                raise StructureError("transition target %r is not a state" % (target,))
            targets[index_of[source]].add(index_of[target])
        labels: List[Iterable[Label]] = [()] * len(ordered)
        for state, props in labeling.items():
            if state not in index_of:
                raise StructureError("labelled state %r is not a state" % (state,))
            labels[index_of[state]] = props
        succ_lists = [tuple(sorted(successors)) for successors in targets]
        self._freeze(ordered, succ_lists, label_masks(labels), initial_state, name)

    def _freeze(self, states, succ_lists, prop_masks, initial_state, name) -> None:
        """Store the structure as the table ``(states, succ_lists, prop_masks)``."""
        from repro.kripke.compiled import CompiledKripkeStructure

        self._initial_state = initial_state
        self._name = name
        self._table = CompiledKripkeStructure.from_table(self, states, succ_lists, prop_masks)

    def __getattr__(self, name: str):
        # Only reached for attributes the instance lacks: the view fields,
        # until this first read decodes them from the table.
        if name in _VIEW_FIELDS:
            self._decode_view()
            return self.__dict__[name]
        raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))

    def _decode_view(self) -> None:
        table = self._table
        states = table.states
        self._successors = {
            state: frozenset(states[t] for t in table.successors_of(i))
            for i, state in enumerate(states)
        }
        self._predecessors = {
            state: frozenset(states[s] for s in table.predecessors_of(i))
            for i, state in enumerate(states)
        }
        self._labels = dict(zip(states, table.labels()))

    # -- basic accessors -----------------------------------------------------

    @property
    def name(self) -> str | None:
        """Optional human-readable name of the structure."""
        return self._name

    @property
    def states(self) -> FrozenSet[State]:
        """The state set ``S``."""
        return self._table.state_set

    @property
    def initial_state(self) -> State:
        """The initial state ``s0``."""
        return self._initial_state

    @property
    def num_states(self) -> int:
        """``|S|``."""
        return self._table.num_states

    @property
    def num_transitions(self) -> int:
        """``|R|``."""
        return self._table.num_transitions

    def successors(self, state: State) -> FrozenSet[State]:
        """The successors of ``state`` under ``R``."""
        try:
            return self._successors[state]
        except KeyError:
            raise StructureError("%r is not a state of this structure" % (state,)) from None

    def predecessors(self, state: State) -> FrozenSet[State]:
        """The predecessors of ``state`` under ``R``."""
        try:
            return self._predecessors[state]
        except KeyError:
            raise StructureError("%r is not a state of this structure" % (state,)) from None

    def transition_pairs(self) -> Iterator[Tuple[State, State]]:
        """Iterate over all ``(source, target)`` transition pairs, in table order."""
        table = self._table
        states = table.states
        for i, source in enumerate(states):
            for t in table.successors_of(i):
                yield (source, states[t])

    def label(self, state: State) -> FrozenSet[Label]:
        """The label ``L(state)``."""
        try:
            return self._labels[state]
        except KeyError:
            raise StructureError("%r is not a state of this structure" % (state,)) from None

    @property
    def atomic_propositions(self) -> FrozenSet[str]:
        """The non-indexed proposition names occurring in any label."""
        return frozenset(e for e in self._table.label_elements() if isinstance(e, str))

    @property
    def indexed_propositions(self) -> FrozenSet[IndexedProp]:
        """The indexed propositions occurring in any label."""
        return frozenset(e for e in self._table.label_elements() if isinstance(e, IndexedProp))

    def is_total(self) -> bool:
        """Return ``True`` when every state has at least one successor."""
        return self._table.is_total()

    def __contains__(self, state: State) -> bool:
        return state in self.states

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        descriptor = self._name or self.__class__.__name__
        return "<%s: %d states, %d transitions>" % (descriptor, self.num_states, self.num_transitions)

    # -- atomic satisfaction -------------------------------------------------

    def atom_holds(self, state: State, formula: Formula) -> bool:
        """Decide an atomic formula at ``state``.

        Plain :class:`~repro.logic.ast.Atom` nodes are looked up as strings in
        the label; :class:`~repro.logic.ast.IndexedAtom` nodes must carry a
        concrete (integer or canonical ``"*"``) index and are looked up as
        :class:`IndexedProp` values.  :class:`~repro.logic.ast.ExactlyOne`
        requires an :class:`repro.kripke.indexed.IndexedKripkeStructure`.
        """
        if isinstance(formula, Atom):
            return formula.name in self.label(state)
        if isinstance(formula, IndexedAtom):
            return IndexedProp(formula.name, formula.index) in self.label(state)
        if isinstance(formula, ExactlyOne):
            raise StructureError(
                "the Θ ('exactly one') proposition is only meaningful on an "
                "IndexedKripkeStructure with a known index set"
            )
        raise StructureError("atom_holds expects an atomic formula, got %r" % (formula,))

    # -- derived structures ---------------------------------------------------

    def with_labels(self, relabel) -> "KripkeStructure":
        """Return a copy of the structure with each label replaced by ``relabel(state, label)``."""
        return self._relabelled(relabel, self._name)

    def _relabelled(self, relabel, name: str | None) -> "KripkeStructure":
        """A plain structure named ``name`` sharing this table's states and successor lists."""
        table = self._table
        labels = [relabel(state, label) for state, label in zip(table.states, table.labels())]
        succ_lists = [table.successors_of(i) for i in range(table.num_states)]
        relabelled = KripkeStructure.__new__(KripkeStructure)
        relabelled._freeze(table.states, succ_lists, label_masks(labels), self._initial_state, name)
        return relabelled

    def to_dict(self) -> dict:
        """Return a JSON-serialisable description (states become their ``repr``, in table order)."""
        table = self._table
        return {
            "name": self._name,
            "states": [repr(state) for state in table.states],
            "initial": table.initial_index,
            "transitions": [
                [i, t] for i in range(table.num_states) for t in table.successors_of(i)
            ],
            "labels": {
                str(i): sorted(str(element) for element in label)
                for i, label in enumerate(table.labels())
            },
        }
