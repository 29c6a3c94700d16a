"""Incremental builders for Kripke structures.

The builders exist so that example systems and tests can describe structures
state by state without assembling the full dictionaries by hand, and
:func:`build_reachable` is the one reachable-state exploration that every
explicit process family (the Section 5 token ring, the mutex and counter
families, and template compositions) freezes into an indexed structure.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.errors import ReproError, StructureError
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import KripkeStructure, Label, State

__all__ = ["KripkeBuilder", "IndexedKripkeBuilder", "build_reachable"]


def build_reachable(
    initial: State,
    successors: Callable[[State], List[State]],
    label: Callable[[State], Iterable[Label]],
    index_values: Iterable[int],
    name: Optional[str],
    overflow: Callable[[int], ReproError],
    max_states: Optional[int] = None,
    indexed_prop_names: Optional[Iterable[str]] = None,
) -> IndexedKripkeStructure:
    """Explore the states reachable from ``initial`` and freeze them into a structure.

    Depth-first over ``successors``; each state is labelled by ``label``.
    When the exploration finds more than ``max_states`` states it raises
    ``overflow(max_states)``, so every caller keeps its own error type and
    message.
    """
    states = {initial}
    transitions: Dict[State, List[State]] = {}
    frontier = [initial]
    while frontier:
        current = frontier.pop()
        targets = successors(current)
        transitions[current] = targets
        for target in targets:
            if target not in states:
                states.add(target)
                frontier.append(target)
                if max_states is not None and len(states) > max_states:
                    raise overflow(max_states)
    labeling = {state: label(state) for state in states}
    return IndexedKripkeStructure(
        states,
        transitions,
        labeling,
        initial,
        index_values=index_values,
        indexed_prop_names=indexed_prop_names,
        name=name,
    )


class KripkeBuilder:
    """Mutable accumulator that freezes into a :class:`KripkeStructure`.

    Example
    -------
    >>> builder = KripkeBuilder(name="toggle")
    >>> builder.add_state("on", {"lit"})
    >>> builder.add_state("off", set())
    >>> builder.add_transition("on", "off")
    >>> builder.add_transition("off", "on")
    >>> structure = builder.build(initial_state="off")
    >>> structure.num_states
    2
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self._name = name
        self._states: Set[State] = set()
        self._labels: Dict[State, Set[Label]] = {}
        self._transitions: Dict[State, Set[State]] = {}
        self._initial: Optional[State] = None

    def add_state(self, state: State, labels: Iterable[Label] = ()) -> None:
        """Add ``state`` with the given labels; re-adding a state merges labels."""
        self._states.add(state)
        self._labels.setdefault(state, set()).update(labels)
        self._transitions.setdefault(state, set())

    def has_state(self, state: State) -> bool:
        """Return ``True`` when ``state`` has already been added."""
        return state in self._states

    def add_transition(self, source: State, target: State) -> None:
        """Add a transition; both endpoints must already have been added."""
        if source not in self._states:
            raise StructureError("transition source %r has not been added" % (source,))
        if target not in self._states:
            raise StructureError("transition target %r has not been added" % (target,))
        self._transitions[source].add(target)

    def set_initial(self, state: State) -> None:
        """Mark ``state`` as the initial state."""
        if state not in self._states:
            raise StructureError("initial state %r has not been added" % (state,))
        self._initial = state

    @property
    def num_states(self) -> int:
        """Number of states added so far."""
        return len(self._states)

    def build(self, initial_state: Optional[State] = None) -> KripkeStructure:
        """Freeze the accumulated data into an immutable :class:`KripkeStructure`."""
        initial = initial_state if initial_state is not None else self._initial
        if initial is None:
            raise StructureError("no initial state was provided")
        return KripkeStructure(
            self._states, self._transitions, self._labels, initial, name=self._name
        )


class IndexedKripkeBuilder(KripkeBuilder):
    """Builder variant that freezes into an :class:`IndexedKripkeStructure`."""

    def __init__(self, index_values: Iterable[int], name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self._index_values = frozenset(index_values)

    def build(self, initial_state: Optional[State] = None) -> IndexedKripkeStructure:
        initial = initial_state if initial_state is not None else self._initial
        if initial is None:
            raise StructureError("no initial state was provided")
        return IndexedKripkeStructure(
            self._states,
            self._transitions,
            self._labels,
            initial,
            index_values=self._index_values,
            name=self._name,
        )
