"""Incremental builders for Kripke structures.

The builders exist so that example systems and tests can describe structures
state by state without assembling the full dictionaries by hand, and
:func:`build_reachable` is the one reachable-state exploration that every
explicit process family (the Section 5 token ring, the mutex and counter
families, template compositions and the Section 6 products) freezes into an
indexed structure.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.errors import ReproError, StructureError
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import KripkeStructure, Label, State, label_masks
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

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

    Depth-first over ``successors``; each state is numbered when first found
    and each explored state keeps its successors as numbers.  The graph is
    then renumbered in ``repr`` order and emitted directly as the bitset
    table of :class:`~repro.kripke.compiled.CompiledKripkeStructure`, labelled
    by ``label``, with no dict-of-sets structure in between (see
    :meth:`IndexedKripkeStructure.from_table`).  When the exploration finds
    more than ``max_states`` states it raises ``overflow(max_states)``, so
    every caller keeps its own error type and message.
    """
    number: Dict[State, int] = {initial: 0}
    found: List[State] = [initial]
    rows: List[List[int]] = [[]]
    frontier = [0]
    while frontier:
        current = frontier.pop()
        row = rows[current]
        for target in successors(found[current]):
            fresh = len(found)
            j = number.setdefault(target, fresh)
            if j == fresh:
                found.append(target)
                rows.append([])
                frontier.append(j)
                if max_states is not None and fresh >= max_states:
                    raise overflow(max_states)
            row.append(j)

    with _span("build.compile", kind="bitset") as sp:
        # The table's order is the one every compile uses: states by repr.
        keys = [repr(state) for state in found]
        order = sorted(range(len(found)), key=keys.__getitem__)
        rank = [0] * len(found)
        for position, i in enumerate(order):
            rank[i] = position
        states = tuple(found[i] for i in order)
        succ_lists = [tuple(sorted({rank[j] for j in rows[i]})) for i in order]
        structure = IndexedKripkeStructure.from_table(
            states,
            succ_lists,
            label_masks(map(label, states)),
            initial,
            index_values=index_values,
            indexed_prop_names=indexed_prop_names,
            name=name,
        )
        sp.set(states=len(states))
    _metrics.gauge("build.states").set(len(states))
    return structure


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
