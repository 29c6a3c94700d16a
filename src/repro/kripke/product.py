"""Products of Kripke structures.

Two product constructions are provided:

* :func:`interleaved_product` — the asynchronous (interleaving) product in
  which exactly one component moves per global transition.  This is the *free
  product* of Section 6 when the components do not interact; the global state
  graph of a family of non-communicating identical processes is obtained this
  way.
* :func:`synchronous_product` — every component moves simultaneously; included
  for completeness and used in tests of the correspondence machinery.

The components' labels are tagged with the component's index value, so the
result is an :class:`~repro.kripke.indexed.IndexedKripkeStructure` ready for
ICTL* model checking.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Callable, List, Sequence, Set, Tuple

from repro.errors import CompositionError
from repro.kripke.builders import build_reachable
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp, KripkeStructure, State

__all__ = ["interleaved_product", "synchronous_product"]

GlobalState = Tuple[State, ...]


def _tag_labels(
    components: Sequence[KripkeStructure], index_values: Sequence[int], global_state: GlobalState
) -> Set:
    label: Set = set()
    for component, index_value, local_state in zip(components, index_values, global_state):
        for element in component.label(local_state):
            if isinstance(element, IndexedProp):
                raise CompositionError(
                    "component structures must use plain (non-indexed) labels; "
                    "the product adds the index"
                )
            label.add(IndexedProp(element, index_value))
    return label


def _explore(
    components: Sequence[KripkeStructure],
    index_values: Sequence[int] | None,
    successors: Callable[[GlobalState], List[GlobalState]],
    name: str,
) -> IndexedKripkeStructure:
    """The product of ``components`` reachable under ``successors``, tagged by index value."""
    if not components:
        raise CompositionError("a product needs at least one component")
    if index_values is None:
        values = list(range(1, len(components) + 1))
    else:
        values = list(index_values)
    if len(values) != len(components):
        raise CompositionError(
            "got %d components but %d index values" % (len(components), len(values))
        )
    if len(set(values)) != len(values):
        raise CompositionError("index values must be distinct")
    return build_reachable(
        tuple(component.initial_state for component in components),
        successors,
        lambda state: _tag_labels(components, values, state),
        index_values=values,
        name=name,
        overflow=CompositionError,  # no max_states: the exploration is unbounded
    )


def interleaved_product(
    components: Sequence[KripkeStructure],
    index_values: Sequence[int] | None = None,
    name: str | None = None,
) -> IndexedKripkeStructure:
    """Return the interleaving (free) product of ``components``.

    Global states are tuples of component states; each global transition moves
    exactly one component along one of its local transitions.  Component
    labels (plain strings) become indexed propositions tagged with the
    component's index value.
    """

    def successors(current: GlobalState) -> List[GlobalState]:
        return [
            current[:position] + (local_successor,) + current[position + 1 :]
            for position, component in enumerate(components)
            for local_successor in component.successors(current[position])
        ]

    return _explore(components, index_values, successors, name or "interleaved_product")


def synchronous_product(
    components: Sequence[KripkeStructure],
    index_values: Sequence[int] | None = None,
    name: str | None = None,
) -> IndexedKripkeStructure:
    """Return the synchronous product of ``components`` (all components step together)."""

    def successors(current: GlobalState) -> List[GlobalState]:
        choices = [
            component.successors(local_state)
            for component, local_state in zip(components, current)
        ]
        return list(iter_product(*choices))

    return _explore(components, index_values, successors, name or "synchronous_product")
