"""Composing a family of identical processes into a global indexed structure.

The composition interleaves the local transitions of ``n`` copies of a
:class:`~repro.network.process.ProcessTemplate`.  A copy's transition may be
guarded on (and may update) a *shared variable* — a token position, a
semaphore, a counter — which is how the example families synchronise without
a full process-algebra machinery.  In addition, *global rules* describe
transitions in which several processes move at once (e.g. a barrier release).

The global state is the pair ``(shared value, tuple of local states)``; the
resulting structure's labels are the local labels tagged with each process's
index value, plus whatever the optional ``shared_labeler`` contributes, so the
result is an :class:`~repro.kripke.indexed.IndexedKripkeStructure` ready for
ICTL* model checking and for the reduction/correspondence machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import CompositionError
from repro.kripke.builders import build_reachable
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp, Label
from repro.network.process import LocalState, ProcessTemplate

__all__ = ["GlobalState", "GlobalRule", "SharedVariableComposition"]

#: A global state of the composition: (shared variable value, local states).
GlobalState = Tuple[Hashable, Tuple[LocalState, ...]]


@dataclass(frozen=True)
class GlobalRule:
    """A transition in which several processes move simultaneously.

    ``guard`` receives the shared value and the tuple of local states;
    ``apply`` returns the new shared value and the new tuple of local states.
    Global rules model broadcast-style synchronisation such as a barrier
    release, which cannot be expressed as an interleaving of per-process
    moves.
    """

    name: str
    guard: Callable[[Hashable, Tuple[LocalState, ...]], bool]
    apply: Callable[[Hashable, Tuple[LocalState, ...]], Tuple[Hashable, Tuple[LocalState, ...]]]


class SharedVariableComposition:
    """Interleaved composition of ``n`` copies of a process template.

    Parameters
    ----------
    template:
        The process template to replicate.
    size:
        The number of copies; alternatively pass explicit ``index_values``.
    index_values:
        The index value of each copy (defaults to ``1..size``).
    shared_initial:
        Initial value of the shared variable (default ``None``, i.e. no shared
        state).
    shared_labeler:
        Optional callable mapping the shared value to extra label elements
        (plain strings or :class:`IndexedProp`) added to every state's label.
    global_rules:
        Optional broadcast-style rules (see :class:`GlobalRule`).
    """

    def __init__(
        self,
        template: ProcessTemplate,
        size: Optional[int] = None,
        index_values: Optional[Sequence[int]] = None,
        shared_initial: Hashable = None,
        shared_labeler: Optional[Callable[[Hashable], Iterable[Label]]] = None,
        global_rules: Sequence[GlobalRule] = (),
        name: Optional[str] = None,
    ) -> None:
        if index_values is None:
            if size is None or size < 1:
                raise CompositionError("provide a positive size or explicit index values")
            index_values = list(range(1, size + 1))
        values = list(index_values)
        if len(set(values)) != len(values):
            raise CompositionError("index values must be distinct")
        self._template = template
        self._index_values: Tuple[int, ...] = tuple(values)
        self._shared_initial = shared_initial
        self._shared_labeler = shared_labeler
        self._global_rules: Tuple[GlobalRule, ...] = tuple(global_rules)
        self._name = name or "%s×%d" % (template.name, len(values))

    # -- accessors -----------------------------------------------------------

    @property
    def size(self) -> int:
        """The number of copies."""
        return len(self._index_values)

    @property
    def index_values(self) -> Tuple[int, ...]:
        """The index value of each copy."""
        return self._index_values

    @property
    def initial_state(self) -> GlobalState:
        """The composed initial state."""
        locals_tuple = tuple(self._template.initial_state for _ in self._index_values)
        return (self._shared_initial, locals_tuple)

    # -- on-the-fly exploration --------------------------------------------------

    def successors(self, state: GlobalState) -> List[GlobalState]:
        """Return the successors of a global state (computed on the fly)."""
        shared, locals_tuple = state
        result: Set[GlobalState] = set()
        for position, index_value in enumerate(self._index_values):
            local_state = locals_tuple[position]
            for transition in self._template.transitions_from(local_state):
                if transition.guard is not None and not transition.guard(
                    shared, index_value, locals_tuple
                ):
                    continue
                new_shared = (
                    transition.update(shared, index_value, locals_tuple)
                    if transition.update is not None
                    else shared
                )
                new_locals = (
                    locals_tuple[:position] + (transition.target,) + locals_tuple[position + 1 :]
                )
                result.add((new_shared, new_locals))
        for rule in self._global_rules:
            if rule.guard(shared, locals_tuple):
                new_shared, new_locals = rule.apply(shared, locals_tuple)
                if len(new_locals) != len(locals_tuple):
                    raise CompositionError(
                        "global rule %r changed the number of processes" % rule.name
                    )
                result.add((new_shared, tuple(new_locals)))
        return sorted(result, key=repr)

    def label(self, state: GlobalState) -> Set[Label]:
        """Return the label of a global state (computed on the fly)."""
        shared, locals_tuple = state
        label: Set[Label] = set()
        for position, index_value in enumerate(self._index_values):
            for prop in self._template.label(locals_tuple[position]):
                label.add(IndexedProp(prop, index_value))
        if self._shared_labeler is not None:
            label.update(self._shared_labeler(shared))
        return label

    # -- explicit construction -----------------------------------------------------

    def build(self, max_states: Optional[int] = None) -> IndexedKripkeStructure:
        """Explore the reachable global state space and build the indexed structure.

        Parameters
        ----------
        max_states:
            Optional safety bound; exploration raises :class:`CompositionError`
            when the reachable state space exceeds it (a guard against
            accidentally asking for the 1000-process ring explicitly).
        """
        return build_reachable(
            self.initial_state,
            self.successors,
            self.label,
            index_values=self._index_values,
            name=self._name,
            overflow=lambda bound: CompositionError(
                "reachable state space exceeds the max_states bound of %d" % bound
            ),
            max_states=max_states,
        )
