"""Indexed Kripke structures: models of indexed CTL* (Section 4).

An indexed structure is ``M = (AP, IP, I, S, R, L, s0)``: a Kripke structure
whose labels may also contain *indexed* propositions drawn from ``IP × I``,
where ``I ⊆ ℕ`` is the set of process index values.  The global state graph of
a family of ``N`` identical processes is naturally an indexed structure: the
instance of proposition ``A`` belonging to process 5 is labelled ``A_5``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple, Union

from repro.errors import StructureError
from repro.kripke.structure import IndexedProp, KripkeStructure, Label, State
from repro.logic.ast import ExactlyOne, Formula

__all__ = ["IndexedKripkeStructure"]


class IndexedKripkeStructure(KripkeStructure):
    """A Kripke structure with indexed atomic propositions.

    Parameters
    ----------
    index_values:
        The index set ``I`` (process numbers).  Every indexed proposition in a
        label must use an index from this set.
    indexed_prop_names:
        The set ``IP`` of indexed proposition *names*.  When omitted it is
        inferred from the labels.
    Other parameters are as for :class:`repro.kripke.structure.KripkeStructure`.
    """

    def __init__(
        self,
        states: Iterable[State],
        transitions: Union[Iterable[Tuple[State, State]], Mapping[State, Iterable[State]]],
        labeling: Mapping[State, Iterable[Label]],
        initial_state: State,
        index_values: Iterable[int],
        indexed_prop_names: Iterable[str] | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(states, transitions, labeling, initial_state, name=name)
        self._set_index(index_values, indexed_prop_names)

    @classmethod
    def from_table(
        cls,
        states: Tuple[State, ...],
        succ_lists: List[Tuple[int, ...]],
        prop_masks: Dict[Label, int],
        initial_state: State,
        index_values: Iterable[int],
        indexed_prop_names: Iterable[str] | None = None,
        name: str | None = None,
    ) -> "IndexedKripkeStructure":
        """Freeze a state graph given directly as its bitset table.

        The arguments after ``prop_masks`` are as for the constructor; the
        first three are the table, laid out as
        :meth:`~repro.kripke.compiled.CompiledKripkeStructure.from_table`
        takes it.  The structure then checks on the table what the
        constructor checks after building its own.
        """
        structure = cls.__new__(cls)
        structure._freeze(states, succ_lists, prop_masks, initial_state, name)
        structure._set_index(index_values, indexed_prop_names)
        return structure

    def _set_index(
        self, index_values: Iterable[int], indexed_prop_names: Iterable[str] | None
    ) -> None:
        """Set ``I`` and ``IP``; check ``I`` is non-empty and every label lies in ``IP × I``."""
        self._index_values: FrozenSet[int] = frozenset(index_values)
        if not self._index_values:
            raise StructureError("an indexed Kripke structure needs a non-empty index set I")
        props = self.indexed_propositions
        inferred_names = {prop.name for prop in props}
        if indexed_prop_names is None:
            self._indexed_prop_names = frozenset(inferred_names)
        else:
            self._indexed_prop_names = frozenset(indexed_prop_names)
            unknown = inferred_names - self._indexed_prop_names
            if unknown:
                raise StructureError(
                    "labels use indexed propositions not declared in IP: %s" % sorted(unknown)
                )
        for prop in props:
            if prop.index not in self._index_values:
                raise StructureError(
                    "label uses index value %r which is not in the index set I" % (prop.index,)
                )

    # -- accessors -----------------------------------------------------------

    @property
    def index_values(self) -> FrozenSet[int]:
        """The index set ``I``."""
        return self._index_values

    @property
    def indexed_prop_names(self) -> FrozenSet[str]:
        """The set ``IP`` of indexed proposition names."""
        return self._indexed_prop_names

    # -- atomic satisfaction ---------------------------------------------------

    def atom_holds(self, state: State, formula: Formula) -> bool:
        """Decide an atomic formula, including the ``Θ_i P_i`` extension.

        ``Θ_i P_i`` ("exactly one") holds in a state precisely when there is
        exactly one index value ``c ∈ I`` with ``P_c`` in the state's label
        (Section 4 of the paper).
        """
        if isinstance(formula, ExactlyOne):
            label = self.label(state)
            count = sum(
                1
                for value in self._index_values
                if IndexedProp(formula.name, value) in label
            )
            return count == 1
        return super().atom_holds(state, formula)

    def count_index_values(self, state: State, prop_name: str) -> int:
        """Return how many index values satisfy ``prop_name`` in ``state``."""
        label = self.label(state)
        return sum(
            1 for value in self._index_values if IndexedProp(prop_name, value) in label
        )
