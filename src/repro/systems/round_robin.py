"""A round-robin token scheduler: the second identical-process application.

The family is a simplification of the Section 5 ring in the spirit of
Milner's cyclic scheduler: the token circulates unconditionally, and the
process holding the token first enters its critical region and then passes
the token to its right neighbour.  There is no request/delay phase, so the
global behaviour is a deterministic cycle of ``2·n`` states — small enough to
analyse at large sizes, yet rich enough to exercise the whole pipeline:
indexed labelling, ICTL* model checking, reduction, and correspondence
between instances of different sizes.

The family is built with the generic :class:`SharedVariableComposition`
machinery (shared variable = token position) rather than by hand, so it also
serves as the reference example for composing custom families.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.errors import StructureError
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp
from repro.logic.ast import Formula
from repro.logic.builders import AF, AG, exactly_one, iatom, implies, index_forall
from repro.network.composition import SharedVariableComposition
from repro.network.process import LocalTransition, ProcessTemplate

if TYPE_CHECKING:
    from repro.correspondence.indexed import IndexRelation

__all__ = [
    "round_robin_template",
    "round_robin_composition",
    "build_round_robin",
    "round_robin_index_relation",
    "property_token_leads_to_critical",
    "property_always_eventually_critical",
    "property_critical_implies_token",
    "property_one_token",
    "round_robin_properties",
]


def round_robin_template(size: int) -> ProcessTemplate:
    """The per-process template: ``idle`` → ``critical`` when holding the token, then pass it on.

    The guard reads the shared token position; the update moves the token to
    the right neighbour on the ring ``1..size``.
    """

    def holds_token(shared, index, _locals) -> bool:
        return shared == index

    def pass_token(shared, index, _locals):
        return index % size + 1

    return ProcessTemplate(
        name="round-robin",
        states=["idle", "critical"],
        initial_state="idle",
        labels={"idle": set(), "critical": {"c"}},
        transitions=[
            LocalTransition("idle", "critical", action="enter", guard=holds_token),
            LocalTransition("critical", "idle", action="leave", update=pass_token),
        ],
    )


def round_robin_composition(size: int) -> SharedVariableComposition:
    """The lazy composition of ``size`` round-robin processes (token initially at process 1)."""
    if size < 1:
        raise StructureError("the scheduler needs at least one process")

    def shared_labeler(shared):
        return {IndexedProp("t", shared)}

    return SharedVariableComposition(
        round_robin_template(size),
        size=size,
        shared_initial=1,
        shared_labeler=shared_labeler,
        name="round_robin(%d)" % size,
    )


def build_round_robin(size: int) -> IndexedKripkeStructure:
    """Build the explicit global state graph of the ``size``-process scheduler."""
    return round_robin_composition(size).build()


def round_robin_index_relation(size: int) -> IndexRelation:
    """The ``IN`` relation used to transfer results from the 2-process to the ``size``-process scheduler."""
    from repro.correspondence.indexed import IndexRelation

    return IndexRelation.pivot(range(1, 3), range(1, size + 1), pivot=1)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def property_token_leads_to_critical() -> Formula:
    """``∧_i AG(t_i ⇒ AF c_i)``: the token holder eventually enters its critical region."""
    return index_forall("i", AG(implies(iatom("t", "i"), AF(iatom("c", "i")))))


def property_always_eventually_critical() -> Formula:
    """``∧_i AG AF c_i``: every process is critical infinitely often."""
    return index_forall("i", AG(AF(iatom("c", "i"))))


def property_critical_implies_token() -> Formula:
    """``∧_i AG(c_i ⇒ t_i)``: only the token holder is ever critical."""
    return index_forall("i", AG(implies(iatom("c", "i"), iatom("t", "i"))))


def property_one_token() -> Formula:
    """``AG Θ_i t_i``: exactly one process holds the token."""
    return AG(exactly_one("t"))


def round_robin_properties() -> Dict[str, Formula]:
    """All round-robin properties, keyed by a short name."""
    return {
        "token_leads_to_critical": property_token_leads_to_critical(),
        "always_eventually_critical": property_always_eventually_critical(),
        "critical_implies_token": property_critical_implies_token(),
        "one_token": property_one_token(),
    }
