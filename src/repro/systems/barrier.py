"""A synchronisation-barrier family: the third identical-process application.

``n`` identical workers alternate between *working* and *waiting at a
barrier*.  Reaching the barrier is an individual step; leaving it is a single
broadcast step that releases every worker at once as soon as the last one has
arrived.  The broadcast is modelled with a :class:`GlobalRule` — a transition
in which several processes move simultaneously — which the Section 5 ring does
not need, so the family exercises a different corner of the composition
machinery.

The interesting properties are phrased in restricted ICTL* and hold for every
family size, which makes the barrier a natural second target for the
correspondence-based parameterized-verification workflow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.errors import StructureError
from repro.kripke.indexed import IndexedKripkeStructure
from repro.logic.ast import Formula
from repro.logic.builders import AF, AG, AU, iatom, implies, index_forall
from repro.network.composition import GlobalRule, SharedVariableComposition
from repro.network.process import LocalTransition, ProcessTemplate

if TYPE_CHECKING:
    from repro.correspondence.indexed import IndexRelation

__all__ = [
    "barrier_template",
    "barrier_composition",
    "build_barrier",
    "barrier_index_relation",
    "property_barrier_released",
    "property_work_reaches_barrier",
    "property_waits_until_released",
    "barrier_properties",
]


def barrier_template() -> ProcessTemplate:
    """The per-worker template: ``working`` → ``waiting``; the release is a global rule."""
    return ProcessTemplate(
        name="barrier-worker",
        states=["working", "waiting"],
        initial_state="working",
        labels={"working": {"w"}, "waiting": {"b"}},
        transitions=[LocalTransition("working", "waiting", action="arrive")],
    )


def barrier_composition(size: int) -> SharedVariableComposition:
    """The lazy composition of ``size`` workers with the broadcast release rule."""
    if size < 1:
        raise StructureError("the barrier needs at least one worker")

    def all_waiting(_shared, locals_tuple) -> bool:
        return all(local == "waiting" for local in locals_tuple)

    def release(shared, locals_tuple):
        return shared, tuple("working" for _ in locals_tuple)

    rule = GlobalRule(name="release", guard=all_waiting, apply=release)
    return SharedVariableComposition(
        barrier_template(),
        size=size,
        shared_initial=None,
        global_rules=[rule],
        name="barrier(%d)" % size,
    )


def build_barrier(size: int) -> IndexedKripkeStructure:
    """Build the explicit global state graph of the ``size``-worker barrier."""
    return barrier_composition(size).build()


def barrier_index_relation(size: int) -> IndexRelation:
    """The ``IN`` relation used to transfer results from the 2-worker to the ``size``-worker barrier."""
    from repro.correspondence.indexed import IndexRelation

    return IndexRelation.pivot(range(1, 3), range(1, size + 1), pivot=1)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def property_barrier_released() -> Formula:
    """``∧_i AG(b_i ⇒ AF w_i)``: a waiting worker is eventually released."""
    return index_forall("i", AG(implies(iatom("b", "i"), AF(iatom("w", "i")))))


def property_work_reaches_barrier() -> Formula:
    """``∧_i AG(w_i ⇒ AF b_i)``: a working worker eventually reaches the barrier."""
    return index_forall("i", AG(implies(iatom("w", "i"), AF(iatom("b", "i")))))


def property_waits_until_released() -> Formula:
    """``∧_i AG(b_i ⇒ A[b_i U w_i])``: a waiting worker stays at the barrier until released."""
    b_i = iatom("b", "i")
    w_i = iatom("w", "i")
    return index_forall("i", AG(implies(b_i, AU(b_i, w_i))))


def barrier_properties() -> Dict[str, Formula]:
    """All barrier properties, keyed by a short name."""
    return {
        "barrier_released": property_barrier_released(),
        "work_reaches_barrier": property_work_reaches_barrier(),
        "waits_until_released": property_waits_until_released(),
    }
