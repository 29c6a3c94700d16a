"""The small illustrative examples of Figs. 3.1 and 4.1 and the next-time counting example.

* **Fig. 3.1** illustrates corresponding structures: a two-state loop and a
  four-state loop that stutter on the same labelling.  In the paper's
  narrative one pair of states "exactly matches" (degree 0) while another
  needs two transitions to reach an exact match (degree 2).
* **Fig. 4.1** is the program used to show that *unrestricted* nesting of
  index quantifiers can count processes: each process starts with ``A`` true
  and can switch permanently to ``B``; the nested formula
  ``∨_{i1}(A_{i1} ∧ EF(B_{i1} ∧ ∨_{i2}(A_{i2} ∧ EF(B_{i2} ∧ …))))`` with ``m``
  levels holds exactly when the network has at least ``m`` processes.
* The **next-time counting** example from Section 2: on a ring in which the
  token moves one position per global transition, ``AG(t_1 ⇒ XXX t_1)``
  counts the ring size — the reason the paper's CTL* omits ``X``.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import StructureError
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp, KripkeStructure
from repro.logic.ast import Formula
from repro.logic.builders import AG, EF, X, iatom, implies, index_exists, land
from repro.network.free_product import free_product
from repro.network.process import LocalTransition, ProcessTemplate

__all__ = [
    "fig31_left_structure",
    "fig31_right_structure",
    "fig31_structures",
    "fig41_template",
    "fig41_network",
    "fig41_counting_formula",
    "circulating_token_ring",
    "nexttime_counting_formula",
]


# ---------------------------------------------------------------------------
# Fig. 3.1 — corresponding structures
# ---------------------------------------------------------------------------


def fig31_left_structure() -> KripkeStructure:
    """The small structure of Fig. 3.1: a two-state loop alternating labels ``{p}`` and ``{q}``."""
    return KripkeStructure(
        states=["s1", "s2"],
        transitions=[("s1", "s2"), ("s2", "s1")],
        labeling={"s1": {"p"}, "s2": {"q"}},
        initial_state="s1",
        name="fig31-left",
    )


def fig31_right_structure() -> KripkeStructure:
    """The large structure of Fig. 3.1: the same behaviour with the ``{p}`` phase stuttered three times.

    State ``s1''`` (the last ``{p}`` state before the label changes) exactly
    matches the left structure's ``s1``; the first ``{p}`` state ``s1'`` needs
    two transitions before an exact match is reached, so it corresponds to
    ``s1`` with degree 2.
    """
    return KripkeStructure(
        states=["s1'", "s1''", "s1'''", "s2'"],
        transitions=[("s1'", "s1''"), ("s1''", "s1'''"), ("s1'''", "s2'"), ("s2'", "s1'")],
        labeling={"s1'": {"p"}, "s1''": {"p"}, "s1'''": {"p"}, "s2'": {"q"}},
        initial_state="s1'",
        name="fig31-right",
    )


def fig31_structures() -> Tuple[KripkeStructure, KripkeStructure]:
    """Both Fig. 3.1 structures, left (small) first."""
    return fig31_left_structure(), fig31_right_structure()


# ---------------------------------------------------------------------------
# Fig. 4.1 — the counting program
# ---------------------------------------------------------------------------


def fig41_template() -> ProcessTemplate:
    """The Fig. 4.1 process: starts with ``A`` true, may switch permanently to ``B``."""
    return ProcessTemplate(
        name="fig41",
        states=["start", "done"],
        initial_state="start",
        labels={"start": {"A"}, "done": {"B"}},
        transitions=[LocalTransition("start", "done", action="switch")],
    )


def fig41_network(size: int) -> IndexedKripkeStructure:
    """The free product of ``size`` Fig. 4.1 processes (they do not interact)."""
    return free_product(fig41_template(), size, name="fig41(%d)" % size)


def fig41_counting_formula(depth: int) -> Formula:
    """The nested counting formula with ``depth`` levels of ``∨_i``.

    ``depth = 1`` gives ``∨_i (A_i ∧ EF B_i)``; each further level nests
    another quantifier inside the ``EF``.  Because a process that has switched
    to ``B`` never satisfies ``A`` again, each level must pick a *different*
    process, so the formula sets a lower bound of ``depth`` on the number of
    processes.  The formula deliberately violates the ICTL* restrictions
    (nested quantifiers, quantifiers inside ``EF``); evaluate it with
    ``enforce_restrictions=False``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    formula: Formula | None = None
    for level in range(depth, 0, -1):
        variable = "i%d" % level
        a_i = iatom("A", variable)
        b_i = iatom("B", variable)
        body = b_i if formula is None else land(b_i, formula)
        formula = index_exists(variable, land(a_i, EF(body)))
    assert formula is not None
    return formula


# ---------------------------------------------------------------------------
# Section 2 — the next-time counting example
# ---------------------------------------------------------------------------


def circulating_token_ring(size: int) -> IndexedKripkeStructure:
    """A ring in which the token moves one position to the right per global transition.

    The structure has exactly ``size`` global states (one per token position)
    arranged in a cycle and is labelled with ``t_i`` for the current holder.
    It is the minimal model of the Section 2 remark that the next-time
    operator can count processes.
    """
    if size < 1:
        raise StructureError("the ring needs at least one process")
    states = list(range(1, size + 1))
    transitions = [(holder, holder % size + 1) for holder in states]
    labeling = {holder: {IndexedProp("t", holder)} for holder in states}
    return IndexedKripkeStructure(
        states,
        transitions,
        labeling,
        initial_state=1,
        index_values=states,
        indexed_prop_names={"t"},
        name="circulating(%d)" % size,
    )


def nexttime_counting_formula(steps: int = 3) -> Formula:
    """``AG(t_1 ⇒ X…X t_1)`` with ``steps`` next-time operators.

    On :func:`circulating_token_ring` the formula holds precisely when the
    ring size divides ``steps`` — with the default three steps, only for rings
    of size 1 or 3 — which is why the paper's logic excludes ``X``.
    """
    target: Formula = iatom("t", 1)
    for _ in range(steps):
        target = X(target)
    return AG(implies(iatom("t", 1), target))
