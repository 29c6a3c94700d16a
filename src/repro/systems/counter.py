"""A saturating ripple counter: the diameter-stress family.

Each of ``n`` identical bit-processes is in part *zero* (``z_i``) or *one*
(``o_i``); process 1 is the least-significant bit.  The network increments:

1. *ripple-increment* (one rule per ``k``): if bits ``1 … k-1`` are all one
   and bit ``k`` is zero, they flip together — the carry ripples;
2. *saturate*: the all-ones state loops on itself.

Starting from value 1, the counter walks ``1, 2, …, 2^n − 1`` and parks —
so the reachable state space is a **single path of length ``2^n − 2``**.
That shape stresses each engine differently (the reason this family
exists; see ``docs/ENGINES.md``):

* **breadth-first symbolic traversal** advances one frontier per image,
  so it would take ``2^n − 2`` images — the classic sequential-circuit
  worst case, even though every intermediate BDD is small.  The BDD
  engine's reachability therefore switches to iterative squaring once
  frontier search has run a few rounds per state bit
  (:class:`~repro.kripke.symbolic.SymbolicKripkeStructure`), which
  covers the path in ``O(n)`` squaring steps: the counter's transitive
  closure is a small comparator;
* the SAT-based provers never build the reachable set: the safety property
  :func:`counter_nonzero` (``AG ¬zero`` — the counter never wraps) is
  inductive because the all-zero state has **no predecessors** (every
  increment sets a bit, saturation keeps all ones), so both IC3
  (``engine="ic3"``) and k-induction (``engine="bmc"``) prove it in
  milliseconds.

``buggy=True`` seeds the dual stress: a *wrap* rule from all-ones back to
all-zero.  The violation then sits at depth ``2^n − 1`` — a deep bug that
shallow bounded falsification cannot reach at the default bound, the
mirror image of the shallow seeded bugs of the ring and mutex families.

The usual two encodings: :func:`build_counter` (explicit, for the
naive/bitset oracles at small ``n``) and :func:`symbolic_counter` (direct
BDD encoding, one bit per process; ``domain="free"`` for the SAT engines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import StructureError
from repro.kripke.builders import build_reachable
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp
from repro.logic.ast import Formula
from repro.logic.builders import AG, iatom, land, lnot

__all__ = [
    "CounterState",
    "counter_initial_state",
    "counter_successors",
    "counter_state_label",
    "build_counter",
    "symbolic_counter",
    "counter_nonzero",
    "counter_family",
]

#: The part alphabet (one bit per process in the symbolic encoding) and the
#: indexed proposition a bit-process satisfies in each part.
_PART_PROPS = {"Z": ("z",), "O": ("o",)}


@dataclass(frozen=True)
class CounterState:
    """A global state: the tuple of bit-parts, process 1 least significant."""

    parts: Tuple[str, ...]

    def part_of(self, index: int) -> str:
        """The part (``"Z"`` or ``"O"``) of bit-process ``index``."""
        return self.parts[index - 1]

    @property
    def value(self) -> int:
        """The counter value this state encodes."""
        return sum(1 << i for i, part in enumerate(self.parts) if part == "O")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Counter(%s=%d)" % ("".join(self.parts), self.value)


def counter_initial_state(size: int) -> CounterState:
    """Value 1: the least-significant bit set — value 0 is never revisited."""
    if size < 1:
        raise StructureError("the counter needs at least one bit-process")
    return CounterState(parts=("O",) + ("Z",) * (size - 1))


def counter_successors(state: CounterState, buggy: bool = False) -> List[CounterState]:
    """Successors under ripple-increment and saturation (plus the seeded wrap).

    Deterministic: exactly one successor per state.  With ``buggy=True``
    the all-ones state wraps to all-zero instead of saturating, planting
    the ``AG ¬zero`` violation at depth ``2^n − 1`` from the initial state.
    """
    size = len(state.parts)
    for k in range(size):
        if state.parts[k] == "Z":
            parts = ("Z",) * k + ("O",) + state.parts[k + 1 :]
            return [CounterState(parts=parts)]
    if buggy:
        return [CounterState(parts=("Z",) * size)]
    return [state]


def counter_state_label(state: CounterState):
    """``z_i`` / ``o_i`` per bit-process."""
    return frozenset(
        IndexedProp(name, index)
        for index, part in enumerate(state.parts, start=1)
        for name in _PART_PROPS[part]
    )


def build_counter(
    size: int, buggy: bool = False, max_states: Optional[int] = None
) -> IndexedKripkeStructure:
    """Build the explicit state graph — a path of ``2^size − 1`` states.

    Only sensible at small sizes (the point of the family is that this path
    is exponentially long); the symbolic engines use
    :func:`symbolic_counter`.
    """
    return build_reachable(
        counter_initial_state(size),
        lambda state: counter_successors(state, buggy=buggy),
        counter_state_label,
        index_values=range(1, size + 1),
        name="counter(%d%s)" % (size, ", buggy" if buggy else ""),
        overflow=lambda bound: StructureError("counter exploration exceeded max_states=%d" % bound),
        max_states=max_states,
        indexed_prop_names={"z", "o"},
    )


def symbolic_counter(size: int, buggy: bool = False, domain: str = "reachable"):
    """Encode the counter directly as binary decision diagrams.

    One state bit per process; the ripple-increment contributes one disjunct
    per carry length ``k`` (each touching only bits ``1 … k``), plus the
    saturation self-loop (or the seeded wrap), all OR-ed into one relation
    BDD.  ``domain="reachable"`` runs the symbolic reachability fixpoint —
    frontier search, switching to iterative squaring after ``4·size``
    images, so about ``size`` squaring steps cover the ``2^size − 2`` path —
    while ``domain="free"`` skips it for the SAT engines.  No candidate
    process symmetry is declared: the carry ripple orders the bits, and the
    property family has no index quantifier to reduce.
    """
    if size < 1:
        raise StructureError("the counter needs at least one bit-process")
    from repro.bdd import BDDManager
    from repro.kripke.symbolic import ProcessFamilyEncoding, SymbolicKripkeStructure, family_domain

    domain_node = family_domain(domain)
    manager = BDDManager()
    indices = tuple(range(1, size + 1))
    encoding = ProcessFamilyEncoding(manager, indices, tuple(_PART_PROPS))
    land_, lor_ = manager.apply_and, manager.apply_or

    relation = 0

    # Ripple-increment, one disjunct per carry length k: bits 1 … k-1 flip
    # O -> Z, bit k flips Z -> O, everything above is framed.
    for k in indices:
        rule = land_(
            land_(encoding.current(k, "Z"), encoding.next(k, "O")),
            encoding.frame(list(range(1, k + 1))),
        )
        for lower in range(1, k):
            rule = land_(
                rule,
                land_(encoding.current(lower, "O"), encoding.next(lower, "Z")),
            )
        relation = lor_(relation, rule)

    # Saturation (or the seeded wrap) at all ones.
    all_ones = encoding.state_cube({process: "O" for process in indices})
    if buggy:
        wrap = all_ones
        for process in indices:
            wrap = land_(wrap, encoding.next(process, "Z"))
        relation = lor_(relation, wrap)
    else:
        relation = lor_(relation, land_(all_ones, encoding.frame([])))

    prop_nodes = encoding.prop_nodes(_PART_PROPS)

    initial = encoding.state_cube(
        {process: "O" if process == 1 else "Z" for process in indices}
    )

    def decode_assignment(model) -> CounterState:
        return CounterState(parts=tuple(encoding.decode(model).values()))

    def encode_assignment(state: CounterState):
        return encoding.encode({process: state.part_of(process) for process in indices})

    return SymbolicKripkeStructure(
        manager,
        encoding.num_bits,
        relation,
        initial,
        domain_node,
        prop_nodes,
        index_values=frozenset(indices),
        encode_assignment=encode_assignment,
        decode_assignment=decode_assignment,
        name="counter(%d, symbolic%s%s)" % (
            size,
            ", buggy" if buggy else "",
            ", free domain" if domain == "free" else "",
        ),
    )


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def counter_nonzero(size: int) -> Formula:
    """``AG ¬(z_1 ∧ … ∧ z_n)`` — the counter never wraps back to zero.

    True for the saturating counter (the all-zero state has no
    predecessors, so the invariant is 1-inductive and both SAT provers
    dispatch it immediately); false for ``buggy=True``, with the violation
    at depth ``2^size − 1``.  Concrete indices keep the body propositional.
    """
    if size < 1:
        raise StructureError("the counter needs at least one bit-process")
    zeros = [iatom("z", process) for process in range(1, size + 1)]
    return AG(lnot(land(*zeros))) if size > 1 else AG(lnot(zeros[0]))


def counter_family(size: int, fairness: bool = False) -> Tuple[Dict[str, Formula], None]:
    """The counter property family as ``repro-mc`` checks it: ``(name -> formula, None)``.

    The counter is deterministic, so it has no fairness constraint; the
    ``fairness`` flag is accepted for a uniform family signature and ignored.
    """
    return {"invariant nonzero": counter_nonzero(size)}, None
