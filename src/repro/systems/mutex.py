"""A lock-based mutual-exclusion protocol: the fourth identical-process family.

Each of ``n`` identical processes cycles through three local situations —
*idle* (``n_i``, reusing the ring's "neutral" proposition name), *requesting*
(``r_i``) and *critical* (``c_i``) — and the processes share one **lock
bit**:

1. *request*: an idle process starts requesting (lock untouched);
2. *acquire*: a requesting process enters its critical region **iff the lock
   is clear**, setting it (test-and-set);
3. *release*: a critical process returns to idle, clearing the lock.

Unlike the Section 5 token ring there is no ordering discipline, so the
protocol has genuinely different reachable-state structure (any subset of
processes may be requesting) while remaining a family of identical
finite-state processes in the paper's sense — the scenario-diversity family
motivated by the per-round transition structure of consensus-layer protocols
in the related work.

``buggy=True`` seeds the classic test-and-set race: the *acquire* rule stops
checking the lock (it still sets it).  Two requesting processes can then
enter their critical regions back to back, violating the mutual-exclusion
safety property ``AG ¬(c_i ∧ c_j)`` four transitions from the initial state
— a shallow bug tailor-made for SAT-based bounded model checking
(``engine="bmc"``), which finds it without ever constructing the reachable
state space.

Three encodings are provided, mirroring the token ring:

* :func:`build_mutex` — the explicit global state graph (an
  :class:`~repro.kripke.indexed.IndexedKripkeStructure`) for the naive and
  bitset engines;
* :func:`symbolic_mutex` — the direct BDD encoding (two state bits per
  process plus the shared lock bit), for the symbolic engine and, with
  ``domain="free"``, for both SAT engines (the CNF unrolling of the
  bounded model checker and the IC3/PDR frames);
* the CNF form is *derived*: :mod:`repro.mc.bmc` and :mod:`repro.mc.ic3`
  Tseitin-encode the symbolic encoding's relation BDD, so the
  very same stable variable ids feed all five engines.

The safety and liveness formulas (:func:`mutex_safety`,
:func:`mutex_liveness`) and the scheduler fairness constraint
(:func:`mutex_scheduler_fairness`) are cross-checked across every engine by
the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import StructureError
from repro.kripke.builders import build_reachable
from repro.kripke.indexed import IndexedKripkeStructure
from repro.kripke.structure import IndexedProp
from repro.logic.ast import Formula
from repro.logic.builders import AF, AG, iatom, index_forall, land, lnot, lor
from repro.mc.fairness import FairnessConstraint

__all__ = [
    "MutexState",
    "mutex_initial_state",
    "mutex_successors",
    "mutex_state_label",
    "build_mutex",
    "symbolic_mutex",
    "mutex_safety",
    "mutex_liveness",
    "mutex_scheduler_fairness",
    "mutex_family",
]

#: The local-part alphabet (two bits per process in the symbolic encoding)
#: and the indexed proposition a process satisfies in each part.
_PART_PROPS = {"I": ("n",), "R": ("r",), "C": ("c",)}

#: The shared-lock proposition (a plain, non-indexed atom).
LOCK_PROP = "lock"


@dataclass(frozen=True)
class MutexState:
    """A global state: per-process local parts (1-indexed) plus the lock bit."""

    parts: Tuple[str, ...]
    lock: bool

    def part_of(self, index: int) -> str:
        """The local part (``"I"``, ``"R"`` or ``"C"``) of process ``index``."""
        return self.parts[index - 1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Mutex(%s lock=%d)" % ("".join(self.parts), int(self.lock))


def mutex_initial_state(size: int) -> MutexState:
    """Every process idle, the lock clear."""
    if size < 1:
        raise StructureError("the mutex protocol needs at least one process")
    return MutexState(parts=("I",) * size, lock=False)


def _with_part(state: MutexState, index: int, part: str, lock: bool) -> MutexState:
    parts = list(state.parts)
    parts[index - 1] = part
    return MutexState(parts=tuple(parts), lock=lock)


def mutex_successors(state: MutexState, buggy: bool = False) -> List[MutexState]:
    """The successors under the request / acquire / release rules.

    With ``buggy=True`` the acquire rule ignores the lock (the seeded
    test-and-set race).
    """
    successors: List[MutexState] = []
    for index in range(1, len(state.parts) + 1):
        part = state.part_of(index)
        if part == "I":
            successors.append(_with_part(state, index, "R", state.lock))
        elif part == "R" and (buggy or not state.lock):
            successors.append(_with_part(state, index, "C", True))
        elif part == "C":
            successors.append(_with_part(state, index, "I", False))
    return successors


def mutex_state_label(state: MutexState):
    """``n_i`` / ``r_i`` / ``c_i`` per process, plus the plain ``lock`` atom."""
    label = {
        IndexedProp(name, index)
        for index, part in enumerate(state.parts, start=1)
        for name in _PART_PROPS[part]
    }
    if state.lock:
        label.add(LOCK_PROP)
    return frozenset(label)


def build_mutex(
    size: int, buggy: bool = False, max_states: Optional[int] = None
) -> IndexedKripkeStructure:
    """Build the explicit global state graph, restricted to reachable states."""
    return build_reachable(
        mutex_initial_state(size),
        lambda state: mutex_successors(state, buggy=buggy),
        mutex_state_label,
        index_values=range(1, size + 1),
        name="mutex(%d%s)" % (size, ", buggy" if buggy else ""),
        overflow=lambda bound: StructureError("mutex exploration exceeded max_states=%d" % bound),
        max_states=max_states,
        indexed_prop_names={"n", "r", "c"},
    )


def symbolic_mutex(size: int, buggy: bool = False, domain: str = "reachable"):
    """Encode the protocol directly as binary decision diagrams.

    Two state bits per process (its part) plus one extra bit pair for the
    shared lock, appended after the process blocks; the three rules are
    OR-ed into one relation BDD.  As with
    :func:`~repro.systems.token_ring.symbolic_token_ring`,
    ``domain="reachable"`` (the default) restricts the state set by a
    symbolic reachability fixpoint, while ``domain="free"`` skips it — the
    mode the bounded model checker unrolls.  The rotation of the process
    blocks (the lock bit fixed) is declared as the candidate process
    symmetry.
    """
    if size < 1:
        raise StructureError("the mutex protocol needs at least one process")
    from repro.bdd import BDDManager
    from repro.kripke.symbolic import ProcessFamilyEncoding, SymbolicKripkeStructure, family_domain

    domain_node = family_domain(domain)
    manager = BDDManager()
    indices = tuple(range(1, size + 1))
    encoding = ProcessFamilyEncoding(manager, indices, tuple(_PART_PROPS))
    land_, lor_, neg = manager.apply_and, manager.apply_or, manager.negate

    lock_bit = encoding.num_bits  # state-bit index of the shared lock
    lock_now = manager.var(2 * lock_bit)
    lock_next = manager.var(2 * lock_bit + 1)
    lock_unchanged = manager.apply("iff", lock_now, lock_next)

    # Rule 1 — request: I -> R, lock untouched.
    relation = land_(encoding.local_move("I", "R"), lock_unchanged)
    # Rule 2 — acquire: R -> C sets the lock; the guard ¬lock is the
    # test-and-set check the seeded bug removes.
    acquire_lock = lock_next if buggy else land_(neg(lock_now), lock_next)
    relation = lor_(relation, land_(encoding.local_move("R", "C"), acquire_lock))
    # Rule 3 — release: C -> I clears the lock.
    relation = lor_(relation, land_(encoding.local_move("C", "I"), neg(lock_next)))

    prop_nodes = encoding.prop_nodes(_PART_PROPS)
    prop_nodes[LOCK_PROP] = lock_now

    initial = land_(
        encoding.state_cube({process: "I" for process in indices}), neg(lock_now)
    )

    def decode_assignment(model) -> MutexState:
        parts = tuple(encoding.decode(model).values())
        return MutexState(parts=parts, lock=bool(model.get(2 * lock_bit, False)))

    def encode_assignment(state: MutexState):
        model = encoding.encode({process: state.part_of(process) for process in indices})
        model[2 * lock_bit] = state.lock
        return model

    return SymbolicKripkeStructure(
        manager,
        encoding.num_bits + 1,
        relation,
        initial,
        domain_node,
        prop_nodes,
        index_values=frozenset(indices),
        encode_assignment=encode_assignment,
        decode_assignment=decode_assignment,
        name="mutex(%d, symbolic%s%s)" % (
            size,
            ", buggy" if buggy else "",
            ", free domain" if domain == "free" else "",
        ),
        symmetry=encoding.rotation(),
    )


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def mutex_safety(size: int) -> Formula:
    """Mutual exclusion: ``AG ∧_{i<j} ¬(c_i ∧ c_j)``.

    The pairwise conjunction is written out over concrete indices (the
    Section 4 restrictions forbid nested index quantifiers), keeping the
    body propositional — exactly the BMC invariant fragment.  With a single
    process there is no pair to exclude, so the formula degenerates to
    ``AG true``.
    """
    if size < 1:
        raise StructureError("the mutex protocol needs at least one process")
    pairs = [
        lnot(land(iatom("c", left), iatom("c", right)))
        for left in range(1, size + 1)
        for right in range(left + 1, size + 1)
    ]
    return AG(land(*pairs))


def mutex_liveness() -> Formula:
    """``∧_i AF c_i`` — every process eventually enters its critical region.

    False in plain CTL (an all-idle loop never goes critical); true under
    :func:`mutex_scheduler_fairness`.
    """
    return index_forall("i", AF(iatom("c", "i")))


def mutex_scheduler_fairness(size: int) -> FairnessConstraint:
    """Two fairness conditions per process: infinitely often ``r_i ∨ c_i`` *and* ``n_i ∨ c_i``.

    A fair path can neither park process ``i`` in idle forever (the first
    condition fails) nor in requesting forever (the second fails); since
    requesting only exits into the critical region, every process enters its
    critical region infinitely often on every fair path — which is what
    makes :func:`mutex_liveness` hold.
    """
    if size < 1:
        raise StructureError("the mutex protocol needs at least one process")
    conditions = []
    for process in range(1, size + 1):
        conditions.append(lor(iatom("r", process), iatom("c", process)))
        conditions.append(lor(iatom("n", process), iatom("c", process)))
    return FairnessConstraint(
        conditions=tuple(conditions),
        name="scheduler fairness ((r_i | c_i) & (n_i | c_i) per process) for mutex(%d)"
        % size,
    )


def mutex_family(
    size: int, fairness: bool = False
) -> Tuple[Dict[str, Formula], Optional[FairnessConstraint]]:
    """The mutex property family as ``repro-mc`` checks it: ``(name -> formula, fairness)``.

    With ``fairness`` the family gains the eventual-entry liveness property,
    which is only true under :func:`mutex_scheduler_fairness` (an all-idle
    loop never goes critical), and that constraint is returned.
    """
    family = {"invariant mutual_exclusion": mutex_safety(size)}
    if not fairness:
        return family, None
    family["fair liveness eventual_entry"] = mutex_liveness()
    return family, mutex_scheduler_fairness(size)
