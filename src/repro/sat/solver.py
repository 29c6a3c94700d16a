"""A CDCL SAT solver in pure Python (MiniSat lineage).

The solver implements the standard modern architecture:

* **two-watched-literal propagation with blockers** — each clause watches two
  of its literals; the watch lists are flat interleaved arrays of
  ``blocker, clause`` pairs, so a clause whose cached blocker literal is
  already true is skipped without ever dereferencing the clause body, and
  only clauses watching a literal that just became false are visited at all;
* **first-UIP conflict analysis** — every conflict is resolved backwards
  along the implication graph to the first unique implication point, the
  learned clause is minimized by self-subsumption against the reason graph,
  and the solver backjumps (not backtracks) to the second-highest decision
  level in the clause;
* **LBD-aware clause learning with database reduction** — every learned
  clause is tagged with its literal-block distance (LBD, the number of
  distinct decision levels it spans — "glue"); when the learnt database
  outgrows its budget, binary, reason-locked and low-LBD ("glue") clauses
  are kept and the worst half of the rest (high LBD, low activity) is
  deleted.  A clause revisited during conflict analysis has its LBD
  re-measured and keeps the minimum;
* **on-the-fly subsumption** — when a freshly minimized learnt clause
  subsumes the conflicting clause it was derived from, the conflict clause
  is dropped from the database (and the learnt clause promoted to a problem
  clause when the subsumed clause was one);
* **VSIDS branching with phase saving** — variable activities are bumped
  during analysis and decayed per conflict; decisions pick the most active
  unassigned variable from an indexed max-heap and re-use the polarity the
  variable last had (phase saving), which preserves progress across
  restarts;
* **Luby restarts** — search is abandoned and restarted from decision level
  zero on the reluctant-doubling schedule, keeping all learned clauses;
* **incremental solving under assumptions** — :meth:`solve` takes a list of
  assumption literals decided before any free decision; clauses may be added
  between calls and everything learned in one call speeds up the next.
  After an UNSAT answer under assumptions, :meth:`unsat_core` names the
  subset of the assumptions that the refutation actually used (the
  ``analyze_final`` walk of MiniSat).  This is the interface the SAT-based
  model checkers drive: the bounded model checker issues one
  ``solve([¬P@k])`` per bound, and the IC3 engine issues relative-induction
  queries whose cores seed cube generalization.

Literals use the DIMACS convention of :mod:`repro.sat.cnf` (positive ints
are variables, negation is arithmetic negation), and the solver exposes the
same ``new_var`` / ``add_clause`` sink protocol as :class:`repro.sat.cnf.CNF`
so Tseitin encodings can stream straight into it.

Data layout.  Clauses, the trail, the proof log and the public API all
carry DIMACS literals unchanged; the hot loops index by them directly:

* ``_values`` is one **literal-indexed value table**: ``_values[l]`` is
  ``+1`` when literal ``l`` is true, ``-1`` when false, ``0`` when
  unassigned.  A positive literal ``v`` sits at index ``v``; its negation
  ``-v`` lands in the tail through Python's negative indexing, so
  ``_values[-v] == -_values[v]`` always holds and the value of variable
  ``v`` is simply ``_values[v]``.  The table keeps at least
  ``2 * num_vars + 1`` slots, the middle ones unused; :meth:`Solver.new_var`
  doubles it when a new variable would make the halves meet.
* ``_watches`` uses the same indexing and capacity: ``_watches[l]`` lists
  the clauses watching literal ``l``;
* ``_level``, ``_reason``, ``_phase``, ``_activity`` and ``_seen`` are
  per-variable lists indexed ``1 … num_vars`` (slot 0 unused);
* the VSIDS heap (:class:`_VarOrder`) keeps its position map in a list
  indexed by variable, ``-1`` for a variable not in the heap.

Propagation, backtracking, branching and activity bumping work on these
lists through local bindings, with no per-literal method calls.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import repro.sat.sanitize as _sanitize
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span
from repro.runtime.limits import checkpoint as _checkpoint
from repro.sat.cnf import ClauseSink, SatError
from repro.sat.drat import ProofLog

__all__ = ["Solver", "SolverStats", "luby"]


def luby(index: int, base: int = 1) -> int:
    """The reluctant-doubling (Luby) sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …

    ``index`` is zero-based; the result is multiplied by ``base``.
    """
    # Find the finite subsequence containing `index` and its position in it.
    size, sequence = 1, 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) >> 1
        sequence -= 1
        index = index % size
    return base * (1 << sequence)


@dataclass
class SolverStats:
    """Cumulative search counters (exposed via ``repro-mc --profile``)."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    solve_calls: int = 0
    subsumed_clauses: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flatten into a JSON-serialisable dictionary."""
        return asdict(self)

    def accumulate(self, other: "SolverStats") -> None:
        """Add another stats record into this one (for multi-solver aggregation)."""
        for counter in fields(self):
            name = counter.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


class _Clause:
    """A clause of the database; ``lits[0]`` and ``lits[1]`` are watched.

    ``lbd`` is the literal-block distance measured when the clause was
    learned (lowered whenever a re-measure during conflict analysis comes
    out smaller); ``removed`` marks the clause as logically deleted — watch
    lists purge such entries lazily during propagation.
    """

    __slots__ = ("lits", "learnt", "activity", "lbd", "removed")

    def __init__(self, lits: List[int], learnt: bool, lbd: int = 0) -> None:
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.lbd = lbd
        self.removed = False


class _VarOrder:
    """Indexed max-heap over variable activities (the VSIDS decision order).

    ``_position[var]`` is ``var``'s index in ``_heap``, or ``-1`` when it is
    not in the heap.  The solver's hot paths (backtracking, branching,
    activity bumps) sift this heap inline.  Sift-up stops below a parent
    at least as active; sift-down takes the right child only when it is
    strictly more active than the left, and stops at a child no more
    active than the sifted variable.  Every inline copy keeps exactly
    these comparisons: they decide how ties between equal activities
    break, and so the decision order.
    """

    __slots__ = ("_heap", "_position", "_activity")

    def __init__(self, activity: List[float]) -> None:
        self._heap: List[int] = []
        self._position: List[int] = [-1]
        self._activity = activity

    def insert(self, var: int) -> None:
        heap, position, activity = self._heap, self._position, self._activity
        if position[var] >= 0:
            return
        index = len(heap)
        heap.append(var)
        score = activity[var]
        while index > 0:
            parent = (index - 1) >> 1
            above = heap[parent]
            if activity[above] >= score:
                break
            heap[index] = above
            position[above] = index
            index = parent
        heap[index] = var
        position[var] = index


class Solver(ClauseSink):
    """An incremental CDCL SAT solver.

    Usage::

        solver = Solver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clause([x, y])
        solver.add_clause([-x, y])
        assert solver.solve()
        assert solver.model_value(y)
        assert not solver.solve(assumptions=[-y])
        assert solver.unsat_core() == frozenset({-y})

    Clauses may be added between :meth:`solve` calls; learned clauses,
    activities and saved phases persist, which is what makes the
    bound-by-bound BMC loop and the frame-by-frame IC3 loop cheap.
    """

    _RESTART_BASE = 100
    _RESCALE_LIMIT = 1e100
    _VAR_DECAY = 0.95
    _CLAUSE_DECAY = 0.999

    def __init__(self) -> None:
        self.stats = SolverStats()
        self._ok = True
        self._num_vars = 0
        # Literal-indexed value table (see the module docstring): +1 true,
        # -1 false, 0 unassigned; ``_values[-v]`` is the negation's slot.
        self._values: List[int] = [0] * 4
        # Per-variable state, 1-indexed (slot 0 unused).
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._phase: List[bool] = [False]
        self._activity: List[float] = [0.0]
        self._seen: List[bool] = [False]
        # Watches indexed like ``_values``; each entry is a flat interleaved
        # array ``[blocker, clause, blocker, clause, …]``.
        self._watches: List[List[object]] = [[] for _ in range(4)]
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._order = _VarOrder(self._activity)
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._max_learnts = 1000.0
        self._model: Optional[Dict[int, bool]] = None
        self._conflict_core: Optional[FrozenSet[int]] = None
        self._true_literal = None
        self._proof: Optional[ProofLog] = None

    # -- the clause-sink protocol (shared with repro.sat.cnf.CNF) -------------

    @property
    def num_vars(self) -> int:
        """The number of allocated variables."""
        return self._num_vars

    def new_var(self) -> int:
        """Allocate a fresh variable and return it (a positive integer)."""
        var = self._num_vars + 1
        if 2 * var >= len(self._values):
            self._grow()
        self._num_vars = var
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(False)
        self._activity.append(0.0)
        self._seen.append(False)
        self._order._position.append(-1)
        self._order.insert(var)
        return var

    def _grow(self) -> None:
        """Double the literal-indexed tables, keeping both halves in place."""
        size = len(self._values)
        count = self._num_vars
        gap = size - 2 * count - 1  # the unused middle slots
        head, tail = count + 1, size - count
        self._values = self._values[:head] + [0] * (gap + size) + self._values[tail:]
        self._watches = (
            self._watches[:head] + [[] for _ in range(gap + size)] + self._watches[tail:]
        )

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    def clone(self) -> "Solver":
        """An independent copy of this solver, taken at decision level zero.

        The copy carries every piece of state — clauses (problem and
        learnt, in order), watch lists, the level-0 trail, activities, the
        VSIDS heap, saved phases, schedules and :attr:`stats` — so it
        searches exactly as this solver would from here.  It shares no
        mutable list or clause with its source: clauses added to either
        never reach the other.  Refused while a proof log is attached (a
        log certifies one solver's history) or above decision level zero.
        """
        if self._proof is not None:
            raise SatError("cannot clone a solver while a proof log is attached")
        if self._trail_lim:
            raise SatError("cannot clone a solver above decision level 0")
        copies: Dict[int, _Clause] = {}

        def twin_of(clause: _Clause) -> _Clause:
            twin = copies.get(id(clause))
            if twin is None:
                twin = _Clause(list(clause.lits), clause.learnt, clause.lbd)
                twin.activity = clause.activity
                twin.removed = clause.removed
                copies[id(clause)] = twin
            return twin

        other = Solver.__new__(Solver)
        other.stats = replace(self.stats)
        other._ok = self._ok
        other._num_vars = self._num_vars
        other._values = list(self._values)
        other._level = list(self._level)
        other._reason = [
            None if reason is None else twin_of(reason) for reason in self._reason
        ]
        other._phase = list(self._phase)
        other._activity = list(self._activity)
        other._seen = list(self._seen)
        other._clauses = [twin_of(clause) for clause in self._clauses]
        other._learnts = [twin_of(clause) for clause in self._learnts]
        known = copies.get  # watched clauses are mostly copied already
        watches = []
        for watchers in self._watches:
            copied = list(watchers)
            copied[1::2] = [
                known(id(clause)) or twin_of(clause) for clause in watchers[1::2]
            ]
            watches.append(copied)
        other._watches = watches
        other._trail = list(self._trail)
        other._trail_lim = []
        other._qhead = self._qhead
        other._order = _VarOrder(other._activity)
        other._order._heap = list(self._order._heap)
        other._order._position = list(self._order._position)
        other._var_inc = self._var_inc
        other._cla_inc = self._cla_inc
        other._max_learnts = self._max_learnts
        other._model = None if self._model is None else dict(self._model)
        other._conflict_core = self._conflict_core
        other._true_literal = self._true_literal
        other._proof = None
        return other

    # -- proof logging -----------------------------------------------------

    @property
    def proof(self) -> Optional[ProofLog]:
        """The attached :class:`~repro.sat.drat.ProofLog`, if any."""
        return self._proof

    def start_proof(self) -> ProofLog:
        """Attach a fresh DRAT-style proof log and return it.

        From this point on, every input clause, derived clause, deletion
        and UNSAT verdict is recorded; :func:`repro.sat.drat.check_proof`
        certifies the transcript independently of the solver.  Clauses
        (and level-zero units) already in the database are snapshotted as
        inputs, so a proof can be started mid-life on an incremental
        solver.  Attaching a new log replaces any previous one.
        """
        log = ProofLog()
        if not self._ok:
            log.input(())
        else:
            level0 = self._trail[: self._trail_lim[0]] if self._trail_lim else self._trail
            for literal in level0:
                log.input((literal,))
            for store in (self._clauses, self._learnts):
                for clause in store:
                    if not clause.removed:
                        log.input(tuple(clause.lits))
        self._proof = log
        return log

    def stop_proof(self) -> None:
        """Detach the proof log; subsequent derivations are not recorded."""
        self._proof = None

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns ``False`` when the database became unsatisfiable.

        The clause is simplified against the top-level assignment: satisfied
        clauses are dropped, false literals removed, duplicate literals
        merged, and tautologies ignored.  Adding a clause cancels any
        in-progress assignment back to decision level zero (the incremental
        contract: clauses arrive between :meth:`solve` calls).
        """
        self._cancel_until(0)
        if not self._ok:
            return False
        literals = list(literals)
        if self._proof is not None:
            self._proof.input(literals)
        seen_here: Dict[int, int] = {}
        simplified: List[int] = []
        values = self._values
        for literal in literals:
            if literal == 0:
                raise SatError("0 is not a literal (it terminates DIMACS clauses)")
            var = abs(literal)
            if var > self._num_vars:
                self._ensure_var(var)
                values = self._values
            value = values[literal]
            if value == 1:
                return True  # satisfied at level 0
            if value == -1:
                continue  # false at level 0; drop the literal
            previous = seen_here.get(var)
            if previous is None:
                seen_here[var] = literal
                simplified.append(literal)
            elif previous != literal:
                return True  # p ∨ ¬p: tautology
        if self._proof is not None and sorted(simplified) != sorted(literals):
            # The simplified clause (false literals stripped, duplicates
            # merged) is RUP against the input clause plus the level-0
            # units, so it earns a derivation step of its own.
            self._proof.add(simplified)
        if not simplified:
            self._ok = False
            return False
        if len(simplified) == 1:
            self._enqueue(simplified[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        clause = _Clause(simplified, learnt=False)
        self._clauses.append(clause)
        self._attach(clause)
        return True

    # -- assignments -----------------------------------------------------------

    def _enqueue(self, literal: int, reason: Optional[_Clause]) -> None:
        values = self._values
        values[literal] = 1
        values[-literal] = -1
        var = abs(literal)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = literal > 0
        self._trail.append(literal)

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        bound = trail_lim[level]
        trail = self._trail
        values = self._values
        reasons = self._reason
        order = self._order
        heap, position, activity = order._heap, order._position, self._activity
        for literal in reversed(trail[bound:]):
            values[literal] = 0
            values[-literal] = 0
            var = literal if literal > 0 else -literal
            reasons[var] = None
            if position[var] < 0:
                # _VarOrder.insert, inline.
                index = len(heap)
                heap.append(var)
                score = activity[var]
                while index > 0:
                    parent = (index - 1) >> 1
                    above = heap[parent]
                    if activity[above] >= score:
                        break
                    heap[index] = above
                    position[above] = index
                    index = parent
                heap[index] = var
                position[var] = index
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)

    def _attach(self, clause: _Clause) -> None:
        lits = clause.lits
        watchers = self._watches[lits[0]]
        watchers.append(lits[1])
        watchers.append(clause)
        watchers = self._watches[lits[1]]
        watchers.append(lits[0])
        watchers.append(clause)

    # -- propagation -----------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns the conflicting clause, if any.

        Watch lists are flat interleaved ``blocker, clause`` arrays: a true
        blocker satisfies the clause without touching it, and entries whose
        clause was logically deleted (``removed``) are purged in passing.
        Implied literals are enqueued inline (as :meth:`_enqueue` would), and
        ``_qhead`` and ``stats.propagations`` are settled once per call.
        """
        trail = self._trail
        start = qhead = self._qhead
        if qhead >= len(trail):
            return None
        values = self._values
        watches = self._watches
        levels = self._level
        reasons = self._reason
        phase = self._phase
        level = len(self._trail_lim)
        while qhead < len(trail):
            false_literal = -trail[qhead]
            qhead += 1
            watchers = watches[false_literal]
            index = 0
            kept = 0
            size = len(watchers)
            while index < size:
                blocker = watchers[index]
                clause = watchers[index + 1]
                index += 2
                if values[blocker] == 1:
                    watchers[kept] = blocker
                    watchers[kept + 1] = clause
                    kept += 2
                    continue
                if clause.removed:
                    continue  # lazy purge of deleted clauses
                lits = clause.lits
                # Normalise: the false literal sits at position 1.
                if lits[0] == false_literal:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if first != blocker and values[first] == 1:
                    watchers[kept] = first
                    watchers[kept + 1] = clause
                    kept += 2
                    continue
                for position in range(2, len(lits)):
                    other = lits[position]
                    if values[other] != -1:
                        lits[1], lits[position] = other, lits[1]
                        moved = watches[other]
                        moved.append(first)
                        moved.append(clause)
                        break
                else:
                    watchers[kept] = first
                    watchers[kept + 1] = clause
                    kept += 2
                    if values[first] == -1:
                        # Conflict: keep the unvisited suffix watched, too.
                        del watchers[kept:index]
                        self.stats.propagations += qhead - start
                        self._qhead = len(trail)
                        return clause
                    values[first] = 1
                    values[-first] = -1
                    var = first if first > 0 else -first
                    levels[var] = level
                    reasons[var] = clause
                    phase[var] = first > 0
                    trail.append(first)
            del watchers[kept:]
        self.stats.propagations += qhead - start
        self._qhead = qhead
        return None

    # -- activities ---------------------------------------------------------------

    def _var_decay_tick(self) -> None:
        self._var_inc /= self._VAR_DECAY

    def _cla_bump(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for learnt in self._learnts:
                learnt.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _cla_decay_tick(self) -> None:
        self._cla_inc /= self._CLAUSE_DECAY

    # -- conflict analysis --------------------------------------------------------

    def _clause_lbd(self, lits: Sequence[int]) -> int:
        """The literal-block distance: distinct decision levels spanned."""
        level = self._level
        levels = {level[literal if literal > 0 else -literal] for literal in lits}
        levels.discard(0)
        return len(levels)

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int, int]:
        """First-UIP learning; returns ``(learnt_clause, backjump_level, lbd)``.

        ``learnt_clause[0]`` is the asserting literal.  The clause is
        minimized by removing every literal whose reason clause is subsumed
        by the remaining literals (self-subsumption against the implication
        graph), and its LBD is measured before backjumping while the levels
        are still live.  Learnt clauses revisited on the resolution path get
        their stored LBD lowered when the re-measure comes out smaller.

        Every variable met on the way gets its VSIDS activity bumped (and
        sifted up the heap) inline.
        """
        seen = self._seen
        level = self._level
        trail = self._trail
        reasons = self._reason
        activity = self._activity
        heap, heap_position = self._order._heap, self._order._position
        var_inc = self._var_inc
        current_level = len(self._trail_lim)
        learnt: List[int] = [0]  # placeholder for the asserting literal
        to_clear: List[int] = []
        path_count = 0
        literal = 0  # 0 = conflict clause itself (take every literal)
        index = len(trail)
        clause: Optional[_Clause] = conflict
        while True:
            assert clause is not None
            if clause.learnt:
                self._cla_bump(clause)
                fresh_lbd = self._clause_lbd(clause.lits)
                if 0 < fresh_lbd < clause.lbd:
                    clause.lbd = fresh_lbd
            lits = clause.lits
            for position in range(0 if literal == 0 else 1, len(lits)):
                other = lits[position]
                var = other if other > 0 else -other
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    to_clear.append(var)
                    score = activity[var] + var_inc
                    activity[var] = score
                    if score > self._RESCALE_LIMIT:
                        for slot in range(1, self._num_vars + 1):
                            activity[slot] *= 1e-100
                        var_inc *= 1e-100
                        self._var_inc = var_inc
                        score = activity[var]
                    slot = heap_position[var]
                    if slot >= 0:
                        # _VarOrder sift-up, inline.
                        while slot > 0:
                            parent = (slot - 1) >> 1
                            above = heap[parent]
                            if activity[above] >= score:
                                break
                            heap[slot] = above
                            heap_position[above] = slot
                            slot = parent
                        heap[slot] = var
                        heap_position[var] = slot
                    if level[var] >= current_level:
                        path_count += 1
                    else:
                        learnt.append(other)
            while True:
                index -= 1
                literal = trail[index]
                if seen[literal if literal > 0 else -literal]:
                    break
            var = literal if literal > 0 else -literal
            clause = reasons[var]
            seen[var] = False
            path_count -= 1
            if path_count == 0:
                break
        learnt[0] = -literal
        # Self-subsumption minimization: a non-asserting literal is redundant
        # when its reason exists and every reason literal is already seen (or
        # fixed at level 0).
        kept = [learnt[0]]
        for other in learnt[1:]:
            reason = reasons[abs(other)]
            if reason is None:
                kept.append(other)
                continue
            for reason_literal in reason.lits:
                var = abs(reason_literal)
                if reason_literal != -other and not seen[var] and level[var] > 0:
                    kept.append(other)
                    break
        learnt = kept
        for var in to_clear:
            seen[var] = False
        lbd = self._clause_lbd(learnt)
        if len(learnt) == 1:
            return learnt, 0, lbd
        # Backjump to the second-highest level; put that literal at watch 1.
        best = 1
        for position in range(2, len(learnt)):
            if level[abs(learnt[position])] > level[abs(learnt[best])]:
                best = position
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[abs(learnt[1])], lbd

    def _analyze_final(self, failing: int) -> FrozenSet[int]:
        """The subset of the assumptions that forced ``¬failing`` (MiniSat's
        ``analyzeFinal``): walk the trail from the top, expanding reasons,
        and collect every assumption decision reached.  Together with
        ``failing`` itself the result is an unsatisfiable core over the
        assumption literals."""
        core = {failing}
        if not self._trail_lim:
            return frozenset(core)
        seen = self._seen
        level = self._level
        to_clear: List[int] = []
        var = abs(failing)
        if level[var] > 0:
            seen[var] = True
            to_clear.append(var)
        bottom = self._trail_lim[0]
        for index in range(len(self._trail) - 1, bottom - 1, -1):
            literal = self._trail[index]
            var = abs(literal)
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason is None:
                core.add(literal)  # an assumption decision
            else:
                for other in reason.lits:
                    other_var = abs(other)
                    if not seen[other_var] and level[other_var] > 0:
                        seen[other_var] = True
                        to_clear.append(other_var)
        for var in to_clear:
            seen[var] = False
        return frozenset(core)

    # -- learnt-database reduction ------------------------------------------------

    def _reduce_db(self) -> None:
        """Delete the worst half of the reducible learnt clauses.

        Binary clauses, clauses currently acting as a reason ("locked") and
        glue clauses (LBD ≤ 2) survive; the rest go in (high LBD, low
        activity) order — the glue-aware policy of Glucose-style solvers.
        """
        locked = {id(reason) for reason in self._reason if reason is not None}
        protected: List[_Clause] = []
        reducible: List[_Clause] = []
        for clause in self._learnts:
            if clause.removed:
                continue
            if len(clause.lits) <= 2 or clause.lbd <= 2 or id(clause) in locked:
                protected.append(clause)
            else:
                reducible.append(clause)
        reducible.sort(key=lambda clause: (-clause.lbd, clause.activity))
        removable = len(reducible) // 2
        for clause in reducible[:removable]:
            clause.removed = True
            if self._proof is not None:
                self._proof.delete(clause.lits)
        self._learnts = protected + reducible[removable:]
        self.stats.deleted_clauses += removable
        # Learnt-DB reductions are rare (one per _max_learnts overflow).
        _metrics.counter("sat.reduce_db.runs").inc()
        _metrics.counter("sat.reduce_db.deleted").inc(removable)

    # -- search --------------------------------------------------------------------

    def _pick_branch_literal(self) -> Optional[int]:
        """Pop the most active unassigned variable; its saved phase decides."""
        heap, position = self._order._heap, self._order._position
        activity = self._activity
        values = self._values
        while heap:
            top = heap[0]
            last = heap.pop()
            position[top] = -1
            if heap:
                # Sift `last` down from the root, inline.
                size = len(heap)
                score = activity[last]
                index = 0
                while True:
                    child = 2 * index + 1
                    if child >= size:
                        break
                    if child + 1 < size and activity[heap[child + 1]] > activity[heap[child]]:
                        child += 1
                    below = heap[child]
                    if activity[below] <= score:
                        break
                    heap[index] = below
                    position[below] = index
                    index = child
                heap[index] = last
                position[last] = index
            if values[top] == 0:
                return top if self._phase[top] else -top
        return None

    def _record_learnt(self, learnt: List[int], lbd: int, promote: bool = False) -> None:
        if self._proof is not None:
            self._proof.add(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        clause = _Clause(learnt, learnt=not promote, lbd=lbd)
        if promote:
            self._clauses.append(clause)
        else:
            self._learnts.append(clause)
            self._cla_bump(clause)
        self._attach(clause)
        self.stats.learned_clauses += 1
        self._enqueue(learnt[0], clause)

    def _search(self, budget: int, assumptions: Sequence[int]) -> Optional[bool]:
        """Search until SAT/UNSAT or ``budget`` conflicts (``None`` = restart)."""
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                if not self.stats.conflicts & 255:
                    _checkpoint("sat.conflict", sat_conflicts=self.stats.conflicts)
                if not self._trail_lim:
                    self._ok = False
                    self._conflict_core = frozenset()
                    return False
                learnt, backjump_level, lbd = self._analyze(conflict)
                # On-the-fly subsumption: the minimized learnt clause may
                # subsume the very clause that conflicted.  The conflict
                # clause is falsified, hence never a reason, hence safe to
                # drop; when it was a problem clause the learnt clause is
                # promoted so the constraint cannot later be reduced away.
                promote = False
                subsumed_lits: Optional[List[int]] = None
                if (
                    not conflict.removed
                    and 1 < len(learnt) < len(conflict.lits)
                    and set(learnt) <= set(conflict.lits)
                ):
                    conflict.removed = True
                    subsumed_lits = list(conflict.lits)
                    promote = not conflict.learnt
                    self.stats.subsumed_clauses += 1
                self._cancel_until(backjump_level)
                self._record_learnt(learnt, lbd, promote=promote)
                if subsumed_lits is not None and self._proof is not None:
                    # Deleted only after the learnt clause that subsumes it
                    # was derived, so the checker never loses the clause a
                    # pending step depends on.
                    self._proof.delete(subsumed_lits)
                self._var_decay_tick()
                self._cla_decay_tick()
                continue
            if conflicts_here >= budget:
                self._cancel_until(0)
                self.stats.restarts += 1
                _checkpoint("sat.restart", sat_conflicts=self.stats.conflicts)
                return None
            if len(self._learnts) >= self._max_learnts + len(self._trail):
                self._reduce_db()
            literal: Optional[int] = None
            while len(self._trail_lim) < len(assumptions):
                assumption = assumptions[len(self._trail_lim)]
                value = self._values[assumption]
                if value == 1:
                    self._trail_lim.append(len(self._trail))  # dummy level
                elif value == -1:
                    self._conflict_core = self._analyze_final(assumption)
                    return False  # UNSAT under the assumptions
                else:
                    literal = assumption
                    break
            if literal is None:
                literal = self._pick_branch_literal()
                if literal is None:
                    values = self._values
                    self._model = {
                        var: values[var] > 0 for var in range(1, self._num_vars + 1)
                    }
                    return True
                self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(literal, None)

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability of the database under ``assumptions``.

        Returns ``True`` and stores a model (see :meth:`model_value`) when
        satisfiable; ``False`` when the clauses are unsatisfiable under the
        assumptions (or outright) — in which case :meth:`unsat_core` exposes
        the assumption subset the refutation used.  The solver state
        persists across calls.
        """
        stats = self.stats
        with _span("sat.solve") as sp:
            conflicts_before = stats.conflicts
            propagations_before = stats.propagations
            result = self._solve(assumptions)
            sp.set(
                result=result,
                assumptions=len(assumptions),
                conflicts=stats.conflicts - conflicts_before,
                propagations=stats.propagations - propagations_before,
            )
        if _sanitize.MODE:
            _sanitize.maybe_check_solver(self)
        if result is False and self._proof is not None:
            self._proof.unsat([int(literal) for literal in assumptions])
        return result

    def _solve(self, assumptions: Sequence[int]) -> bool:
        assumptions = [int(literal) for literal in assumptions]
        for literal in assumptions:
            if literal == 0:
                raise SatError("0 is not a literal")
            self._ensure_var(abs(literal))
        self.stats.solve_calls += 1
        self._model = None  # a stale model must not survive an UNSAT answer
        self._conflict_core = None
        self._cancel_until(0)
        if not self._ok:
            self._conflict_core = frozenset()
            return False
        if self._propagate() is not None:
            self._ok = False
            self._conflict_core = frozenset()
            return False
        restarts = 0
        while True:
            budget = luby(restarts, self._RESTART_BASE)
            status = self._search(budget, assumptions)
            if status is not None:
                self._cancel_until(0)
                return status
            restarts += 1
            self._max_learnts *= 1.05

    def unsat_core(self) -> FrozenSet[int]:
        """The assumption literals the last UNSAT answer actually used.

        Only valid straight after a :meth:`solve` call that returned
        ``False``; the result is a subset ``core`` of the assumptions such
        that the clause database conjoined with ``core`` is unsatisfiable
        (empty when the database is unsatisfiable on its own).  This is what
        the IC3 engine's cube generalization seeds from.
        """
        if self._conflict_core is None:
            raise SatError("no unsat core available; the last solve() did not return UNSAT")
        return self._conflict_core

    # -- models ---------------------------------------------------------------------

    def model_value(self, literal: int) -> bool:
        """The last model's value of ``literal`` (only valid after a SAT answer)."""
        if self._model is None:
            raise SatError("no model available; the last solve() did not return SAT")
        value = self._model.get(abs(literal))
        if value is None:
            raise SatError("variable %d was not part of the last model" % abs(literal))
        return (not value) if literal < 0 else value

    def model(self) -> Dict[int, bool]:
        """The last model as a ``{variable: truth value}`` dictionary."""
        if self._model is None:
            raise SatError("no model available; the last solve() did not return SAT")
        return dict(self._model)

    # -- introspection ---------------------------------------------------------------

    @property
    def num_clauses(self) -> int:
        """The number of problem (non-learnt) clauses currently attached."""
        return sum(1 for clause in self._clauses if not clause.removed)

    @property
    def num_learnts(self) -> int:
        """The number of learnt clauses currently attached."""
        return sum(1 for clause in self._learnts if not clause.removed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<Solver: %d vars, %d clauses, %d learnts, %d conflicts>" % (
            self._num_vars,
            self.num_clauses,
            self.num_learnts,
            self.stats.conflicts,
        )
