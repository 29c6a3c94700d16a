"""IC3 / property-directed reachability: unbounded SAT-based proving (``engine="ic3"``).

The bounded model checker (:mod:`repro.mc.bmc`) falsifies fast but proves
only via k-induction, which diverges whenever the invariant needs
*inductive strengthening* — the property is true but not inductive, and no
simple-path length within the bound closes the gap.  IC3 (Bradley's
property-directed reachability) constructs the strengthening incrementally
instead: it maintains a monotone sequence of **frames**

.. math:: F_0 = Init,\\ F_1,\\ \\dots,\\ F_N \\quad (F_i \\supseteq F_{i+1}\\text{'s clauses},\\ F_i \\subseteq F_{i+1}\\text{ as state sets})

where every ``F_i`` over-approximates the states reachable in at most ``i``
steps, each as a set of **blocked cubes** (clauses ``¬c`` over the stable
symbolic state bits shared with the BDD and BMC engines).

The algorithm, in the delta-encoded formulation:

* a **bad cube** — a model of ``F_N ∧ ¬P`` — seeds a *proof obligation*
  ``(c, N)`` on a priority queue ordered by frame (deepest first);
* an obligation ``(c, i)`` is discharged by the **relative induction
  query** ``SAT?(F_{i-1} ∧ ¬c ∧ T ∧ c′)``, issued as an assumption-based
  call into the incremental :class:`~repro.sat.solver.Solver` owned by
  frame ``i-1`` (the temporary ``¬c`` rides on a per-query activation
  literal that is retired afterwards).  UNSAT blocks ``c`` at ``i``: the
  solver's :meth:`~repro.sat.solver.Solver.unsat_core` seeds **cube
  generalization**, which drops further literals one at a time while the
  query stays UNSAT and the cube stays disjoint from the initial states,
  then pushes the generalized cube to the highest frame that still blocks
  it.  SAT yields a predecessor, shrunk against the BDD pre-image of ``c``
  (every state of the shrunk cube keeps a transition into ``c`` — the
  role ternary simulation plays in bit-level implementations), and two
  obligations go back on the queue;
* on a network of identical processes with a verified rotation symmetry
  ρ, every blocked cube's rotations ``ρ^j(c)`` are installed at the same
  frame, so each lemma is found once per orbit, not once per process
  (:class:`_IC3Run` says when a rotation needs its own query);
* a predecessor overlapping ``Init`` (in particular any found in frame 0,
  whose solver carries the initial-state constraint) turns the obligation
  chain into a **counterexample**: the cube chain is re-solved as a BMC
  unrolling and decoded into a genuine path of the source structure;
* when the top frame has no bad cube left, a new frame opens and every
  blocked cube is tentatively **pushed** forward (``SAT?(F_i ∧ T ∧ c′)``);
  a frame whose delta empties out means ``F_i = F_{i+1}``: a **fixpoint**.
  The surviving clauses are an inductive invariant — initiation,
  consecution and safety are then **re-verified** by independent SAT
  queries against the CNF transition relation (fresh solvers, no state
  shared with the search) before the verdict is reported, and the
  certificate is exposed as :attr:`IC3ModelChecker.certificate` with
  ``last_detail = "ic3-invariant …"``.

The engine shares BMC's formula front end: it answers verdicts only
(``supports_satisfaction_sets`` is ``False``), is rooted at the initial
state, rejects fairness constraints, and handles boolean/index-quantified
combinations of ``AG p`` and ``EF p`` with propositional bodies; liveness
(``AF``/``EG``) stays with BMC falsification or the fixpoint engines (see
``docs/ENGINES.md``).
Unlike BMC there is no depth ceiling to tune — ``max_frames`` is a safety
net, not a proof parameter.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bdd import BDDFunction
from repro.errors import InconclusiveError, ModelCheckingError
from repro.kripke.structure import KripkeStructure, State
from repro.kripke.symbolic import SymbolicKripkeStructure
from repro.logic.ast import Formula
from repro.mc.bitset import DEFAULT_MAX_FRAMES
from repro.mc.bmc import _SATFrontEnd, _Unroller
from repro.mc.fairness import FairnessConstraint
from repro.obs.progress import heartbeat as _heartbeat
from repro.obs.trace import span as _obs_span
from repro.runtime.limits import checkpoint as _checkpoint
from repro.sat.cnf import CNF, tseitin_bdd
from repro.sat.solver import Solver, SolverStats

__all__ = ["IC3ModelChecker", "InvariantCertificate", "DEFAULT_MAX_FRAMES"]


@dataclass(frozen=True)
class InvariantCertificate:
    """An inductive invariant proving ``AG P``, as re-verified clauses.

    ``cubes`` are the blocked cubes (tuples of signed state-bit indices,
    ``+k``/``-k`` for bit ``k-1`` true/false); the invariant is the
    conjunction of their negations.  ``frame`` is the fixpoint frame the
    clauses stabilised at.  The certificate satisfies — checked by fresh,
    independent SAT queries before it is handed out —

    * initiation: ``Init → ¬c`` for every cube ``c``,
    * consecution: ``Inv ∧ T → Inv′``,
    * safety: ``Inv → P``.
    """

    cubes: Tuple[Tuple[int, ...], ...]
    frame: int

    @property
    def num_clauses(self) -> int:
        """The number of clauses in the invariant."""
        return len(self.cubes)


@dataclass
class _Obligation:
    """A cube that must be blocked at ``level`` (or yields a counterexample).

    ``parent`` is the obligation whose cube this one's steps into — walking
    the chain upward reconstructs the abstract counterexample trace.
    """

    level: int
    cube: Tuple[int, ...]
    parent: Optional["_Obligation"]


@dataclass
class _Counters:
    """IC3 search counters (merged into ``IC3ModelChecker.stats()``)."""

    frames: int = 0
    cubes_blocked: int = 0
    obligations: int = 0
    relative_queries: int = 0
    generalization_queries: int = 0
    literals_dropped: int = 0
    clauses_pushed: int = 0
    cubes_subsumed: int = 0
    verification_queries: int = 0
    rotated_lemmas: int = 0
    rotation_queries: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def accumulate(self, other: "_Counters") -> None:
        for counter in fields(self):
            mine, theirs = getattr(self, counter.name), getattr(other, counter.name)
            # ``frames`` is a high-water mark; every other counter adds up.
            total = max(mine, theirs) if counter.name == "frames" else mine + theirs
            setattr(self, counter.name, total)


class _TransitionTemplate:
    """The CNF transition relation, loaded once and cloned per frame solver.

    Solver variables ``1 … n`` carry the current state bits, ``n+1 … 2n``
    the next state bits (``n = num_bits``); Tseitin definition variables
    come after.  The clauses are loaded into one template solver, which is
    never solved; :meth:`new_solver` hands out
    :meth:`~repro.sat.solver.Solver.clone` copies of it.
    """

    def __init__(self, symbolic: SymbolicKripkeStructure) -> None:
        with _obs_span("ic3.compile") as sp:
            self.symbolic = symbolic
            self.num_bits = symbolic.num_bits
            cnf = CNF()
            cnf.new_vars(2 * self.num_bits)
            self.current_map = {2 * bit: bit + 1 for bit in range(self.num_bits)}
            var_map = dict(self.current_map)
            for bit in range(self.num_bits):
                var_map[2 * bit + 1] = self.num_bits + bit + 1
            transition = tseitin_bdd(symbolic.manager, symbolic.transition, var_map, cnf)
            cnf.add_clause((transition,))
            self._solver = Solver()
            for _ in range(cnf.num_vars):
                self._solver.new_var()
            for clause in cnf.clauses:
                self._solver.add_clause(clause)
            sp.set(bits=self.num_bits, cnf_vars=cnf.num_vars)
        #: Variables of the template CNF (state bits plus Tseitin definitions).
        self.cnf_vars = cnf.num_vars

    def new_solver(self) -> Solver:
        """A fresh incremental solver pre-loaded with the transition relation.

        A clone of the template solver: it shares no state with the
        template or with any other solver handed out here.
        """
        return self._solver.clone()

    def encode_state_set(self, solver: Solver, node: int, cache: Dict[int, int]) -> int:
        """Tseitin a current-variables BDD into ``solver``; returns its literal."""
        return tseitin_bdd(self.symbolic.manager, node, self.current_map, solver, cache)


class _IC3Run:
    """One IC3 search for one invariant body (property-specific frames).

    **Symmetry-seeded lemmas.**  A network of identical processes makes IC3
    rediscover every blocking clause once per process.  When the structure's
    process symmetry ρ is verified (``ρ(T) = T``, see
    :meth:`~repro.kripke.symbolic.SymbolicKripkeStructure.verified_symmetry`),
    a cube ``c`` blocked at frame ``k`` is followed by its rotations
    ``ρ^j(c)``, ``j = 1 … n−1``, at the same frame — one cube per orbit
    instead of one per process (Emerson & Sistla's symmetry reduction
    applied to IC3's lemmas).  The path is decided once per run:

    * ``trusted`` — ``Init`` and ``Bad`` are ρ-invariant too.  The frames
      then stay orbit-closed by induction: ``F_0 = Init`` is closed, every block
      installs a whole orbit, and a push pass moves ``c`` from ``F_i`` to
      ``F_{i+1}`` exactly when it moves ``ρc`` (the push query of ``ρc`` is
      the ρ-image of that of ``c`` over the unchanged, closed ``F_i``), so
      every frame is closed again at the end of each level's pass.  Over a
      closed ``F_{k−1}``, ``F_{k−1} ∧ ¬ρc ∧ T ∧ ρc′`` is the ρ-image of the
      query that just came back UNSAT for ``c``, and ``ρc`` misses ``Init``
      because ``c`` does — so each rotation is installed with no query.
      Only ``Init`` enters that argument; ``Bad`` is demanded invariant as
      well so that only fully symmetric searches skip the checks (an
      asymmetric property such as ``AG ¬c_1`` runs ``checked``).
    * ``checked`` — ρ is verified but ``Init`` or ``Bad`` is not invariant
      (the token ring, whose token starts at process 1).  A rotation is
      installed only if it misses ``Init`` and its own relative induction
      query at frame ``k`` is UNSAT.
    * ``off`` — no verified symmetry (no candidate, an explicit encoding,
      or a candidate the check rejected): no rotation is offered.

    Either way :meth:`_certify` re-verifies the final invariant with fresh
    solvers, so a seeded lemma can never slip into a reported proof
    unchecked.
    """

    def __init__(
        self,
        symbolic: SymbolicKripkeStructure,
        template: _TransitionTemplate,
        property_node: int,
        drat: bool = False,
    ) -> None:
        self.symbolic = symbolic
        self.template = template
        self.drat = drat
        self.proof_stats: Optional[Dict[str, int]] = None
        self.num_bits = symbolic.num_bits
        self.property_fn = symbolic.function(property_node)
        self.bad_fn = symbolic.function(symbolic.complement(property_node))
        self.init_fn = symbolic.function(symbolic.initial)
        self.counters = _Counters()
        self.solver_stats = SolverStats()
        self.symmetry, self.symmetry_reason, self._rotations = self._symmetry_path()
        # frames[i] holds the cubes blocked *exactly* at level i (the delta
        # encoding): F_i's clause set is the union of frames[i:], so clauses
        # accumulate downward and F_1 ⊆ F_2 ⊆ … as state sets.
        self.frames: List[List[Tuple[int, ...]]] = [[], []]
        self.solvers: List[Solver] = [self.template.new_solver(), self.template.new_solver()]
        self._solver_caches: List[Dict[int, int]] = [{}, {}]
        self._bad_literals: Dict[int, int] = {}
        self._ticket = 0
        # Frame 0 is the initial states themselves: F_0 = Init.
        init_literal = self.template.encode_state_set(
            self.solvers[0], self.symbolic.initial, self._solver_caches[0]
        )
        self.solvers[0].add_clause((init_literal,))

    # -- plumbing -------------------------------------------------------------

    @property
    def top(self) -> int:
        return len(self.frames) - 1

    def _symmetry_path(self) -> Tuple[str, Optional[str], List[Tuple[int, ...]]]:
        """``(path, reason, powers)``: how blocked cubes are seeded along their orbit.

        ``powers[j-1][b]`` is the state bit ``ρ^j`` sends bit ``b`` to (state
        bit ``b`` is BDD variable ``2b``; bits outside the process blocks,
        such as the mutex lock, stay fixed).  ``verified_symmetry`` proves
        ``ρ`` fixes the transition relation, which is exactly the relation
        :class:`_TransitionTemplate` lowers to CNF.
        """
        symmetry = self.symbolic.verified_symmetry()
        if symmetry is None:
            return "off", self.symbolic.symmetry_reason, []
        var_map = symmetry.var_map
        # Compared, not kept: like the symmetry check itself, this must not
        # leave new references behind (the leak sanitizer audits that).
        if self.init_fn.permute(var_map) != self.init_fn:
            path, reason = "checked", "init_not_invariant"
        elif self.bad_fn.permute(var_map) != self.bad_fn:
            path, reason = "checked", "bad_not_invariant"
        else:
            path, reason = "trusted", None
        step = [var_map.get(2 * bit, 2 * bit) // 2 for bit in range(self.num_bits)]
        powers = []
        power = step
        for _ in range(len(symmetry.sigma) - 1):
            powers.append(tuple(power))
            power = [step[bit] for bit in power]
        return path, reason, powers

    def _primed(self, literal: int) -> int:
        return literal + self.num_bits if literal > 0 else literal - self.num_bits

    def _bad_literal(self, level: int) -> int:
        literal = self._bad_literals.get(level)
        if literal is None:
            literal = self.template.encode_state_set(
                self.solvers[level], self.bad_fn.node, self._solver_caches[level]
            )
            self._bad_literals[level] = literal
        return literal

    def _cube_from_model(self, solver: Solver) -> Tuple[int, ...]:
        return tuple(
            bit if solver.model_value(bit) else -bit
            for bit in range(1, self.num_bits + 1)
        )

    def _cube_fn(self, cube: Sequence[int]) -> BDDFunction:
        """The BDD of ``cube`` (state bit ``k`` is BDD variable ``2k``)."""
        symbolic = self.symbolic
        return symbolic.function(
            symbolic.manager.cube({2 * (abs(literal) - 1): literal > 0 for literal in cube})
        )

    def _intersects_init(self, cube: Sequence[int]) -> bool:
        return not (self.init_fn & self._cube_fn(cube)).is_false

    # -- SAT queries ----------------------------------------------------------

    def _try_block(
        self, cube: Sequence[int], level: int
    ) -> Tuple[bool, Tuple[int, ...]]:
        """The relative induction query ``SAT?(F_{level-1} ∧ ¬cube ∧ T ∧ cube′)``.

        Returns ``(True, core_cube)`` on UNSAT — ``core_cube`` keeps only the
        literals whose primed assumptions the solver's unsat core used — or
        ``(False, predecessor_cube)`` on SAT.  The temporary ``¬cube`` clause
        is guarded by a fresh activation literal, retired afterwards by a
        unit clause the solver simplifies away.
        """
        solver = self.solvers[level - 1]
        activation = solver.new_var()
        solver.add_clause([-activation] + [-literal for literal in cube])
        assumptions = [activation] + [self._primed(literal) for literal in cube]
        self.counters.relative_queries += 1
        if solver.solve(assumptions):
            predecessor = self._cube_from_model(solver)
            solver.add_clause((-activation,))
            return False, predecessor
        core = solver.unsat_core()
        solver.add_clause((-activation,))
        kept = tuple(
            literal for literal in cube if self._primed(literal) in core
        )
        return True, kept

    def _can_push(self, cube: Sequence[int], level: int) -> bool:
        """``UNSAT?(F_level ∧ T ∧ cube′)`` — ``¬cube`` is already in ``F_level``."""
        solver = self.solvers[level]
        self.counters.relative_queries += 1
        return not solver.solve([self._primed(literal) for literal in cube])

    # -- cube surgery ---------------------------------------------------------

    def _shrink(self, cube: Sequence[int], region: BDDFunction) -> Tuple[int, ...]:
        """Drop literals while the cube stays inside ``region``.

        This is the shrinking role ternary simulation plays in bit-level IC3
        implementations: a literal is redundant when every completion of the
        widened cube still lies in the region (for predecessors, the
        pre-image of the successor cube — every widened state keeps its
        transition)."""
        current = list(cube)
        for literal in list(current):
            if len(current) <= 1:
                break
            candidate = [other for other in current if other != literal]
            if (self._cube_fn(candidate) & ~region).is_false:
                current = candidate
        return tuple(current)

    def _restore_initiation(
        self, kept: Sequence[int], original: Sequence[int]
    ) -> Tuple[int, ...]:
        """Re-add dropped literals until the cube is disjoint from ``Init``.

        Every blocking clause must hold on the initial states; the full
        original cube is disjoint (checked at obligation creation), so the
        loop terminates."""
        restored = list(kept)
        have = set(restored)
        for literal in original:
            if restored and not self._intersects_init(restored):
                break
            if literal not in have:
                restored.append(literal)
                have.add(literal)
        return tuple(restored)

    def _generalize(self, cube: Tuple[int, ...], level: int) -> Tuple[int, ...]:
        """Drop literals one at a time while the cube stays blocked at ``level``."""
        with _obs_span("ic3.generalize", level=level, before=len(cube)) as sp:
            current = cube
            for literal in cube:
                if len(current) <= 1:
                    break
                if literal not in current:
                    continue  # already dropped by an earlier core reduction
                candidate = tuple(other for other in current if other != literal)
                if self._intersects_init(candidate):
                    continue
                self.counters.generalization_queries += 1
                blocked, core = self._try_block(candidate, level)
                if blocked:
                    current = self._restore_initiation(core, candidate)
            self.counters.literals_dropped += len(cube) - len(current)
            sp.set(after=len(current))
        return current

    # -- frame bookkeeping ----------------------------------------------------

    def _is_blocked(self, cube: Sequence[int], level: int) -> bool:
        """Syntactic check: some clause of ``F_level`` already subsumes ``¬cube``."""
        cube_set = set(cube)
        for frame in self.frames[level:]:
            for blocked in frame:
                if cube_set.issuperset(blocked):
                    return True
        return False

    def _add_blocked(self, cube: Tuple[int, ...], level: int) -> None:
        """Install ``¬cube`` into ``F_1 … F_level`` (delta frame ``level``)."""
        cube_set = set(cube)
        for index in range(1, level + 1):
            survivors = [
                blocked
                for blocked in self.frames[index]
                if not cube_set.issubset(blocked)
            ]
            self.counters.cubes_subsumed += len(self.frames[index]) - len(survivors)
            self.frames[index][:] = survivors
        self.frames[level].append(cube)
        clause = [-literal for literal in cube]
        for index in range(1, level + 1):
            self.solvers[index].add_clause(clause)
        self.counters.cubes_blocked += 1

    def _seed_rotations(self, cube: Tuple[int, ...], level: int) -> None:
        """Install the rotations ``ρ^j(cube)`` at ``level`` (see the class docstring)."""
        for power in self._rotations:
            image = tuple(
                power[literal - 1] + 1 if literal > 0 else -power[-literal - 1] - 1
                for literal in cube
            )
            if self._is_blocked(image, level):
                continue
            if self.symmetry == "checked":
                if self._intersects_init(image):
                    continue
                self.counters.rotation_queries += 1
                blocked, _ = self._try_block(image, level)
                if not blocked:
                    continue
            self._add_blocked(image, level)
            self.counters.rotated_lemmas += 1

    def _open_frame(self) -> None:
        self.frames.append([])
        self.solvers.append(self.template.new_solver())
        self._solver_caches.append({})
        self.counters.frames = self.top

    def _propagate(self) -> Optional[List[Tuple[int, ...]]]:
        """Push blocked cubes forward; an emptied delta frame is a fixpoint.

        Returns the surviving cubes (the inductive invariant's clauses) on
        fixpoint, else ``None``."""
        with _obs_span("ic3.push", frames=self.top) as sp:
            pushed_before = self.counters.clauses_pushed
            for level in range(1, self.top):
                for cube in list(self.frames[level]):
                    if self._can_push(cube, level):
                        self.frames[level].remove(cube)
                        self.frames[level + 1].append(cube)
                        self.solvers[level + 1].add_clause(
                            [-literal for literal in cube]
                        )
                        self.counters.clauses_pushed += 1
                if not self.frames[level]:
                    sp.set(
                        pushed=self.counters.clauses_pushed - pushed_before,
                        fixpoint_at=level,
                    )
                    return [
                        cube
                        for frame in self.frames[level + 1 :]
                        for cube in frame
                    ]
            sp.set(pushed=self.counters.clauses_pushed - pushed_before)
        return None

    # -- the main loop --------------------------------------------------------

    def run(
        self, max_frames: int
    ) -> Tuple[bool, Union[InvariantCertificate, List[State]]]:
        """Decide ``AG P``: ``(True, certificate)`` or ``(False, path)``.

        Raises :class:`~repro.errors.InconclusiveError` past ``max_frames``
        (a diverging IC3 run — the safety net, not a proof parameter).
        """
        with _obs_span("ic3.run", symmetry=self.symmetry) as sp:
            if self.symmetry_reason is not None:
                sp.set(symmetry_reason=self.symmetry_reason)
            if self.solvers[0].solve([self._bad_literal(0)]):
                state = self.symbolic.decode_state(
                    {
                        2 * bit: self.solvers[0].model_value(bit + 1)
                        for bit in range(self.num_bits)
                    }
                )
                sp.set(outcome="initial-bad-state")
                return False, [state]
            while True:
                counters = self.counters
                _checkpoint("ic3.frame")
                _heartbeat(
                    "ic3",
                    frames=self.top,
                    obligations=counters.obligations,
                    blocked=counters.cubes_blocked,
                )
                counterexample = self._strengthen_top()
                if counterexample is not None:
                    sp.set(outcome="counterexample", frames=self.top)
                    return False, counterexample
                if self.top >= max_frames:
                    raise InconclusiveError(
                        "IC3 exceeded the frame ceiling (%d) without converging; "
                        "raise max_frames" % max_frames,
                        frames_opened=self.top,
                        conflicts_spent=sum(
                            solver.stats.conflicts for solver in self.solvers
                        ),
                    )
                self._open_frame()
                invariant_cubes = self._propagate()
                if invariant_cubes is not None:
                    sp.set(outcome="invariant", frames=self.top)
                    return True, self._certify(invariant_cubes)

    def _strengthen_top(self) -> Optional[List[State]]:
        """Block bad cubes of the top frame until none is left.

        Returns a counterexample path when some obligation chain reaches the
        initial states, else ``None`` once ``F_top ∧ Bad`` is unsatisfiable.
        The query must be re-run after every successful block: blocking one
        bad cube says nothing about the other bad states of the frame.
        """
        with _obs_span("ic3.frame", k=self.top) as sp:
            counterexample = self._strengthen_frame()
            sp.set(outcome="counterexample" if counterexample else "strengthened")
        return counterexample

    def _strengthen_frame(self) -> Optional[List[State]]:
        solver = self.solvers[self.top]
        while solver.solve([self._bad_literal(self.top)]):
            cube = self._shrink(self._cube_from_model(solver), self.bad_fn)
            if self._intersects_init(cube):
                # Only possible before any transition is taken: an initial bad
                # state, which the depth-0 query already excluded.
                raise ModelCheckingError(
                    "IC3 found an initial bad state after the depth-0 check passed"
                )  # pragma: no cover - guarded by the depth-0 query
            counterexample = self._block(_Obligation(self.top, cube, None))
            if counterexample is not None:
                return counterexample
        return None

    def _block(self, root: _Obligation) -> Optional[List[State]]:
        """Discharge ``root`` and everything it spawns (``None`` = all blocked)."""
        queue: List[Tuple[int, int, _Obligation]] = []
        self._push_obligation(queue, root)
        while queue:
            level, _, obligation = heapq.heappop(queue)
            _checkpoint("ic3.obligation")
            cube = obligation.cube
            with _obs_span(
                "ic3.obligation", level=level, cube_size=len(cube)
            ) as sp:
                if self._is_blocked(cube, level):
                    sp.set(outcome="subsumed")
                    continue
                blocked, core = self._try_block(cube, level)
                if not blocked:
                    predecessor = self._shrink(
                        core, self.symbolic.preimage_fn(self._cube_fn(cube))
                    )
                    if self._intersects_init(predecessor):
                        sp.set(outcome="counterexample")
                        return self._reconstruct(
                            [predecessor] + self._chain_cubes(obligation)
                        )
                    self._push_obligation(
                        queue, _Obligation(level - 1, predecessor, obligation)
                    )
                    self._push_obligation(queue, obligation)
                    sp.set(outcome="predecessor")
                    continue
                generalized = self._generalize(
                    self._restore_initiation(core, cube), level
                )
                frontier = level
                while frontier < self.top:
                    self.counters.generalization_queries += 1
                    pushed, _ = self._try_block(generalized, frontier + 1)
                    if not pushed:
                        break
                    frontier += 1
                self._add_blocked(generalized, frontier)
                self._seed_rotations(generalized, frontier)
                sp.set(outcome="blocked", frontier=frontier)
                if frontier < self.top:
                    # Chase the original cube at the next frame up: it is not yet
                    # blocked there and will resurface otherwise.
                    self._push_obligation(
                        queue, _Obligation(frontier + 1, cube, obligation.parent)
                    )
        return None

    def _push_obligation(
        self, queue: List[Tuple[int, int, _Obligation]], obligation: _Obligation
    ) -> None:
        if obligation.level <= 0:
            raise ModelCheckingError(
                "IC3 obligation fell below frame 1"
            )  # pragma: no cover - predecessors of frame-1 obligations hit Init
        self._ticket += 1
        self.counters.obligations += 1
        heapq.heappush(queue, (obligation.level, self._ticket, obligation))

    @staticmethod
    def _chain_cubes(obligation: _Obligation) -> List[Tuple[int, ...]]:
        cubes = []
        current: Optional[_Obligation] = obligation
        while current is not None:
            cubes.append(current.cube)
            current = current.parent
        return cubes

    def _reconstruct(self, cubes: List[Tuple[int, ...]]) -> List[State]:
        """Re-solve the abstract cube chain as a BMC unrolling and decode it.

        The chain is satisfiable by construction (every cube lies in the
        pre-image of its successor and the last cube in ``¬P``), so this
        doubles as a cross-check: an UNSAT answer would mean the obligation
        chain was corrupt."""
        unroller = _Unroller(self.symbolic)
        unroller.assert_initial()
        last = len(cubes) - 1
        unroller.extend(last)
        handles = [self._cube_fn(cube) for cube in cubes]  # pinned while encoding
        for step, handle in enumerate(handles):
            unroller.solver.add_clause((unroller.literal(handle.node, step),))
        if not unroller.solver.solve():
            raise ModelCheckingError(
                "IC3 counterexample chain did not re-solve; the obligation "
                "queue is inconsistent"
            )  # pragma: no cover - guarded by construction
        self.solver_stats.accumulate(unroller.solver.stats)
        return unroller.decode_path(last)

    # -- certificate ----------------------------------------------------------

    def _certify(self, cubes: List[Tuple[int, ...]]) -> InvariantCertificate:
        """Re-verify initiation, consecution and safety with fresh solvers."""
        clauses = [tuple(-literal for literal in cube) for cube in cubes]
        init_solver = self.template.new_solver()
        if self.drat:
            init_solver.start_proof()
        init_cache: Dict[int, int] = {}
        init_literal = self.template.encode_state_set(
            init_solver, self.symbolic.initial, init_cache
        )
        init_solver.add_clause((init_literal,))
        for cube in cubes:
            self.counters.verification_queries += 1
            if init_solver.solve(list(cube)):
                raise ModelCheckingError(
                    "IC3 certificate failed initiation: a clause excludes an "
                    "initial state"
                )
        consecution = self.template.new_solver()
        if self.drat:
            consecution.start_proof()
        for clause in clauses:
            consecution.add_clause(clause)
        for cube in cubes:
            self.counters.verification_queries += 1
            if consecution.solve([self._primed(literal) for literal in cube]):
                raise ModelCheckingError(
                    "IC3 certificate failed consecution: the invariant is not "
                    "inductive under the CNF transition relation"
                )
        safety_cache: Dict[int, int] = {}
        bad_literal = self.template.encode_state_set(
            consecution, self.bad_fn.node, safety_cache
        )
        self.counters.verification_queries += 1
        if consecution.solve([bad_literal]):
            raise ModelCheckingError(
                "IC3 certificate failed safety: the invariant admits a bad state"
            )
        self.solver_stats.accumulate(init_solver.stats)
        self.solver_stats.accumulate(consecution.stats)
        if self.drat:
            # Certify every UNSAT verdict above (one per initiation and
            # consecution query, plus the safety query) with the
            # independent RUP/DRAT checker.
            from repro.sat.drat import ProofError, check_proof

            self.proof_stats = {"inputs": 0, "added": 0, "deleted": 0, "unsat_checks": 0}
            for proved in (init_solver, consecution):
                try:
                    counts = check_proof(proved.proof)
                except ProofError as error:
                    raise ModelCheckingError(
                        "IC3 certificate verification produced an uncertifiable "
                        "UNSAT proof: %s" % error
                    ) from error
                for key, value in counts.items():
                    self.proof_stats[key] += value
        return InvariantCertificate(cubes=tuple(sorted(cubes)), frame=self.top)

    def collect_stats(self) -> SolverStats:
        """Aggregate SAT statistics across every frame solver of this run."""
        total = SolverStats()
        total.accumulate(self.solver_stats)
        for solver in self.solvers:
            total.accumulate(solver.stats)
        return total


class IC3ModelChecker(_SATFrontEnd):
    """IC3/PDR prover over the engine-shared symbolic encoding.

    Accepts a plain :class:`KripkeStructure` (binary-encoded on the spot,
    sharing the memoised encoding with ``engine="bdd"``) or an
    already-encoded :class:`SymbolicKripkeStructure` — direct family
    encodings built with ``domain="free"`` skip the symbolic reachability
    fixpoint, exactly as for the bounded model checker.  The formula front
    end (fairness rejection, verdict memo, instantiation, propositional
    lowering, the boolean/``AG``/``EF`` dispatch) is the one the bounded
    model checker of :mod:`repro.mc.bmc` uses; this class adds the IC3
    invariant decision, its frames and its certificate.

    Verdicts are memoised per formula; :attr:`last_detail` reports how the
    most recent one was decided (``"ic3-invariant (12 clauses, frame 4)"``
    for proofs — contrast k-induction's ``"proved by 3-induction"`` — or
    ``"counterexample at depth 5"``), :attr:`certificate` holds the last
    re-verified :class:`InvariantCertificate`, and
    :attr:`last_counterexample` the last decoded path.

    With ``drat=True`` the certificate re-verification solvers log DRAT
    proofs, and every UNSAT verdict behind a handed-out certificate (one
    per initiation/consecution query plus the safety query) is certified
    by the independent :mod:`repro.sat.drat` forward checker;
    :attr:`last_proof_stats` reports the checker's counters.
    """

    engine = "ic3"
    _name = "the IC3 engine"
    _fragment = (
        "the IC3 engine decides the safety fragment — boolean/index-"
        "quantified combinations of AG p and EF p with propositional p; "
        "got %s (liveness falsification lives in engine='bmc', full CTL "
        "in the fixpoint engines)"
    )

    def __init__(
        self,
        structure: Union[KripkeStructure, SymbolicKripkeStructure],
        max_frames: int = DEFAULT_MAX_FRAMES,
        validate_structure: bool = True,
        fairness: Optional[FairnessConstraint] = None,
        drat: bool = False,
    ) -> None:
        if max_frames < 1:
            raise ModelCheckingError("the IC3 frame ceiling must be positive")
        super().__init__(structure, validate_structure, fairness, drat)
        self._max_frames = max_frames
        self._template: Optional[_TransitionTemplate] = None
        self._counters = _Counters()
        self._solver_stats = SolverStats()
        self.certificate: Optional[InvariantCertificate] = None

    # -- accessors -----------------------------------------------------------

    @property
    def max_frames(self) -> int:
        """The frame-count safety net (``InconclusiveError`` past it)."""
        return self._max_frames

    def stats(self) -> Dict[str, int]:
        """Aggregated SAT statistics plus the IC3 frame/obligation counters."""
        payload = self._solver_stats.as_dict()
        payload.update(self._counters.as_dict())
        return payload

    def _metric_groups(self) -> List[Tuple[str, Dict[str, int]]]:
        ic3 = self._counters.as_dict()
        if self._template is not None:
            ic3["template_cnf_vars"] = self._template.cnf_vars
        return [("sat.", self._solver_stats.as_dict()), ("ic3.", ic3)]

    # -- public API ----------------------------------------------------------

    def prove_invariant(self, invariant: Formula) -> Optional[InvariantCertificate]:
        """Prove ``AG invariant``; the re-verified certificate, or ``None``.

        ``None`` means a counterexample was found (see
        :attr:`last_counterexample`); ``invariant`` is the *body* ``p`` of
        ``AG p`` and must be propositional.
        """
        if self._decide_invariant(invariant):
            return self.certificate
        return None

    def _decide_invariant(self, body: Formula) -> bool:
        node = self.propositional_fn(body)
        if self._template is None:
            self._template = _TransitionTemplate(self._symbolic)
        run = _IC3Run(self._symbolic, self._template, node.node, drat=self._drat)
        try:
            safe, payload = run.run(self._max_frames)
        finally:
            self._counters.accumulate(run.counters)
            self._solver_stats.accumulate(run.collect_stats())
            self.last_proof_stats = run.proof_stats
        if safe:
            assert isinstance(payload, InvariantCertificate)
            self.certificate = payload
            self.last_counterexample = None
            self.last_detail = "ic3-invariant (%d clauses, frame %d)" % (
                payload.num_clauses,
                payload.frame,
            )
            return True
        assert isinstance(payload, list)
        self.last_counterexample = payload
        self.last_detail = "counterexample at depth %d" % (len(payload) - 1)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<IC3ModelChecker: %d bits, %d frames max>" % (
            self._symbolic.num_bits,
            self._max_frames,
        )
