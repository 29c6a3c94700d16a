"""DRAT proof logging and an independent forward RUP/DRAT checker.

Every UNSAT answer of the CDCL solver can be *certified*: with a
:class:`ProofLog` attached (``solver.start_proof()``), the solver
records every input clause (``i``), every derived clause (``a`` — each
one checkable by reverse unit propagation), every deletion (``d``), and
every UNSAT verdict (``u``, with the assumption literals it was made
under).  :func:`check_proof` then replays the log on a tiny,
self-contained unit propagator that shares no code with the solver: an
``a`` step is accepted only if unit-propagating its negation over the
clauses accumulated so far yields a conflict (RUP), falling back to the
resolution-candidate check on the first literal (RAT); a ``u`` step is
accepted only if the empty clause is RUP once the assumptions are added
as units.

This extends textbook DRAT in one practical direction: the solver is
*incremental* (clauses arrive between solves, UNSAT verdicts are
relative to assumptions), so the log interleaves inputs with
derivations and can contain several ``u`` verdicts — each independently
certified against the database at that point.  :meth:`ProofLog.to_drat_text`
serialises the derivation steps in the standard textual DRAT format for
interoperability.

Why the learnt clauses are always RUP: CDCL conflict analysis resolves
the conflicting clause only against *reason* clauses, never against
decisions — so the learnt clause follows from the database by input
resolution, which forward RUP checks one step at a time.  A clause
subsumed on the fly is deleted only *after* the learnt clause that
subsumes it is logged, keeping every step checkable in order.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sat.cnf import SatError

__all__ = ["ProofError", "ProofLog", "check_proof"]


class ProofError(SatError):
    """A proof step failed certification (or the log is malformed)."""


class ProofLog:
    """An in-memory DRAT-style proof transcript.

    Steps are ``(kind, payload)`` pairs, in derivation order:

    ``("i", lits)``
        an input clause, exactly as handed to :meth:`Solver.add_clause`
        (not checked, only recorded);
    ``("a", lits)``
        a derived clause the checker must certify (RUP, RAT fallback);
    ``("d", lits)``
        deletion of one clause with these literals (multiset match);
    ``("u", assumptions)``
        an UNSAT verdict under these assumption literals — the empty
        clause must be RUP with the assumptions added as unit clauses.
    """

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps: List[Tuple[str, Tuple[int, ...]]] = []

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Tuple[str, Tuple[int, ...]]]:
        return iter(self.steps)

    def clear(self) -> None:
        self.steps.clear()

    # -- recording (called by the solver) ----------------------------------

    def input(self, lits: Iterable[int]) -> None:
        self.steps.append(("i", tuple(lits)))

    def add(self, lits: Iterable[int]) -> None:
        self.steps.append(("a", tuple(lits)))

    def delete(self, lits: Iterable[int]) -> None:
        self.steps.append(("d", tuple(lits)))

    def unsat(self, assumptions: Iterable[int] = ()) -> None:
        self.steps.append(("u", tuple(assumptions)))

    # -- introspection -----------------------------------------------------

    def inputs(self) -> List[Tuple[int, ...]]:
        """Every input clause recorded so far, in order."""
        return [payload for kind, payload in self.steps if kind == "i"]

    def unsat_verdicts(self) -> List[Tuple[int, ...]]:
        """The assumption tuples of every recorded UNSAT verdict."""
        return [payload for kind, payload in self.steps if kind == "u"]

    def to_drat_text(self) -> str:
        """The derivation steps in standard textual DRAT.

        Input clauses are omitted (a DRAT file is checked against the
        original CNF); assumption-relative verdicts, which plain DRAT
        cannot express, become comment lines.
        """
        lines: List[str] = []
        for kind, payload in self.steps:
            body = " ".join(str(literal) for literal in payload)
            if kind == "a":
                lines.append((body + " 0").strip())
            elif kind == "d":
                lines.append(("d " + body + " 0").replace("  ", " "))
            elif kind == "u" and not payload:
                lines.append("0")
            elif kind == "u":
                lines.append("c unsat under assumptions: " + body)
        return "\n".join(lines) + ("\n" if lines else "")


class _ForwardChecker:
    """A minimal, solver-independent clause database with unit propagation."""

    def __init__(self) -> None:
        self.clauses: List[Optional[Tuple[int, ...]]] = []  # None = deleted
        self.occurrences: Dict[int, List[int]] = {}
        self.by_key: Dict[Tuple[int, ...], List[int]] = {}
        self.units: List[int] = []
        self.has_empty = False

    def add(self, lits: Sequence[int]) -> None:
        clause = tuple(lits)
        cid = len(self.clauses)
        self.clauses.append(clause)
        for literal in set(clause):
            self.occurrences.setdefault(literal, []).append(cid)
        self.by_key.setdefault(tuple(sorted(clause)), []).append(cid)
        if not clause:
            self.has_empty = True
        elif len(set(clause)) == 1:
            self.units.append(cid)

    def delete(self, lits: Sequence[int]) -> bool:
        key = tuple(sorted(lits))
        for cid in self.by_key.get(key, ()):
            if self.clauses[cid] is not None:
                self.clauses[cid] = None
                return True
        return False

    def rup(self, lits: Sequence[int], extra_units: Sequence[int] = ()) -> bool:
        """True iff asserting ``¬lits`` (plus ``extra_units``) propagates to a conflict."""
        if self.has_empty:
            return True
        assignment: Dict[int, bool] = {}
        queue: deque = deque()

        def assume(literal: int) -> bool:
            """Make ``literal`` true; False signals an immediate conflict."""
            var = abs(literal)
            want = literal > 0
            current = assignment.get(var)
            if current is None:
                assignment[var] = want
                queue.append(literal)
                return True
            return current == want

        for literal in lits:
            if not assume(-literal):
                return True
        for literal in extra_units:
            if not assume(literal):
                return True
        for cid in self.units:
            clause = self.clauses[cid]
            if clause is not None and not assume(clause[0]):
                return True
        while queue:
            literal = queue.popleft()
            for cid in self.occurrences.get(-literal, ()):
                clause = self.clauses[cid]
                if clause is None:
                    continue
                satisfied = False
                unassigned: set = set()
                for other in clause:
                    value = assignment.get(abs(other))
                    if value is None:
                        unassigned.add(other)
                    elif value == (other > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return True  # conflict
                if len(unassigned) == 1:
                    if not assume(unassigned.pop()):
                        return True
        return False

    def rat(self, lits: Sequence[int]) -> bool:
        """Resolution-asymmetric-tautology check on the first literal."""
        if not lits:
            return False
        pivot = lits[0]
        rest = [literal for literal in lits if literal != pivot]
        for cid, clause in enumerate(self.clauses):
            if clause is None or -pivot not in clause:
                continue
            resolvent = rest + [literal for literal in clause if literal != -pivot]
            if any(-literal in resolvent for literal in resolvent):
                continue  # tautological resolvent
            if not self.rup(resolvent):
                return False
        return True


def check_proof(log: ProofLog) -> Dict[str, int]:
    """Forward-check an entire proof transcript; raise :class:`ProofError`.

    Replays the log in order on a fresh :class:`_ForwardChecker`.  Returns
    counters (``inputs``, ``added``, ``deleted``, ``unsat_checks``) on
    success; raises on the first step that fails certification, naming
    the step index and payload.
    """
    checker = _ForwardChecker()
    counts = {"inputs": 0, "added": 0, "deleted": 0, "unsat_checks": 0}
    for index, (kind, payload) in enumerate(log.steps):
        if kind == "i":
            checker.add(payload)
            counts["inputs"] += 1
        elif kind == "a":
            if not checker.rup(payload) and not checker.rat(payload):
                raise ProofError(
                    "proof step %d: derived clause %r is neither RUP nor RAT"
                    % (index, list(payload))
                )
            checker.add(payload)
            counts["added"] += 1
        elif kind == "d":
            if not checker.delete(payload):
                raise ProofError(
                    "proof step %d: deletion of %r matches no active clause"
                    % (index, list(payload))
                )
            counts["deleted"] += 1
        elif kind == "u":
            if not checker.rup((), extra_units=payload):
                raise ProofError(
                    "proof step %d: UNSAT verdict under assumptions %r is not "
                    "certified (no propagation conflict)" % (index, list(payload))
                )
            counts["unsat_checks"] += 1
        else:
            raise ProofError("proof step %d: unknown kind %r" % (index, kind))
    return counts
