"""CNF formulas: variable pools, Tseitin encoding, BDD-to-CNF, DIMACS I/O.

Literals follow the DIMACS convention used by every SAT tool: variables are
positive integers ``1, 2, 3, …`` and a negative integer denotes the negation
of its variable, so ``-5`` is ``¬x5``.  A *clause* is a sequence of literals
read as their disjunction, and a CNF formula is the conjunction of its
clauses.

:class:`CNF` is both a variable pool and a clause database.  It is the
*builder* side of the SAT subsystem: circuits are lowered onto it through the
Tseitin ``gate_*`` methods (each gate allocates one definition variable and
emits the clauses making it equivalent to the gate's function), and
:func:`tseitin_bdd` lowers a whole :mod:`repro.bdd` decision diagram — one
definition variable per BDD node, six clauses per node (the two redundant
ones let propagation settle a node whose children agree), complement edges
becoming negated literals for free.  Anything accepting ``new_var`` /
``add_clause`` (notably :class:`repro.sat.solver.Solver`) can serve as the
sink of the ``gate_*`` helpers through :class:`ClauseSink` duck typing, which
is how the bounded model checker streams its unrolling straight into an
incremental solver.

:func:`to_dimacs` / :func:`parse_dimacs` round-trip the standard exchange
format, and :func:`naive_satisfiable` / :func:`enumerate_models` provide the
brute-force reference semantics the test-suite and the CI fuzz smoke check
the CDCL solver against.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "SatError",
    "ClauseSink",
    "CNF",
    "tseitin_bdd",
    "to_dimacs",
    "parse_dimacs",
    "evaluate_clauses",
    "enumerate_models",
    "naive_satisfiable",
]


class SatError(ReproError):
    """A CNF/SAT operation was used incorrectly (bad literal, malformed DIMACS, …)."""


class ClauseSink:
    """Mixin giving any ``new_var``/``add_clause`` provider the Tseitin gates.

    Both :class:`CNF` (the stored formula) and
    :class:`repro.sat.solver.Solver` (the incremental solver) inherit it, so
    circuit encodings can be written once and streamed into either.
    """

    _true_literal: Optional[int] = None

    def new_var(self) -> int:  # pragma: no cover - always overridden
        raise NotImplementedError

    def add_clause(self, literals: Iterable[int]):  # pragma: no cover - overridden
        raise NotImplementedError

    def true_literal(self) -> int:
        """A literal constrained to be true (allocated and asserted once per sink).

        Tseitin encodings of functions with constant sub-circuits need a
        constant; its negation is the false literal.
        """
        if self._true_literal is None:
            self._true_literal = self.new_var()
            self.add_clause((self._true_literal,))
        return self._true_literal

    # -- Tseitin gates -------------------------------------------------------
    #
    # Every gate allocates one definition variable `o` and emits the clauses
    # of `o ↔ gate(inputs)`, returning `o` as a literal.  Both directions are
    # always encoded so gate outputs can be used under either polarity.

    def gate_and(self, literals: Sequence[int]) -> int:
        """``o ↔ ∧ literals`` (the empty conjunction is the true literal)."""
        if not literals:
            return self.true_literal()
        if len(literals) == 1:
            return literals[0]
        output = self.new_var()
        for literal in literals:
            self.add_clause((-output, literal))
        self.add_clause((output,) + tuple(-literal for literal in literals))
        return output

    def gate_or(self, literals: Sequence[int]) -> int:
        """``o ↔ ∨ literals`` (the empty disjunction is the false literal)."""
        if not literals:
            return -self.true_literal()
        if len(literals) == 1:
            return literals[0]
        return -self.gate_and([-literal for literal in literals])

    def gate_xor(self, left: int, right: int) -> int:
        """``o ↔ left ⊕ right``."""
        output = self.new_var()
        self.add_clause((-output, left, right))
        self.add_clause((-output, -left, -right))
        self.add_clause((output, -left, right))
        self.add_clause((output, left, -right))
        return output

    def gate_iff(self, left: int, right: int) -> int:
        """``o ↔ (left ↔ right)``."""
        return -self.gate_xor(left, right)

    def gate_ite(self, condition: int, then: int, orelse: int) -> int:
        """``o ↔ (condition ? then : orelse)`` — the BDD node gate.

        The last two clauses are redundant (resolvents on ``condition``); they
        let unit propagation set ``o`` as soon as ``then`` and ``orelse``
        agree, before ``condition`` is assigned.
        """
        output = self.new_var()
        self.add_clause((-output, -condition, then))
        self.add_clause((-output, condition, orelse))
        self.add_clause((output, -condition, -then))
        self.add_clause((output, condition, -orelse))
        self.add_clause((-output, then, orelse))
        self.add_clause((output, -then, -orelse))
        return output


class CNF(ClauseSink):
    """A growable CNF formula: a variable pool plus a clause database.

    The canonical :class:`ClauseSink`: every ``gate_*`` helper targets
    ``self``, and :meth:`copy_into` replays the stored clauses into any other
    sink (e.g. a fresh solver).
    """

    def __init__(self, num_vars: int = 0) -> None:
        if num_vars < 0:
            raise SatError("a CNF cannot have a negative number of variables")
        self.num_vars = num_vars
        self.clauses: List[Tuple[int, ...]] = []
        self._true_literal = None

    # -- variable pool -------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return it (a positive integer)."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def add_clause(self, literals: Iterable[int]) -> None:
        """Append one clause (the disjunction of ``literals``)."""
        clause = tuple(literals)
        for literal in clause:
            if literal == 0:
                raise SatError("0 is not a literal (it terminates DIMACS clauses)")
            if abs(literal) > self.num_vars:
                self.num_vars = abs(literal)
        self.clauses.append(clause)

    # -- interop -------------------------------------------------------------

    def copy_into(self, sink: "CNF") -> None:
        """Replay this formula into another clause sink (variables must align)."""
        for clause in self.clauses:
            sink.add_clause(clause)

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<CNF: %d vars, %d clauses>" % (self.num_vars, len(self.clauses))


# ---------------------------------------------------------------------------
# BDD -> CNF
# ---------------------------------------------------------------------------


def tseitin_bdd(
    manager,
    edge: int,
    var_literals: Mapping[int, int],
    sink,
    cache: Optional[Dict[int, int]] = None,
) -> int:
    """Tseitin-encode the function of a BDD ``edge`` into ``sink``, returning a literal.

    ``var_literals`` maps every BDD *variable id* in the edge's support to the
    CNF literal carrying it (this is how the bounded model checker points the
    same transition-relation BDD at different time frames).  One definition
    variable and six clauses are emitted per BDD node — the four defining
    ones plus two redundant ones that let propagation settle a node whose
    children agree; complement edges cost nothing — they negate the
    returned literal.  ``cache`` (node → definition literal) may be shared
    across calls that use the *same* ``var_literals`` mapping, so a node
    shared by several edges lowered into the same time frame is encoded
    once.
    """
    if cache is None:
        cache = {}

    def literal_of(e: int) -> int:
        # Resolve an edge whose node is already encoded (or terminal).
        if e == 0:
            return -sink.true_literal()
        if e == 1:
            return sink.true_literal()
        base = cache[e >> 1]
        return -base if e & 1 else base

    # Explicit-stack post-order walk — BDDs over many variables must not hit
    # Python's recursion limit (the manager's own operations are iterative
    # for the same reason).
    stack = [edge]
    while stack:
        current = stack[-1]
        node = current >> 1
        if node == 0 or node in cache:
            stack.pop()
            continue
        regular = node << 1
        high = manager.high_of(regular)
        low = manager.low_of(regular)
        pending = [
            child for child in (high, low) if child >> 1 and (child >> 1) not in cache
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        var = manager.var_of(regular)
        try:
            condition = var_literals[var]
        except KeyError:
            raise SatError(
                "BDD variable %d has no CNF literal in the frame mapping" % var
            ) from None
        cache[node] = sink.gate_ite(condition, literal_of(high), literal_of(low))
    return literal_of(edge)


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------


def to_dimacs(cnf: CNF, comments: Sequence[str] = ()) -> str:
    """Serialise ``cnf`` in the standard DIMACS CNF exchange format."""
    lines = ["c %s" % comment for comment in comments]
    lines.append("p cnf %d %d" % (cnf.num_vars, len(cnf.clauses)))
    for clause in cnf.clauses:
        lines.append(" ".join(str(literal) for literal in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CNF:
    """Parse a DIMACS CNF document into a :class:`CNF`.

    Comment lines (``c …``) are skipped; the ``p cnf V C`` header fixes the
    variable count (clauses may not mention variables beyond it); clauses are
    whitespace-separated literal runs terminated by ``0`` and may span lines.
    """
    num_vars: Optional[int] = None
    num_clauses: Optional[int] = None
    clauses: List[Tuple[int, ...]] = []
    pending: List[int] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise SatError("line %d: duplicate DIMACS header" % line_number)
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise SatError("line %d: malformed DIMACS header %r" % (line_number, line))
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise SatError(
                    "line %d: non-numeric DIMACS header %r" % (line_number, line)
                ) from None
            continue
        if num_vars is None:
            raise SatError("line %d: clause before the DIMACS header" % line_number)
        for token in line.split():
            try:
                literal = int(token)
            except ValueError:
                raise SatError(
                    "line %d: %r is not a DIMACS literal" % (line_number, token)
                ) from None
            if literal == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                if abs(literal) > num_vars:
                    raise SatError(
                        "line %d: literal %d exceeds the declared %d variables"
                        % (line_number, literal, num_vars)
                    )
                pending.append(literal)
    if num_vars is None:
        raise SatError("no DIMACS header found")
    if pending:
        raise SatError("last clause is not terminated by 0")
    if num_clauses is not None and num_clauses != len(clauses):
        raise SatError(
            "header declares %d clauses but %d were read" % (num_clauses, len(clauses))
        )
    cnf = CNF(num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


# ---------------------------------------------------------------------------
# Reference semantics (brute force)
# ---------------------------------------------------------------------------


def evaluate_clauses(clauses: Iterable[Sequence[int]], assignment: Mapping[int, bool]) -> bool:
    """Decide whether ``assignment`` (variable → truth value) satisfies every clause."""
    for clause in clauses:
        for literal in clause:
            value = assignment.get(abs(literal))
            if value is None:
                continue
            if value == (literal > 0):
                break
        else:
            return False
    return True


def enumerate_models(cnf: CNF, limit: Optional[int] = None) -> Iterator[Dict[int, bool]]:
    """Yield every satisfying total assignment of ``cnf`` by exhaustive enumeration.

    Exponential in the variable count — this is the *reference semantics* the
    solver is differentially tested against, not a solver.
    """
    count = 0
    for pattern in range(1 << cnf.num_vars):
        assignment = {
            var: bool(pattern >> (var - 1) & 1) for var in range(1, cnf.num_vars + 1)
        }
        if evaluate_clauses(cnf.clauses, assignment):
            yield assignment
            count += 1
            if limit is not None and count >= limit:
                return


def naive_satisfiable(cnf: CNF) -> bool:
    """Brute-force satisfiability (the oracle for the fuzz smoke and the unit tests)."""
    for _ in enumerate_models(cnf, limit=1):
        return True
    return False
