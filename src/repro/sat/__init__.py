"""SAT subsystem: a pure-Python CDCL solver and CNF/circuit tooling.

Two layers:

* :mod:`repro.sat.cnf` — the formula side: DIMACS-convention literals, a
  growable :class:`~repro.sat.cnf.CNF` clause database, Tseitin gate
  encoding (shared with the solver through the
  :class:`~repro.sat.cnf.ClauseSink` mixin), BDD-to-CNF lowering
  (:func:`~repro.sat.cnf.tseitin_bdd`), DIMACS import/export, and the
  brute-force reference semantics used for differential testing;
* :mod:`repro.sat.solver` — :class:`~repro.sat.solver.Solver`, an
  incremental CDCL solver (two-watched-literal propagation, first-UIP
  clause learning with database reduction, VSIDS + phase saving, Luby
  restarts, assumptions).

The bounded model checker (:mod:`repro.mc.bmc`) is the primary in-repo
client: it unrolls BDD transition relations into a solver frame by frame.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CNF": "cnf",
        "ClauseSink": "cnf",
        "SatError": "cnf",
        "enumerate_models": "cnf",
        "evaluate_clauses": "cnf",
        "naive_satisfiable": "cnf",
        "parse_dimacs": "cnf",
        "to_dimacs": "cnf",
        "tseitin_bdd": "cnf",
        "Solver": "solver",
        "SolverStats": "solver",
        "luby": "solver",
    },
)

__all__ = [
    "CNF",
    "ClauseSink",
    "SatError",
    "Solver",
    "SolverStats",
    "luby",
    "tseitin_bdd",
    "to_dimacs",
    "parse_dimacs",
    "evaluate_clauses",
    "enumerate_models",
    "naive_satisfiable",
]
