"""Experiment drivers: one function per figure/claim reproduced from the paper.

Each ``run_*`` function regenerates one experiment of the per-experiment index
in ``DESIGN.md`` and returns a plain dictionary so that the tests, the
examples, and ``EXPERIMENTS.md`` all report exactly the same numbers.

Experiments
-----------
=====  ======================================================================
E1     Fig. 3.1 — corresponding structures and their degrees
E2     Fig. 4.1 — the counting formula and why the ICTL* restrictions exist
E3     Section 2 — next-time counting (``AG(t_1 ⇒ XXX t_1)``)
E4     Fig. 5.1 — the two-process mutual-exclusion global state graph
E5     Section 5 — the three invariants, swept over ring sizes
E6     Section 5 — the four properties, swept over ring sizes
E7     Section 5 / Appendix — the correspondence between rings
E8     Section 1/5 — state explosion vs. correspondence-based verification
E9     Section 6 — the k-nesting conjecture on free products
E10    Section 3 — scaling of the correspondence decision algorithm
E11    Section 5 — liveness under fairness (``AF t_i`` on fair vs. unfair rings)
=====  ======================================================================
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.explosion import (
    sample_large_ring_correspondence,
    symbolic_token_ring_explosion_sweep,
    token_ring_explosion_sweep,
)
from repro.analysis.timing import timed_call
from repro.errors import ModelCheckingError
from repro.correspondence import (
    ParameterizedVerifier,
    correspondence_violations,
    find_correspondence,
    verify_index_relation,
)
from repro.kripke import reduce_to_index, structure_stats
from repro.kripke.paths import is_lasso
from repro.kripke.structure import IndexedProp
from repro.logic import index_nesting_depth
from repro.logic.builders import AF, iatom
from repro.mc import (
    CTLStarModelChecker,
    ICTLStarModelChecker,
    SymbolicCTLModelChecker,
    counterexample_af,
    crosscheck_ctl_engines,
)
from repro.systems import figures, token_ring

__all__ = [
    "run_e1_fig31",
    "run_e2_fig41",
    "run_e3_nexttime",
    "run_e4_fig51",
    "run_e5_invariants",
    "run_e6_properties",
    "run_e7_correspondence",
    "run_e8_explosion",
    "run_e9_conjecture",
    "run_e10_scaling",
    "run_e11_fairness",
    "run_all",
]


# ---------------------------------------------------------------------------
# E1 — Fig. 3.1
# ---------------------------------------------------------------------------


def run_e1_fig31() -> Dict:
    """Reproduce Fig. 3.1: the two structures correspond with the degrees the paper describes."""
    left, right = figures.fig31_structures()
    relation = find_correspondence(left, right)
    formulas = {
        "AG(p | q)": "A G (p | q)",
        "AG(p -> A(p U q))": "A G (p -> A(p U q))",
        "EF q": "E F q",
        "AG AF p": "A G A F p",
        "E(G F q)": "E G F q",
    }
    from repro.logic import parse

    agreement = {}
    left_checker = CTLStarModelChecker(left)
    right_checker = CTLStarModelChecker(right)
    for name, text in formulas.items():
        formula = parse(text)
        agreement[name] = {
            "left": left_checker.check(formula),
            "right": right_checker.check(formula),
        }
    return {
        "corresponds": relation is not None,
        "degree_exact_match": relation.degree_or_none("s1", "s1'''") if relation else None,
        "degree_two_steps": relation.degree_or_none("s1", "s1'") if relation else None,
        "num_pairs": len(relation) if relation else 0,
        "formula_agreement": agreement,
        "all_agree": all(row["left"] == row["right"] for row in agreement.values()),
    }


# ---------------------------------------------------------------------------
# E2 — Fig. 4.1
# ---------------------------------------------------------------------------


def run_e2_fig41(max_size: int = 5) -> Dict:
    """Reproduce Fig. 4.1: the nested counting formula holds iff the network has ≥ depth processes."""
    from repro.logic.syntax import restriction_violations

    table: Dict[int, Dict[int, bool]] = {}
    for size in range(1, max_size + 1):
        network = figures.fig41_network(size)
        checker = ICTLStarModelChecker(network, enforce_restrictions=False)
        table[size] = {
            depth: checker.check(figures.fig41_counting_formula(depth))
            for depth in range(1, max_size + 1)
        }
    restricted_ok = not restriction_violations(figures.fig41_counting_formula(1))
    nested_rejected = bool(restriction_violations(figures.fig41_counting_formula(2)))
    counting_matches = all(
        table[size][depth] == (size >= depth)
        for size in table
        for depth in table[size]
    )
    return {
        "holds": table,
        "counting_matches_size": counting_matches,
        "depth1_is_restricted": restricted_ok,
        "nested_formula_rejected_by_restrictions": nested_rejected,
    }


# ---------------------------------------------------------------------------
# E3 — the next-time counting example
# ---------------------------------------------------------------------------


def run_e3_nexttime(sizes: Sequence[int] = (1, 2, 3, 4, 5, 6)) -> Dict:
    """Reproduce the Section 2 remark: ``AG(t_1 ⇒ XXX t_1)`` counts the ring size."""
    formula = figures.nexttime_counting_formula(3)
    outcome = {}
    for size in sizes:
        ring = figures.circulating_token_ring(size)
        checker = ICTLStarModelChecker(ring, enforce_restrictions=False)
        outcome[size] = checker.check(formula)
    return {
        "holds": outcome,
        "holds_only_when_size_divides_3": all(
            value == (3 % size == 0) for size, value in outcome.items()
        ),
    }


# ---------------------------------------------------------------------------
# E4 — Fig. 5.1
# ---------------------------------------------------------------------------


def run_e4_fig51() -> Dict:
    """Reproduce Fig. 5.1: the two-process ring has the expected global state graph."""
    structure = token_ring.build_token_ring(2)
    stats = structure_stats(structure)
    initial = structure.initial_state
    return {
        "num_states": stats.num_states,
        "num_transitions": stats.num_transitions,
        "is_total": stats.is_total,
        "initial_state": repr(initial),
        "initial_out_degree": len(structure.successors(initial)),
        "partition_invariant": token_ring.partition_invariant_holds(structure),
    }


# ---------------------------------------------------------------------------
# E5 / E6 — invariants and properties across ring sizes
# ---------------------------------------------------------------------------


def run_e5_invariants(sizes: Sequence[int] = (2, 3, 4, 5), engine: str = "bitset") -> Dict:
    """Check the three Section 5 invariants directly on every ring size in ``sizes``."""
    rows = {}
    for size in sizes:
        structure = token_ring.build_token_ring(size)
        checker = ICTLStarModelChecker(structure, engine=engine)
        rows[size] = {"partition": token_ring.partition_invariant_holds(structure)}
        rows[size].update(checker.check_batch(token_ring.ring_invariants()))
    return {
        "rows": rows,
        "all_hold": all(all(row.values()) for row in rows.values()),
        "engine": engine,
    }


def run_e6_properties(sizes: Sequence[int] = (2, 3, 4, 5), engine: str = "bitset") -> Dict:
    """Check the four Section 5 properties directly on every ring size in ``sizes``."""
    rows = {}
    for size in sizes:
        structure = token_ring.build_token_ring(size)
        checker = ICTLStarModelChecker(structure, engine=engine)
        rows[size] = checker.check_batch(token_ring.ring_properties())
    return {
        "rows": rows,
        "all_hold": all(all(row.values()) for row in rows.values()),
        "engine": engine,
    }


# ---------------------------------------------------------------------------
# E7 — the correspondence between rings
# ---------------------------------------------------------------------------


def run_e7_correspondence(large_size: int = 4) -> Dict:
    """Reproduce the Section 5 / appendix correspondence claims.

    Three things are measured:

    * the paper's claim (``M_2`` corresponds to ``M_r``): refuted — the
      decision algorithm finds no correspondence and the explicit rank-based
      relation violates the definition; the distinguishing restricted ICTL*
      formula is evaluated on both rings to show *why* no correspondence can
      exist;
    * the corrected claim (``M_3`` corresponds to ``M_r`` for r ≥ 3): the
      decision algorithm establishes it for every pair of the corrected ``IN``
      relation;
    * the transfer workflow: the four properties are checked on the base ring
      and the verdicts transferred to the large ring, then cross-checked by
      direct model checking.
    """
    small2 = token_ring.build_token_ring(2)
    base = token_ring.build_token_ring(token_ring.RECOMMENDED_BASE_SIZE)
    large = token_ring.build_token_ring(large_size)

    # The paper's claim, as stated.
    paper_report = verify_index_relation(
        small2, large, token_ring.section5_index_relation(large_size)
    )
    explicit = token_ring.section5_correspondence(small2, large, 1, 1)
    explicit_violations = correspondence_violations(
        reduce_to_index(small2, 1), reduce_to_index(large, 1), explicit
    )
    phi = token_ring.distinguishing_formula()
    phi_small = ICTLStarModelChecker(small2).check(phi)
    phi_large = ICTLStarModelChecker(large).check(phi)

    # The corrected claim with the three-process base.
    corrected_report = verify_index_relation(
        base, large, token_ring.corrected_index_relation(token_ring.RECOMMENDED_BASE_SIZE, large_size)
    )

    # Transfer workflow from the base ring.
    verifier = ParameterizedVerifier(
        base, large, token_ring.corrected_index_relation(token_ring.RECOMMENDED_BASE_SIZE, large_size)
    )
    direct = ICTLStarModelChecker(large)
    transfers = {}
    for name, formula in token_ring.ring_properties().items():
        transferred = verifier.check(formula)
        transfers[name] = {
            "transferred": transferred.holds,
            "direct": direct.check(formula),
        }

    return {
        "paper_claim_m2_corresponds": paper_report.holds,
        "explicit_relation_violations": len(explicit_violations),
        "distinguishing_formula_on_m2": phi_small,
        "distinguishing_formula_on_large": phi_large,
        "corrected_claim_base3_corresponds": corrected_report.holds,
        "transfers_match_direct": all(
            row["transferred"] == row["direct"] for row in transfers.values()
        ),
        "transfers": transfers,
    }


# ---------------------------------------------------------------------------
# E8 — state explosion
# ---------------------------------------------------------------------------


def run_e8_explosion(
    sizes: Sequence[int] = (2, 3, 4, 5, 6),
    large_size: int = 1000,
    num_walks: int = 10,
    walk_length: int = 30,
    engine: str = "bitset",
    symbolic_sizes: Sequence[int] = (8, 10, 20),
) -> Dict:
    """Reproduce the state-explosion narrative (the "1000 processes" claim).

    Next to the explicit sweep, ``symbolic_sizes`` extends the experiment to
    ring sizes only the symbolic BDD engine can reach: the ring is encoded
    directly as decision diagrams, the four Section 5 properties are checked
    as BDD fixpoints, and the state counts come from satisfy-count rather
    than enumeration.  Since the PR-4 complement-edge core, ``r = 20``
    (twenty million reachable states) sits comfortably inside the default
    sweep.
    """
    sweep = token_ring_explosion_sweep(sizes, engine=engine)
    symbolic_sweep = symbolic_token_ring_explosion_sweep(symbolic_sizes)
    base = token_ring.build_token_ring(token_ring.RECOMMENDED_BASE_SIZE)

    def base_check() -> Dict[str, bool]:
        checker = ICTLStarModelChecker(base, engine=engine)
        return checker.check_batch(token_ring.ring_properties())

    base_time = timed_call(base_check)
    spot = sample_large_ring_correspondence(
        large_size, num_walks=num_walks, walk_length=walk_length
    )
    growth = [point.num_states for point in sweep]
    monotone_growth = all(later > earlier for earlier, later in zip(growth, growth[1:]))
    return {
        "sweep": [
            {
                "size": point.size,
                "states": point.num_states,
                "transitions": point.num_transitions,
                "build_seconds": point.build_seconds,
                "check_seconds": point.check_seconds,
            }
            for point in sweep
        ],
        "symbolic_sweep": [
            {
                "size": point.size,
                "states": point.num_states,
                "transitions": point.num_transitions,
                "bdd_nodes": point.bdd_nodes,
                "peak_nodes": point.peak_nodes,
                "build_seconds": point.build_seconds,
                "check_seconds": point.check_seconds,
                "all_hold": all(point.results.values()),
            }
            for point in symbolic_sweep
        ],
        "states_grow_monotonically": monotone_growth,
        "engine": engine,
        "base_size": token_ring.RECOMMENDED_BASE_SIZE,
        "base_check_seconds": base_time.seconds,
        "base_results": base_time.value,
        "large_ring_spot_check": spot,
    }


# ---------------------------------------------------------------------------
# E9 — the Section 6 conjecture
# ---------------------------------------------------------------------------


def run_e9_conjecture(max_size: int = 5, max_depth: int = 3) -> Dict:
    """Explore the Section 6 conjecture on free products.

    For formulas with at most ``k`` nested index quantifiers, the conjecture
    predicts ``M_n ⊨ f ⇔ M_k ⊨ f`` whenever ``n > k``.  The Fig. 4.1 counting
    formula family gives the tight witnesses: depth ``k`` distinguishes the
    ``k-1``- and ``k``-component products but nothing above ``k``.
    """
    rows: Dict[int, Dict[int, bool]] = {}
    for size in range(1, max_size + 1):
        network = figures.fig41_network(size)
        checker = ICTLStarModelChecker(network, enforce_restrictions=False)
        rows[size] = {}
        for depth in range(1, max_depth + 1):
            formula = figures.fig41_counting_formula(depth)
            assert index_nesting_depth(formula) == depth
            rows[size][depth] = checker.check(formula)
    conjecture_holds = all(
        rows[size][depth] == rows[depth][depth]
        for depth in range(1, max_depth + 1)
        for size in range(depth, max_size + 1)
    )
    return {"rows": rows, "conjecture_holds_on_family": conjecture_holds}


# ---------------------------------------------------------------------------
# E10 — decision-algorithm scaling
# ---------------------------------------------------------------------------


def run_e10_scaling(sizes: Sequence[int] = (3, 4, 5)) -> Dict:
    """Measure the correspondence decision algorithm on growing ring reductions."""
    base = token_ring.build_token_ring(token_ring.RECOMMENDED_BASE_SIZE)
    base_reduced = reduce_to_index(base, 1)
    rows = []
    for size in sizes:
        large = token_ring.build_token_ring(size)
        large_reduced = reduce_to_index(large, 1)
        timed = timed_call(find_correspondence, base_reduced, large_reduced)
        rows.append(
            {
                "size": size,
                "large_states": large.num_states,
                "pairs": len(timed.value) if timed.value else 0,
                "corresponds": timed.value is not None,
                "seconds": timed.seconds,
            }
        )
    return {"rows": rows}


# ---------------------------------------------------------------------------
# E11 — liveness under fairness
# ---------------------------------------------------------------------------


def run_e11_fairness(
    sizes: Sequence[int] = (2, 3, 4),
    symbolic_sizes: Sequence[int] = (10, 20),
    engine: str = "bitset",
) -> Dict:
    """E11 — the ``AF t_i`` liveness claims hold exactly under scheduler fairness.

    The Section 5 token-ring properties all carry a request premise
    (``d_i ⇒ …``) precisely because the unconditional claim "process ``i``
    eventually holds the token" is false in plain CTL: a path on which ``i``
    never requests is a counterexample.  This experiment measures the
    fairness-constrained semantics that repairs it:

    * on every explicit ring size the unfair check of ``∧_i AF t_i``
      correctly **fails** and the same check under
      :func:`~repro.systems.token_ring.ring_scheduler_fairness` **holds**,
      with all three engines replayed differentially on the per-process
      boundary instances (:func:`~repro.mc.oracle.crosscheck_ctl_engines`
      raises on any disagreement between the two SCC-restricted explicit
      fair-``EG`` fixpoints and the symbolic Emerson–Lei one);
    * on ``symbolic_sizes`` (beyond the explicit wall) the direct BDD
      encoding checks the same pair of verdicts;
    * the bitset engine extracts a counterexample lasso to the unfair claim
      (a real cycle on which the last process never holds the token),
      validated against the structure.
    """
    formula = token_ring.property_eventual_token()
    rows = {}
    engines_agree = True
    for size in sizes:
        structure = token_ring.build_token_ring(size)
        constraint = token_ring.ring_scheduler_fairness(size)
        unfair = ICTLStarModelChecker(structure, engine=engine).check(formula)
        fair = ICTLStarModelChecker(structure, engine=engine, fairness=constraint).check(
            formula
        )
        # Replaying the bdd engine on an explicit encoding dominates the cost,
        # so crosscheck the boundary processes (first and last) per size.
        try:
            for process in sorted({1, size}):
                crosscheck_ctl_engines(
                    structure, AF(iatom("t", process)), fairness=constraint
                )
        except ModelCheckingError:
            engines_agree = False
        rows[size] = {"unfair": unfair, "fair": fair}

    symbolic_rows = {}
    for size in symbolic_sizes:
        encoded = token_ring.symbolic_token_ring(size)
        constraint = token_ring.ring_scheduler_fairness(size)
        unfair = SymbolicCTLModelChecker(encoded).check(formula)
        fair = SymbolicCTLModelChecker(encoded, fairness=constraint).check(formula)
        symbolic_rows[size] = {"unfair": unfair, "fair": fair}

    # A concrete counterexample to the unfair claim, from the bitset engine.
    witness_size = min(sizes)
    witness_ring = token_ring.build_token_ring(witness_size)
    target = iatom("t", witness_size)
    lasso = counterexample_af(witness_ring, target, engine="bitset")
    lasso_valid = (
        lasso is not None
        and is_lasso(witness_ring, lasso)
        and all(
            IndexedProp("t", witness_size) not in witness_ring.label(state)
            for state in lasso.positions()
        )
    )

    return {
        "rows": rows,
        "symbolic_rows": symbolic_rows,
        "unfair_fails_everywhere": all(
            not row["unfair"] for row in list(rows.values()) + list(symbolic_rows.values())
        ),
        "fair_holds_everywhere": all(
            row["fair"] for row in list(rows.values()) + list(symbolic_rows.values())
        ),
        "engines_agree": engines_agree,
        "counterexample_size": witness_size,
        "counterexample_valid": lasso_valid,
        "engine": engine,
    }


# ---------------------------------------------------------------------------
# Everything at once
# ---------------------------------------------------------------------------


def run_all(quick: bool = True, engine: str = "bitset") -> Dict[str, Dict]:
    """Run every experiment; ``quick=True`` uses the smaller default parameters."""
    from repro.obs import metrics as _metrics
    from repro.obs.progress import heartbeat as _heartbeat
    from repro.obs.trace import span as _obs_span

    large_size = 4 if quick else 5
    runners = {
        "E1_fig31": lambda: run_e1_fig31(),
        "E2_fig41": lambda: run_e2_fig41(max_size=4 if quick else 5),
        "E3_nexttime": lambda: run_e3_nexttime(),
        "E4_fig51": lambda: run_e4_fig51(),
        "E5_invariants": lambda: run_e5_invariants(
            sizes=(2, 3, 4) if quick else (2, 3, 4, 5), engine=engine
        ),
        "E6_properties": lambda: run_e6_properties(
            sizes=(2, 3, 4) if quick else (2, 3, 4, 5), engine=engine
        ),
        "E7_correspondence": lambda: run_e7_correspondence(large_size=large_size),
        "E8_explosion": lambda: run_e8_explosion(
            sizes=(2, 3, 4) if quick else (2, 3, 4, 5, 6),
            engine=engine,
            symbolic_sizes=(6, 8) if quick else (10, 14, 20),
        ),
        "E9_conjecture": lambda: run_e9_conjecture(max_size=4 if quick else 5),
        "E10_scaling": lambda: run_e10_scaling(sizes=(3, 4) if quick else (3, 4, 5)),
        "E11_fairness": lambda: run_e11_fairness(
            sizes=(2, 3) if quick else (2, 4, 8),
            symbolic_sizes=(6,) if quick else (10, 20),
            engine=engine,
        ),
    }
    results: Dict[str, Dict] = {}
    for name, runner in runners.items():
        _heartbeat("experiments", force=True, experiment=name)
        with _obs_span("experiment", experiment=name, quick=quick, engine=engine):
            results[name] = runner()
        _metrics.counter("experiments.completed").inc()
    return results
