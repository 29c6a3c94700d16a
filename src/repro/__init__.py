"""repro — a reproduction of Browne, Clarke & Grumberg (1986/1989):
*Reasoning about Networks with Many Identical Finite State Processes*.

The library provides, as reusable components:

* the temporal logics **CTL\\***, **CTL**, **LTL** and **indexed CTL\\***
  (:mod:`repro.logic`);
* **Kripke structures** and **indexed Kripke structures** with products,
  reductions and reachability (:mod:`repro.kripke`);
* **model checkers** for CTL — the naive labelling algorithm, the compiled
  bitset engine, and the symbolic BDD engine — plus CTL* (via an LTL tableau
  core) and ICTL* (:mod:`repro.mc`);
* a pure-Python **ROBDD package** with hash-consed nodes and memoized
  apply/ite/quantification/relational-product operations (:mod:`repro.bdd`);
* the paper's **correspondence** relation (a block bisimulation with degrees),
  a decision algorithm, and the indexed correspondence / parameterized
  verification workflow (:mod:`repro.correspondence`);
* **process templates** and their compositions (:mod:`repro.network`);
* the paper's **example systems** — the Section 5 token ring, the Fig. 3.1 /
  Fig. 4.1 illustrations, and two additional identical-process families
  (:mod:`repro.systems`);
* **experiment drivers** regenerating every figure and claim
  (:mod:`repro.analysis`).

Quick start::

    from repro.systems import token_ring
    from repro.correspondence import ParameterizedVerifier

    small = token_ring.build_token_ring(2)
    large = token_ring.build_token_ring(5)
    verifier = ParameterizedVerifier(small, large, token_ring.section5_index_relation(5))
    result = verifier.check(token_ring.property_eventual_entry())
    assert result.holds          # verified on M_2, valid for M_5 by Theorem 5
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analysis": None,
        "bdd": None,
        "correspondence": None,
        "kripke": None,
        "logic": None,
        "mc": None,
        "network": None,
        "systems": None,
        "CompositionError": "errors",
        "CorrespondenceError": "errors",
        "FormulaError": "errors",
        "FragmentError": "errors",
        "ModelCheckingError": "errors",
        "ParseError": "errors",
        "ReproError": "errors",
        "RestrictionError": "errors",
        "StructureError": "errors",
        "ValidationError": "errors",
    },
)

__version__ = "1.0.0"

__all__ = [
    "logic",
    "bdd",
    "kripke",
    "mc",
    "correspondence",
    "network",
    "systems",
    "analysis",
    "ReproError",
    "FormulaError",
    "ParseError",
    "FragmentError",
    "RestrictionError",
    "StructureError",
    "ValidationError",
    "ModelCheckingError",
    "CorrespondenceError",
    "CompositionError",
    "__version__",
]
