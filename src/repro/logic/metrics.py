"""Simple structural metrics over formulas.

The metrics are used by the Section 6 experiment (the conjecture that a
formula with at most ``k`` levels of index quantifiers cannot distinguish free
products with more than ``k`` components) and by the experiment reports.
"""

from __future__ import annotations

from repro.logic.ast import (
    Finally,
    Formula,
    Globally,
    IndexExists,
    IndexForall,
    Next,
    Release,
    Until,
    WeakUntil,
    walk,
)

__all__ = [
    "formula_size",
    "temporal_depth",
    "index_quantifier_count",
    "index_nesting_depth",
]

_TEMPORAL = (Next, Finally, Globally, Until, Release, WeakUntil)
_INDEX_QUANTIFIERS = (IndexExists, IndexForall)


def formula_size(formula: Formula) -> int:
    """Return the number of AST nodes in ``formula``."""
    return sum(1 for _ in walk(formula))


def temporal_depth(formula: Formula) -> int:
    """Return the maximum nesting depth of temporal operators."""
    inc = 1 if isinstance(formula, _TEMPORAL) else 0
    children = formula.children()
    if not children:
        return inc
    return inc + max(temporal_depth(child) for child in children)


def index_quantifier_count(formula: Formula) -> int:
    """Return the total number of index quantifiers (``∨_i`` and ``∧_i``)."""
    return sum(1 for node in walk(formula) if isinstance(node, _INDEX_QUANTIFIERS))


def index_nesting_depth(formula: Formula) -> int:
    """Return the maximum nesting depth of index quantifiers.

    This is the quantity ``k`` in the Section 6 conjecture: with at most ``k``
    nested index quantifiers it should be impossible to distinguish free
    products with more than ``k`` identical components.
    """
    inc = 1 if isinstance(formula, _INDEX_QUANTIFIERS) else 0
    children = formula.children()
    if not children:
        return inc
    return inc + max(index_nesting_depth(child) for child in children)
