"""Abstract syntax trees for CTL*, CTL, LTL, and indexed CTL* (ICTL*).

The paper works with CTL* *without* the next-time operator and extends it with
indexed atomic propositions (``A_i``), the index quantifiers ``∨_i f(i)`` /
``∧_i f(i)``, and the derived "exactly one index" proposition ``Θ_i P_i``.
This module defines a single immutable node hierarchy covering all of these
logics; fragment membership (CTL, LTL, next-free CTL*, restricted ICTL*) is
decided structurally by :mod:`repro.logic.syntax`.

Design notes
------------
* Nodes are frozen dataclasses: they hash and compare structurally, which lets
  the model checkers memoise satisfaction sets per sub-formula.
* The hierarchy contains both *core* operators (negation, disjunction,
  conjunction, ``E``, ``U``, ``X``, ``∨_i``) and *derived* operators
  (implication, ``A``, ``F``, ``G``, ``R``, ``W``, ``∧_i``).  Derived operators
  are first-class nodes so that formulas print the way the user wrote them;
  :func:`repro.logic.transform.expand` rewrites them into the core.
* Index variables are plain strings; concrete index values are integers.  An
  :class:`IndexedAtom` whose ``index`` is a string is *open*; one whose
  ``index`` is an integer refers to a specific process and makes the enclosing
  formula non-closed unless the integer index was produced by instantiating a
  quantifier (see :func:`repro.logic.transform.substitute_index`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Tuple, Union

__all__ = [
    "Formula",
    "TrueLiteral",
    "FalseLiteral",
    "Atom",
    "IndexedAtom",
    "ExactlyOne",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "ForAll",
    "Next",
    "Until",
    "Release",
    "WeakUntil",
    "Finally",
    "Globally",
    "IndexExists",
    "IndexForall",
    "Index",
    "walk",
    "subformulas",
]

#: An index is either a variable name (open) or a concrete process number.
Index = Union[str, int]


@dataclass(frozen=True)
class Formula:
    """Base class of every formula node.

    The base class is never instantiated directly; it provides traversal
    helpers shared by all node types.
    """

    def children(self) -> Tuple["Formula", ...]:
        """Return the immediate sub-formulas of this node, in syntactic order."""
        result = []
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, Formula):
                result.append(value)
        return tuple(result)

    def __str__(self) -> str:  # pragma: no cover - thin delegation
        return _printer.format_formula(self)

    # Convenience operator overloads.  These build derived nodes so that the
    # textual form of a formula matches how it was constructed in code.
    def __invert__(self) -> "Not":
        return Not(self)

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __rshift__(self, other: "Formula") -> "Implies":
        return Implies(self, other)


# ---------------------------------------------------------------------------
# Atomic formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrueLiteral(Formula):
    """The constant ``true``."""


@dataclass(frozen=True)
class FalseLiteral(Formula):
    """The constant ``false``."""


@dataclass(frozen=True)
class Atom(Formula):
    """A non-indexed atomic proposition ``A ∈ AP``."""

    name: str


@dataclass(frozen=True)
class IndexedAtom(Formula):
    """An indexed atomic proposition ``A_i`` with ``A ∈ IP``.

    ``index`` is either an index *variable* (a string, bound by an enclosing
    index quantifier) or a concrete process number (an integer).
    """

    name: str
    index: Index


@dataclass(frozen=True)
class ExactlyOne(Formula):
    """The derived proposition ``Θ_i P_i``: exactly one index value satisfies ``P``.

    Section 4 of the paper adds, for every ``P ∈ IP``, a special *non-indexed*
    atomic formula that is true in a state precisely when there is exactly one
    ``c ∈ I`` with ``P_c`` in the state's label.  The token-ring example uses
    it to state that exactly one process holds the token (``AG Θ_i t_i``).
    """

    name: str


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Not(Formula):
    """Negation ``¬f``."""

    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    """Binary conjunction ``f ∧ g``."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    """Binary disjunction ``f ∨ g``."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    """Implication ``f ⇒ g`` (derived: ``¬f ∨ g``)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    """Bi-implication ``f ⇔ g`` (derived)."""

    left: Formula
    right: Formula


# ---------------------------------------------------------------------------
# Path quantifiers (state formulas)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exists(Formula):
    """The existential path quantifier ``E(g)``: some path from the state satisfies ``g``."""

    path: Formula


@dataclass(frozen=True)
class ForAll(Formula):
    """The universal path quantifier ``A(g)`` (derived: ``¬E(¬g)``)."""

    path: Formula


# ---------------------------------------------------------------------------
# Temporal operators (path formulas)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Next(Formula):
    """The next-time operator ``X g``.

    The paper deliberately *excludes* next-time from CTL* because it can be
    used to count processes (``AG(t_1 ⇒ XXX t_1)`` holds only in the
    three-process ring).  The node exists so that the library can demonstrate
    exactly that phenomenon; next-free contexts reject it via
    :func:`repro.logic.syntax.assert_next_free`.
    """

    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    """The (strong) until operator ``g₁ U g₂``."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    """The release operator ``g₁ R g₂`` (derived: ``¬(¬g₁ U ¬g₂)``)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class WeakUntil(Formula):
    """The weak until operator ``g₁ W g₂`` (derived: ``(g₁ U g₂) ∨ G g₁``)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Finally(Formula):
    """The eventuality operator ``F g`` (derived: ``true U g``)."""

    operand: Formula


@dataclass(frozen=True)
class Globally(Formula):
    """The invariance operator ``G g`` (derived: ``¬F ¬g``)."""

    operand: Formula


# ---------------------------------------------------------------------------
# Index quantifiers (state formulas)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexExists(Formula):
    """The index quantifier ``∨_i f(i)``: some process index satisfies ``f``."""

    variable: str
    body: Formula


@dataclass(frozen=True)
class IndexForall(Formula):
    """The index quantifier ``∧_i f(i)`` (derived: ``¬∨_i ¬f(i)``)."""

    variable: str
    body: Formula


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk(formula: Formula) -> Iterator[Formula]:
    """Yield ``formula`` and every sub-formula in pre-order."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def subformulas(formula: Formula) -> Tuple[Formula, ...]:
    """Return the distinct sub-formulas of ``formula`` (including itself).

    The result is ordered so that every formula appears *after* all of its
    proper sub-formulas, which is the evaluation order used by the model
    checkers.
    """
    seen = set()
    ordered = []

    def visit(node: Formula) -> None:
        if node in seen:
            return
        for child in node.children():
            visit(child)
        seen.add(node)
        ordered.append(node)

    visit(formula)
    return tuple(ordered)


# The printer imports the node classes above, so it can only be loaded once
# they exist.  Loading it here rather than inside ``Formula.__str__`` keeps a
# formula's first ``str()`` (an error message raised in the middle of a
# check) from importing a module.
from repro.logic import printer as _printer  # noqa: E402
