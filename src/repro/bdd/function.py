"""An operator-overloaded, reference-counted handle on a BDD edge.

:class:`BDDFunction` is the ergonomic face of :class:`repro.bdd.BDDManager`:
it carries the ``(manager, node)`` pair around so call sites can write
``f & g``, ``~f``, ``f >> g`` instead of threading raw edge ids.  Because
edges are hash-consed and canonical, equality of two functions from the same
manager is a single integer comparison.

A handle is also the unit of *memory management*: constructing one registers
an external reference with the manager and dropping it (garbage collection of
the Python object) releases it, so :meth:`BDDManager.collect`'s mark-and-sweep
treats everything reachable from live handles as roots.  Layers that must
survive a GC hold handles; raw edge ints are only safe between manager calls.

Every ``level``/``levels`` parameter below is a variable id: the manager's
order is fixed, and a variable's id is its level.

Truthiness is deliberately undefined (``bool(f)`` raises): ``f and g`` would
silently compute the *Python* conjunction, not the boolean-function one.  Use
``f.is_false`` / ``f.is_true`` or compare against ``manager``-level constants.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping

from repro.bdd.manager import BDDManager
from repro.errors import BDDError

__all__ = ["BDDFunction"]


class BDDFunction:
    """A boolean function: one canonical edge inside one manager, refcounted."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: BDDManager, node: int) -> None:
        self.manager = manager
        self.node = node
        manager.incref(node)

    def __del__(self) -> None:
        try:
            self.manager.decref(self.node)
        except Exception:  # pragma: no cover  # repro-lint: disable=R005
            # Deliberately blanket: __del__ runs during interpreter
            # shutdown when the manager's internals may already be torn
            # down, and a raising finaliser would mask the real error.
            pass

    # -- constructors ---------------------------------------------------------

    @classmethod
    def true(cls, manager: BDDManager) -> "BDDFunction":
        """The constant true function."""
        return cls(manager, 1)

    @classmethod
    def false(cls, manager: BDDManager) -> "BDDFunction":
        """The constant false function."""
        return cls(manager, 0)

    @classmethod
    def variable(cls, manager: BDDManager, level: int) -> "BDDFunction":
        """The projection function of the variable at ``level``."""
        return cls(manager, manager.var(level))

    def _coerce(self, other: "BDDFunction") -> int:
        if not isinstance(other, BDDFunction):
            raise BDDError("expected a BDDFunction, got %r" % (other,))
        if other.manager is not self.manager:
            raise BDDError("cannot combine BDD functions from different managers")
        return other.node

    def _wrap(self, node: int) -> "BDDFunction":
        return BDDFunction(self.manager, node)

    # -- boolean structure ----------------------------------------------------

    def __and__(self, other: "BDDFunction") -> "BDDFunction":
        return self._wrap(self.manager.apply_and(self.node, self._coerce(other)))

    def __or__(self, other: "BDDFunction") -> "BDDFunction":
        return self._wrap(self.manager.apply_or(self.node, self._coerce(other)))

    def __xor__(self, other: "BDDFunction") -> "BDDFunction":
        return self._wrap(self.manager.apply_xor(self.node, self._coerce(other)))

    def __invert__(self) -> "BDDFunction":
        return self._wrap(self.manager.negate(self.node))

    def __rshift__(self, other: "BDDFunction") -> "BDDFunction":
        """Implication ``self ⇒ other``."""
        return self._wrap(self.manager.apply("imp", self.node, self._coerce(other)))

    def iff(self, other: "BDDFunction") -> "BDDFunction":
        """Bi-implication ``self ⇔ other``."""
        return self._wrap(self.manager.apply("iff", self.node, self._coerce(other)))

    def ite(self, then: "BDDFunction", orelse: "BDDFunction") -> "BDDFunction":
        """If-then-else with ``self`` as the condition."""
        return self._wrap(self.manager.ite(self.node, self._coerce(then), self._coerce(orelse)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BDDFunction)
            and other.manager is self.manager
            and other.node == self.node
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __bool__(self) -> bool:
        raise BDDError(
            "the truth value of a BDDFunction is ambiguous; use .is_false / .is_true "
            "(note: `f and g` would be Python's `and`, not conjunction — use `f & g`)"
        )

    # -- quantification and substitution --------------------------------------

    def restrict(self, level: int, value: bool) -> "BDDFunction":
        """The cofactor with the variable at ``level`` fixed to ``value``."""
        return self._wrap(self.manager.restrict(self.node, level, value))

    def exists(self, levels: Iterable[int]) -> "BDDFunction":
        """Existential quantification over ``levels``."""
        return self._wrap(self.manager.exists(self.node, levels))

    def forall(self, levels: Iterable[int]) -> "BDDFunction":
        """Universal quantification over ``levels``."""
        return self._wrap(self.manager.forall(self.node, levels))

    def relprod(self, other: "BDDFunction", levels: Iterable[int]) -> "BDDFunction":
        """Fused ``∃ levels . (self ∧ other)``."""
        return self._wrap(self.manager.relprod(self.node, self._coerce(other), levels))

    def rename(self, mapping: Mapping[int, int]) -> "BDDFunction":
        """Order-preserving variable substitution (see :meth:`BDDManager.rename`)."""
        return self._wrap(self.manager.rename(self.node, mapping))

    def permute(self, mapping: Mapping[int, int]) -> "BDDFunction":
        """General injective variable substitution (see :meth:`BDDManager.permute`)."""
        return self._wrap(self.manager.permute(self.node, mapping))

    # -- inspection ------------------------------------------------------------

    @property
    def is_true(self) -> bool:
        """Whether this is the constant true function."""
        return self.node == 1

    @property
    def is_false(self) -> bool:
        """Whether this is the constant false function."""
        return self.node == 0

    @property
    def size(self) -> int:
        """The number of internal BDD nodes of this function."""
        return self.manager.node_count(self.node)

    def support(self) -> frozenset:
        """The levels this function depends on."""
        return self.manager.support(self.node)

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate under ``{level: value}``."""
        return self.manager.evaluate(self.node, assignment)

    def sat_count(self, levels: Iterable[int]) -> int:
        """The number of satisfying assignments over ``levels``."""
        return self.manager.sat_count(self.node, levels)

    def models(self, levels: Iterable[int]) -> Iterator[Dict[int, bool]]:
        """Iterate the satisfying assignments over ``levels``."""
        return self.manager.iter_models(self.node, levels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.node == 0:
            return "<BDDFunction false>"
        if self.node == 1:
            return "<BDDFunction true>"
        return "<BDDFunction node=%d size=%d>" % (self.node, self.size)
