"""Shared fixtures for the test-suite.

Expensive structures (the token rings, the example families) are built once
per session; everything else is cheap enough to construct per test.
"""

from __future__ import annotations

import os
import sys

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

from repro.kripke import KripkeStructure  # noqa: E402
from repro.systems import barrier, figures, round_robin, token_ring  # noqa: E402


@pytest.fixture()
def sanitizers():
    """Enable the BDD and SAT runtime sanitizers for one test, then restore.

    Opt-in per test (``def test_x(sanitizers): ...``); the whole suite can
    instead run sanitized via ``REPRO_SANITIZE=1`` (see docs/CORRECTNESS.md).
    """
    import repro.bdd.sanitize as bdd_sanitize
    import repro.sat.sanitize as sat_sanitize

    previous = (bdd_sanitize.MODE, sat_sanitize.MODE)
    bdd_sanitize.enable(True)
    sat_sanitize.enable(True)
    try:
        yield
    finally:
        bdd_sanitize.MODE, sat_sanitize.MODE = previous


@pytest.fixture(scope="session")
def ring_with_candidate():
    """Re-declare a token-ring encoding with the process permutation ``sigma``.

    Returns ``make(structure, sigma)``: a copy of the direct ring encoding
    ``structure`` (same manager, relation, initial states and domain)
    whose candidate symmetry moves process ``k``'s bits to process
    ``sigma[k]``'s — for probing how checkers treat a bogus candidate.
    """
    from repro.kripke.structure import IndexedProp
    from repro.kripke.symbolic import ProcessSymmetry, SymbolicKripkeStructure
    from repro.logic.ast import IndexedAtom

    width = 2  # state bits per ring process

    def make(structure, sigma):
        var_map = {
            2 * width * (process - 1) + bit: 2 * width * (image - 1) + bit
            for process, image in sigma.items()
            for bit in range(2 * width)
        }
        props = {
            IndexedProp(name, process): structure.atom_node(IndexedAtom(name, process))
            for name in "dntc"
            for process in sigma
        }
        return SymbolicKripkeStructure(
            structure.manager,
            structure.num_bits,
            structure.transition,
            structure.initial,
            structure.domain,
            props,
            index_values=structure.index_values,
            symmetry=ProcessSymmetry(var_map, sigma),
        )

    return make


@pytest.fixture(scope="session")
def toggle_structure() -> KripkeStructure:
    """A minimal two-state structure alternating between labels {p} and {q}."""
    return KripkeStructure(
        states=["on", "off"],
        transitions=[("on", "off"), ("off", "on")],
        labeling={"on": {"p"}, "off": {"q"}},
        initial_state="on",
        name="toggle",
    )


@pytest.fixture(scope="session")
def branching_structure() -> KripkeStructure:
    """A small branching structure used by the CTL/CTL* tests.

    ``a`` branches to ``b`` (label p) and ``c`` (label q); ``b`` loops to
    itself; ``c`` goes to ``d`` (label p, q) which loops back to ``a``.
    """
    return KripkeStructure(
        states=["a", "b", "c", "d"],
        transitions=[("a", "b"), ("a", "c"), ("b", "b"), ("c", "d"), ("d", "a")],
        labeling={"a": set(), "b": {"p"}, "c": {"q"}, "d": {"p", "q"}},
        initial_state="a",
        name="branching",
    )


@pytest.fixture(scope="session")
def fig31_pair():
    """The Fig. 3.1 structures (left, right)."""
    return figures.fig31_structures()


@pytest.fixture(scope="session")
def ring2():
    """The two-process token ring M_2."""
    return token_ring.build_token_ring(2)


@pytest.fixture(scope="session")
def ring3():
    """The three-process token ring M_3."""
    return token_ring.build_token_ring(3)


@pytest.fixture(scope="session")
def ring4():
    """The four-process token ring M_4."""
    return token_ring.build_token_ring(4)


@pytest.fixture(scope="session")
def ring5():
    """The five-process token ring M_5."""
    return token_ring.build_token_ring(5)


@pytest.fixture(scope="session")
def ring6():
    """The six-process token ring M_6 (the largest explosion-sweep seed size)."""
    return token_ring.build_token_ring(6)


@pytest.fixture(scope="session")
def round_robin2():
    """The two-process round-robin scheduler."""
    return round_robin.build_round_robin(2)


@pytest.fixture(scope="session")
def round_robin4():
    """The four-process round-robin scheduler."""
    return round_robin.build_round_robin(4)


@pytest.fixture(scope="session")
def barrier2():
    """The two-worker barrier."""
    return barrier.build_barrier(2)


@pytest.fixture(scope="session")
def barrier3():
    """The three-worker barrier."""
    return barrier.build_barrier(3)
