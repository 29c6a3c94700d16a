"""One account per counter: an engine's ``stats()`` equals its registry gauges.

The registry is what ``--profile`` and ``--metrics`` render, so every int
field of ``checker.stats()`` (or ``manager.stats()`` for the bdd engine)
must equal its gauge in ``REGISTRY.snapshot()`` — also after a check that
raises, which is why each check runs the way the CLI runs it, catching
the engine's typed errors.
"""

from __future__ import annotations

import pytest

from repro.errors import FragmentError, InconclusiveError
from repro.mc.bmc import BoundedModelChecker
from repro.mc.ic3 import IC3ModelChecker
from repro.mc.symbolic import SymbolicCTLModelChecker
from repro.obs.metrics import REGISTRY
from repro.systems.mutex import mutex_family, symbolic_mutex
from repro.systems.token_ring import ring_family, symbolic_token_ring


@pytest.fixture(autouse=True)
def _fresh_registry():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def _check_all(checker, family):
    """Each property's verdict, or how the CLI would report its typed error."""
    outcomes = {}
    for name, formula in family.items():
        try:
            outcomes[name] = checker.check(formula)
        except FragmentError:
            outcomes[name] = "skipped"
        except InconclusiveError:
            outcomes[name] = "inconclusive"
    return outcomes


def _assert_registry_matches(stats, engine, prefixes):
    """Every int field of ``stats`` equals its ``<prefix>.<field>`` gauge."""
    snapshot = REGISTRY.snapshot()
    fields = {field: value for field, value in stats.items() if isinstance(value, int)}
    assert fields
    for field, value in fields.items():
        [key] = [
            key
            for key in ("%s.%s{engine=%s}" % (prefix, field, engine) for prefix in prefixes)
            if key in snapshot
        ]
        assert snapshot[key] == value, key


def test_bmc_counters_survive_an_inconclusive_check():
    checker = BoundedModelChecker(symbolic_token_ring(4, domain="free"), bound=3)
    outcomes = _check_all(checker, ring_family(4, False)[0])
    assert outcomes["invariant mutual_exclusion"] == "inconclusive"
    assert checker.stats()["conflicts"] > 0
    _assert_registry_matches(checker.stats(), "bmc", ["sat"])
    assert REGISTRY.snapshot()["bdd.live_nodes{engine=bmc}"] > 0


def test_ic3_counters_survive_the_frame_ceiling():
    checker = IC3ModelChecker(symbolic_mutex(4, domain="free"), max_frames=1)
    outcomes = _check_all(checker, mutex_family(4, False)[0])
    assert outcomes == {"invariant mutual_exclusion": "inconclusive"}
    assert checker.stats()["solve_calls"] > 0
    _assert_registry_matches(checker.stats(), "ic3", ["sat", "ic3"])
    assert REGISTRY.snapshot()["bdd.live_nodes{engine=ic3}"] > 0


def test_bdd_manager_counters_match_the_registry():
    checker = SymbolicCTLModelChecker(symbolic_token_ring(4))
    outcomes = _check_all(checker, ring_family(4, False)[0])
    assert all(verdict is True for verdict in outcomes.values())
    _assert_registry_matches(checker.symbolic.manager.stats().as_dict(), "bdd", ["bdd"])
