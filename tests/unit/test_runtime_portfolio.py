"""Unit and property tests for the parallel portfolio engine.

The chaos property test at the bottom is the contract the whole runtime
stack exists for: under seeded fault injection the portfolio verdict
either **equals the bitset oracle's** or fails with a **typed
ReproError** — never a silently wrong answer, never a deadlock (a hard
``SIGALRM`` deadline fails the test if a race wedges), never a leaked
worker process.
"""

import contextlib
import multiprocessing
import signal
import time

import pytest

from repro.errors import (
    BudgetExceededError,
    EngineCrashError,
    EngineDisagreementError,
    FragmentError,
    InconclusiveError,
    ModelCheckingError,
    ReproError,
)
from repro.logic.builders import EX, lnot, true
from repro.mc.bitset import make_ctl_checker
from repro.obs.metrics import REGISTRY
from repro.runtime.chaos import ChaosConfig
from repro.runtime.portfolio import (
    DEFAULT_RACE_ENGINES,
    PortfolioModelChecker,
    builder_source,
    structure_source,
)
from repro.runtime.supervisor import TaskOutcome
from repro.systems.mutex import build_mutex, mutex_safety
from repro.systems.token_ring import build_token_ring, ring_mutual_exclusion

#: Forces chaos off inside workers even when REPRO_CHAOS is exported
#: (the CI chaos lane); the chaos tests arm their own seeded configs.
_NO_CHAOS = ChaosConfig()


class _RaceDeadline(Exception):
    pass


@contextlib.contextmanager
def _hard_timeout(seconds):
    """Fail the test (don't hang the suite) if a race never returns."""

    def _expired(signum, frame):
        raise _RaceDeadline("portfolio race exceeded %ds" % seconds)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestConstruction:
    def test_fairness_is_rejected_as_a_fragment_error(self):
        with pytest.raises(FragmentError):
            PortfolioModelChecker(structure=object(), fairness=object())

    def test_exactly_one_of_structure_or_sources(self):
        with pytest.raises(ModelCheckingError):
            PortfolioModelChecker()
        with pytest.raises(ModelCheckingError):
            PortfolioModelChecker(
                structure=object(), sources={"bitset": structure_source(object())}
            )

    def test_unknown_engines_are_rejected(self):
        with pytest.raises(ModelCheckingError, match="naive"):
            PortfolioModelChecker(structure=object(), engines=("bitset", "naive"))

    def test_workers_must_be_positive(self):
        with pytest.raises(ModelCheckingError):
            PortfolioModelChecker(structure=object(), workers=0)

    def test_workers_cap_trims_the_race_in_launch_order(self):
        checker = PortfolioModelChecker(structure=object(), workers=2)
        assert checker.engines == DEFAULT_RACE_ENGINES[:2]

    def test_engine_selection(self):
        checker = PortfolioModelChecker(structure=object(), engines=("bdd", "ic3"))
        assert checker.engines == ("bdd", "ic3")
        by_source = PortfolioModelChecker(
            sources={"bmc": structure_source(object())}
        )
        assert by_source.engines == ("bmc",)

    def test_only_the_initial_state_is_decided(self):
        checker = PortfolioModelChecker(structure=object(), chaos=_NO_CHAOS)
        with pytest.raises(ModelCheckingError):
            checker.check(object(), state="s3")


def _outcome(label, status, verdict=None, late=False, fields=None, message=""):
    outcome = TaskOutcome(label, label)
    outcome.status = status
    if verdict is not None:
        outcome.result = {"engine": label, "verdict": verdict, "detail": ""}
    outcome.late = late
    outcome.fields = dict(fields or {})
    outcome.message = message
    return outcome


class TestMergeSemantics:
    """Merging is pure bookkeeping over TaskOutcomes — test it process-free."""

    def _checker(self):
        return PortfolioModelChecker(structure=object(), chaos=_NO_CHAOS)

    def test_the_non_late_finisher_wins(self):
        checker = self._checker()
        outcomes = {
            "bitset": _outcome("bitset", "ok", verdict=True, late=True),
            "bmc": _outcome("bmc", "ok", verdict=True),
            "bdd": _outcome("bdd", "cancelled"),
        }
        outcomes["bmc"].result["detail"] = "k-induction@1"
        assert checker._merge(None, outcomes) is True
        assert checker.last_detail == "won by bmc (k-induction@1)"
        assert checker.last_outcomes["bdd"] == "cancelled"

    def test_a_disagreeing_late_loser_is_never_masked(self):
        checker = self._checker()
        outcomes = {
            "bitset": _outcome("bitset", "ok", verdict=True),
            "bmc": _outcome("bmc", "ok", verdict=False, late=True),
        }
        with pytest.raises(EngineDisagreementError) as excinfo:
            checker._merge("AG p", outcomes)
        assert excinfo.value.verdicts == {"bitset": True, "bmc": False}
        assert excinfo.value.formula == "AG p"

    def test_all_fragment_degrades_to_fragment_error(self):
        outcomes = {
            name: _outcome(name, "fragment") for name in ("bmc", "ic3")
        }
        with pytest.raises(FragmentError):
            self._checker()._merge(None, outcomes)

    def test_all_dead_degrades_to_engine_crash_error(self):
        checker = self._checker()
        outcomes = {
            "bitset": _outcome("bitset", "crashed"),
            "bdd": _outcome("bdd", "hung"),
            "bmc": _outcome("bmc", "garbled"),
        }
        with pytest.raises(EngineCrashError) as excinfo:
            checker._merge(None, outcomes)
        assert set(excinfo.value.outcomes) == {"bitset", "bdd", "bmc"}
        assert "no conclusive verdict" in checker.last_detail

    def test_dead_or_budget_degrades_to_budget_error(self):
        outcomes = {
            "bitset": _outcome("bitset", "crashed"),
            "bmc": _outcome(
                "bmc", "budget", fields={"resource": "sat_conflicts", "limit": 100}
            ),
        }
        with pytest.raises(BudgetExceededError) as excinfo:
            self._checker()._merge(None, outcomes)
        assert excinfo.value.resource == "sat_conflicts"
        assert excinfo.value.site == "portfolio.race"

    def test_inconclusive_report_includes_the_budget_consumed(self):
        outcomes = {
            "bmc": _outcome(
                "bmc",
                "inconclusive",
                fields={"depth_reached": 5, "conflicts_spent": 321},
            ),
            "bdd": _outcome("bdd", "cancelled"),
        }
        with pytest.raises(InconclusiveError) as excinfo:
            self._checker()._merge(None, outcomes)
        assert "budget consumed" in str(excinfo.value)
        assert "depth_reached=5" in str(excinfo.value)


def _natural_sources(module, explicit, symbolic, size, **kwargs):
    """The CLI's per-engine natural encodings, for a worker-side build."""
    return {
        "bitset": builder_source(module, explicit, size, **kwargs),
        "bdd": builder_source(module, symbolic, size, **kwargs),
        "bmc": builder_source(module, symbolic, size, domain="free", **kwargs),
        "ic3": builder_source(module, symbolic, size, domain="free", **kwargs),
    }


def _assert_no_leak():
    assert not multiprocessing.active_children(), "a worker process outlived close()"


class TestRaces:
    def test_structure_race_matches_the_bitset_oracle(self):
        structure = build_mutex(3)
        formula = mutex_safety(3)
        oracle = make_ctl_checker(structure, engine="bitset").check(formula)
        with PortfolioModelChecker(
            structure=structure, engines=("bitset", "bdd"), chaos=_NO_CHAOS
        ) as checker:
            with _hard_timeout(60):
                verdict = checker.check(formula)
        assert verdict is True
        assert bool(oracle) is True
        assert checker.last_detail.startswith("won by ")
        assert set(checker.last_outcomes) == {"bitset", "bdd"}
        _assert_no_leak()

    def test_natural_encoding_race_refutes_the_buggy_mutex(self):
        with PortfolioModelChecker(
            sources=_natural_sources(
                "repro.systems.mutex", "build_mutex", "symbolic_mutex", 3, buggy=True
            ),
            bound=8,
            chaos=_NO_CHAOS,
        ) as checker:
            assert checker.engines == DEFAULT_RACE_ENGINES
            with _hard_timeout(120):
                verdict = checker.check(mutex_safety(3))
        assert verdict is False
        _assert_no_leak()

    def test_natural_encoding_race_proves_ring_mutual_exclusion(self):
        sources = _natural_sources(
            "repro.systems.token_ring", "build_token_ring", "symbolic_token_ring", 4
        )
        with PortfolioModelChecker(sources=sources, bound=8, chaos=_NO_CHAOS) as checker:
            with _hard_timeout(120):
                verdict = checker.check(ring_mutual_exclusion(4))
        assert verdict is True
        _assert_no_leak()

    def test_check_batch_races_each_formula(self):
        structure = build_mutex(2)
        formulas = {"safety": mutex_safety(2)}
        with PortfolioModelChecker(
            structure=structure, engines=("bitset",), chaos=_NO_CHAOS
        ) as checker:
            with _hard_timeout(60):
                results = checker.check_batch(formulas)
        assert results == {"safety": True}
        _assert_no_leak()


def _slow_build_mutex(size, delay, buggy=False):
    """A builder that takes ``delay`` seconds without a single checkpoint."""
    time.sleep(delay)
    return build_mutex(size, buggy=buggy)


def _slow_bitset_sources(delay):
    """bitset behind a slow build, racing bmc on the buggy 3-process mutex.

    bmc refutes the safety invariant within milliseconds but rejects
    ``EX true`` as outside its fragment, which only bitset then decides.
    """
    return {
        "bitset": builder_source(__name__, "_slow_build_mutex", 3, delay, buggy=True),
        "bmc": builder_source(
            "repro.systems.mutex", "symbolic_mutex", 3, buggy=True, domain="free"
        ),
    }


def _counter_value(name, **labels):
    key = name + "{%s}" % ",".join("%s=%s" % item for item in sorted(labels.items()))
    return REGISTRY.snapshot().get(key if labels else name, 0)


class TestWorkerLifetime:
    """One worker per engine for the checker's life, not one per formula."""

    def test_check_batch_launches_one_worker_per_engine(self):
        formulas = {"safety": mutex_safety(3), "step": EX(true()), "again": mutex_safety(3)}
        before = {
            name: _counter_value("worker.launched", task=name) for name in ("bitset", "bdd")
        }
        races = _counter_value("portfolio.races")
        with PortfolioModelChecker(
            structure=build_mutex(3), engines=("bitset", "bdd"), chaos=_NO_CHAOS
        ) as checker:
            with _hard_timeout(60):
                verdicts = checker.check_batch(formulas)
        assert verdicts == {"safety": True, "step": True, "again": True}
        assert _counter_value("portfolio.races") - races == 3
        for name in ("bitset", "bdd"):
            assert _counter_value("worker.launched", task=name) - before[name] == 1
            assert _counter_value("worker.restarts", task=name) == 0
        _assert_no_leak()

    def test_a_loser_stood_down_on_one_formula_answers_the_next(self):
        with PortfolioModelChecker(
            sources=_slow_bitset_sources(0.5), bound=8, chaos=_NO_CHAOS
        ) as checker:
            with _hard_timeout(60):
                assert checker.check(mutex_safety(3)) is False
                assert checker.last_detail.startswith("won by bmc")
                assert checker.last_outcomes["bitset"] == "cancelled"
                assert checker.check(EX(true())) is True
                assert checker.last_outcomes["bitset"] == "ok"
                assert checker.last_outcomes["bmc"].startswith("fragment")
        _assert_no_leak()

    def test_a_slow_builder_is_not_killed_and_wins_a_later_formula(self):
        launched = _counter_value("worker.launched", task="bitset")
        with PortfolioModelChecker(
            sources=_slow_bitset_sources(1.0), bound=8, chaos=_NO_CHAOS, grace=0.25
        ) as checker:
            with _hard_timeout(60):
                start = time.monotonic()
                assert checker.check(mutex_safety(3)) is False
                # The race neither waited out the build nor the grace window.
                assert time.monotonic() - start < 0.9
                pids = checker._supervisor.live_pids()
                assert len(pids) == 2, "the building loser must stay alive"
                assert checker.check(EX(true())) is True
                assert checker.last_detail == "won by bitset"
                assert checker._supervisor.live_pids() == pids
        assert _counter_value("worker.launched", task="bitset") - launched == 1
        assert _counter_value("worker.restarts", task="bitset") == 0
        _assert_no_leak()

    def test_close_is_idempotent_and_a_later_check_forks_again(self):
        checker = PortfolioModelChecker(
            structure=build_mutex(2), engines=("bitset",), chaos=_NO_CHAOS
        )
        with _hard_timeout(60):
            assert checker.check(mutex_safety(2)) is True
            checker.close()
            checker.close()
            _assert_no_leak()
            assert checker.check(mutex_safety(2)) is True
        checker.close()
        _assert_no_leak()


#: Seeded fault schedules for the never-wrong/never-deadlock property.
#: kill/hang exercise crash detection and restart; garble exercises the
#: digest check.  (oom is exercised via --memory-limit in the CLI lane:
#: an in-process allocation hog would destabilise the test runner.)
_CHAOS_RATES = {"kill": 0.4, "hang": 0.3, "garble": 0.3}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "builder, size, buggy, formula_factory",
    [
        (build_mutex, 3, False, mutex_safety),
        (build_token_ring, 4, True, ring_mutual_exclusion),
    ],
    ids=["mutex3-ok", "ring4-buggy"],
)
def test_chaos_is_never_wrong_and_never_deadlocks(seed, builder, size, buggy, formula_factory):
    """Satellite property: under seeded chaos the portfolio verdict equals
    the bitset oracle's or fails with a typed ReproError — wrong-and-confident
    is the one outcome that must not exist.  A multi-formula batch runs on
    the same workers, so a restart mid-run (rebuild, then resend the formula
    in flight) is covered too."""
    structure = builder(size, buggy=buggy)
    formula = formula_factory(size)
    formulas = {"first": formula, "negated": lnot(formula), "again": formula}
    oracle = make_ctl_checker(structure, engine="bitset")
    expected = {name: oracle.check(f) for name, f in formulas.items()}
    checker = PortfolioModelChecker(
        structure=structure,
        engines=("bitset", "bdd"),
        chaos=ChaosConfig(_CHAOS_RATES, seed=seed),
        hang_timeout=0.5,
        max_restarts=2,
        grace=0.1,
    )
    with _hard_timeout(90):
        try:
            verdicts = checker.check_batch(formulas)
        except ReproError:
            # An honest, typed failure is an acceptable chaos outcome;
            # the provenance must still name every raced engine's fate.
            assert set(checker.last_outcomes) == {"bitset", "bdd"}
        else:
            assert verdicts == expected
        finally:
            checker.close()
    assert not multiprocessing.active_children(), "chaos leaked a worker process"
