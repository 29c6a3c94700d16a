"""Unit tests for the supervised worker pool.

Every task here pins ``chaos=ChaosConfig()`` (explicitly disabled) so the
CI chaos lane's ambient ``REPRO_CHAOS`` cannot perturb the outcomes; the
one garbling test arms its own config.  Worker functions are module-level
(pickled by reference under the fork start method).
"""

import multiprocessing
import os
import time

import pytest

from repro.errors import (
    BudgetExceededError,
    FragmentError,
    InconclusiveError,
    ModelCheckingError,
)
from repro.runtime import supervisor as supervisor_module
from repro.runtime.chaos import ChaosConfig
from repro.runtime.limits import ResourceBudget, checkpoint
from repro.runtime.supervisor import (
    RESTARTABLE_STATUSES,
    Supervisor,
    WorkerTask,
    shutdown_all,
)

#: Forces chaos off inside workers even when REPRO_CHAOS is exported.
_NO_CHAOS = ChaosConfig()


def _ok(value):
    return {"value": value}


def _raise_fragment():
    raise FragmentError("outside every fragment")


def _raise_budget():
    raise BudgetExceededError(
        "deadline blown", resource="deadline", limit=1.0, observed=2.0, site="test.site"
    )


def _raise_inconclusive():
    raise InconclusiveError("bound exhausted", depth_reached=3, conflicts_spent=17)


def _raise_generic():
    raise ModelCheckingError("engine bug, but a typed one")


def _crash():
    os._exit(17)


def _sleep_forever():
    time.sleep(600)


def _crash_until_sentinel(sentinel):
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(1)
    return "recovered"


def _sleep_then_report(delay):
    # No checkpoint: to the supervisor this request never starts.
    time.sleep(delay)
    return os.getpid()


def _spin_until_cancelled():
    while True:
        checkpoint("test.spin")
        time.sleep(0.005)


def _task(fn, *args, **kwargs):
    task_id = kwargs.pop("id", "t")
    return WorkerTask(id=task_id, fn=fn, args=args, kwargs=kwargs, chaos=_NO_CHAOS)


def _assert_no_leak(sup):
    """Workers outlive run(); after shutdown() / context exit none may."""
    assert sup.live_pids() == []
    assert not multiprocessing.active_children()


def test_successful_task_delivers_its_result():
    with Supervisor(hang_timeout=10.0) as sup:
        outcomes = sup.run([_task(_ok, 42)])
    outcome = outcomes["t"]
    assert outcome.ok
    assert outcome.result == {"value": 42}
    assert outcome.attempts == 1
    assert outcome.history == ["ok"]
    assert outcome.describe() == "ok"
    _assert_no_leak(sup)


@pytest.mark.parametrize(
    "fn, status, error_kind",
    [
        (_raise_fragment, "fragment", "FragmentError"),
        (_raise_budget, "budget", "BudgetExceededError"),
        (_raise_inconclusive, "inconclusive", "InconclusiveError"),
        (_raise_generic, "error", "ModelCheckingError"),
    ],
)
def test_typed_failures_are_final_not_restarted(fn, status, error_kind):
    with Supervisor(hang_timeout=10.0, max_restarts=2) as sup:
        outcome = sup.run([_task(fn)])["t"]
    assert outcome.status == status
    assert outcome.error_kind == error_kind
    assert outcome.attempts == 1, "a deterministic failure must not be retried"
    assert status not in RESTARTABLE_STATUSES
    _assert_no_leak(sup)


def test_typed_failure_fields_survive_the_pipe():
    with Supervisor(hang_timeout=10.0) as sup:
        budget_outcome = sup.run([_task(_raise_budget)])["t"]
        # The same worker serves the next run's request.
        inconclusive_outcome = sup.run([_task(_raise_inconclusive)])["t"]
    assert budget_outcome.fields["resource"] == "deadline"
    assert budget_outcome.fields["site"] == "test.site"
    assert inconclusive_outcome.fields == {"depth_reached": 3, "conflicts_spent": 17}
    _assert_no_leak(sup)


def test_crash_is_detected_restarted_and_capped():
    with Supervisor(hang_timeout=10.0, max_restarts=1, backoff_base=0.01) as sup:
        outcome = sup.run([_task(_crash)])["t"]
    assert outcome.status == "crashed"
    assert outcome.exitcode == 17
    assert outcome.attempts == 2  # first attempt + one restart
    assert outcome.history == ["crashed", "crashed"]
    assert "crashed" in outcome.describe() and "2 attempts" in outcome.describe()
    _assert_no_leak(sup)


def test_restart_recovers_a_crash_once_task(tmp_path):
    sentinel = str(tmp_path / "crashed-once")
    with Supervisor(hang_timeout=10.0, max_restarts=2, backoff_base=0.01) as sup:
        outcome = sup.run(
            [WorkerTask(id="t", fn=_crash_until_sentinel, args=(sentinel,), chaos=_NO_CHAOS)]
        )["t"]
    assert outcome.status == "ok"
    assert outcome.result == "recovered"
    assert outcome.attempts == 2
    assert outcome.history == ["crashed", "ok"]
    _assert_no_leak(sup)


def test_silent_worker_is_declared_hung():
    with Supervisor(hang_timeout=0.4, max_restarts=0) as sup:
        outcome = sup.run([_task(_sleep_forever)])["t"]
    assert outcome.status == "hung"
    assert outcome.history == ["hung"]
    assert "heartbeats stopped" in outcome.describe()
    _assert_no_leak(sup)


def test_garbled_payload_is_detected_and_discarded():
    # Rate 1.0 garbling: the digest mismatch must be caught, the corrupted
    # result never deserialised or accepted.
    task = WorkerTask(
        id="t", fn=_ok, args=(1,), chaos=ChaosConfig({"garble": 1.0}, seed=5)
    )
    with Supervisor(hang_timeout=10.0, max_restarts=0) as sup:
        outcome = sup.run([task])["t"]
    assert outcome.status == "garbled"
    assert outcome.result is None
    assert "digest mismatch" in outcome.describe()
    _assert_no_leak(sup)


def test_stop_when_cancels_the_stragglers():
    tasks = [
        _task(_ok, "fast", id="fast"),
        WorkerTask(
            id="slow",
            fn=_spin_until_cancelled,
            budget=ResourceBudget(),  # unlimited: cancel-token-only budget
            chaos=_NO_CHAOS,
        ),
    ]
    with Supervisor(hang_timeout=10.0, grace=1.0) as sup:
        outcomes = sup.run(
            tasks, stop_when=lambda all_outcomes: any(o.ok for o in all_outcomes.values())
        )
    assert outcomes["fast"].ok
    assert outcomes["slow"].status == "cancelled"
    _assert_no_leak(sup)


def test_workers_live_across_runs():
    with Supervisor(hang_timeout=10.0) as sup:
        first = sup.run([_task(os.getpid)])["t"].result
        pids = sup.live_pids()
        second = sup.run([_task(os.getpid)])["t"].result
        assert sup.live_pids() == pids == [first]
    assert second == first, "the second run must reuse the first run's worker"
    _assert_no_leak(sup)


def test_idle_workers_are_never_declared_hung():
    with Supervisor(hang_timeout=0.2) as sup:
        sup.run([_task(_ok, 1)])
        time.sleep(0.5)  # idle well past the hang timeout, no heartbeats
        outcome = sup.run([_task(_ok, 2)])["t"]
        assert outcome.ok and outcome.history == ["ok"]
    _assert_no_leak(sup)


def test_a_stood_down_request_never_cancels_the_next():
    """Cancellation is per run: the straggler of run 1 answers run 2."""
    slow = WorkerTask(
        id="slow", fn=_spin_until_cancelled, budget=ResourceBudget(), chaos=_NO_CHAOS
    )
    with Supervisor(hang_timeout=10.0, grace=1.0) as sup:
        first = sup.run(
            [_task(_ok, "fast", id="fast"), slow],
            stop_when=lambda outcomes: outcomes["fast"].ok,
        )
        assert first["slow"].status == "cancelled"
        second = sup.run([_task(_ok, "next", id="slow")])
        assert second["slow"].ok and second["slow"].result == {"value": "next"}
    _assert_no_leak(sup)


def test_a_worker_busy_with_a_stood_down_request_is_not_killed():
    """A loser that never reached a checkpoint is cancelled at once, not
    waited for or killed, and serves the next run once it is done."""
    busy = _task(_sleep_then_report, 1.5, id="busy")
    with Supervisor(hang_timeout=10.0, grace=5.0) as sup:
        start = time.monotonic()
        first = sup.run(
            [_task(os.getpid, id="fast"), busy],
            stop_when=lambda outcomes: outcomes["fast"].ok,
        )
        assert time.monotonic() - start < 1.0, "waited for a loser that never started"
        assert first["busy"].status == "cancelled"
        [pid] = [p for p in sup.live_pids() if p != first["fast"].result]
        second = sup.run([_task(_sleep_then_report, 0.0, id="busy")])["busy"]
        assert second.ok and second.result == pid
    _assert_no_leak(sup)


def test_duplicate_task_ids_are_rejected():
    with Supervisor() as sup:
        with pytest.raises(ValueError):
            sup.run([_task(_ok, 1), _task(_ok, 2)])
    _assert_no_leak(sup)


def test_context_manager_tears_down_on_exit():
    with Supervisor() as sup:
        sup.run([_task(_ok, 1)])
        assert len(sup.live_pids()) == 1
    _assert_no_leak(sup)
    sup.shutdown()  # idempotent


def test_shutdown_all_sweeps_every_live_supervisor():
    sup = Supervisor()
    sup.run([_task(_ok, 1)])
    assert shutdown_all() >= 1
    _assert_no_leak(sup)
    # Everything swept: the registry is empty until a new supervisor appears.
    assert supervisor_module.shutdown_all() == 0
