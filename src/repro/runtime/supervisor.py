"""Supervised pool of long-lived worker processes with crash/hang recovery.

The :class:`Supervisor` runs :class:`WorkerTask`\\ s in child processes and
watches them the way the paper's networks of processes must watch their
peers: it assumes workers *will* die mid-solve, wedge without making
progress, run out of memory, or return corrupted payloads, and turns each
of those into a structured, observable outcome instead of a hang or a
wrong answer.

Workers live as long as the supervisor.  The first :meth:`Supervisor.run`
that names a task id forks that id's worker; every later run sends the
worker its next request over the same pipe, so whatever the worker built
for one request (the portfolio's memoised structure) serves the next.
Requests are numbered by run: each call to :meth:`~Supervisor.run` is one
*sequence number*, and cancellation is per sequence number, so standing
down request *i* can never cancel request *i+1*.

Detection machinery, per worker:

``crash``
    The process exited without delivering a result; the exit code (or
    ``-signal``) is recorded.  Detected through the process sentinel.
``hang``
    The worker is busy but its heartbeats stopped.  Workers pipe every
    progress heartbeat (:mod:`repro.obs.progress`, pumped by the
    checkpoints in :mod:`repro.runtime.limits`) back over their
    connection; silence beyond ``hang_timeout`` seconds while a request is
    in flight gets the worker killed and counted as hung.  An idle worker
    sends no heartbeats and is never declared hung.
``garble``
    The result payload's SHA-256 digest does not match the digest the
    worker computed over the true payload before sending — the result is
    discarded, never deserialised.  (This is the detection path the chaos
    harness's ``garble`` fault exercises.)
``oom`` / structured failures
    The worker caught ``MemoryError`` (the ``RLIMIT_AS`` ceiling) or a
    structured library error (:class:`~repro.errors.InconclusiveError`,
    :class:`~repro.errors.BudgetExceededError`, ...) and reported it as a
    typed failure message rather than dying.

Crashed / hung / garbled / out-of-memory workers are killed and relaunched
with capped exponential backoff, up to ``max_restarts`` times per request;
the relaunched worker rebuilds and is resent the request in flight.  Each
attempt re-derives its own chaos schedule from (task, sequence number,
attempt), so an injected crash does not doom every retry.  The caller can
stop a run early (``stop_when`` — how a portfolio race returns as soon as
one engine is conclusive): workers already working on the request get a
grace window to stand down or deliver a late result, while workers that
have not started it yet (still finishing an earlier request or a build)
are recorded as cancelled and left running.  :meth:`Supervisor.shutdown`
(or leaving the ``with`` block) tears the pool down, and every supervisor
registers itself so :func:`shutdown_all` (the CLI's Ctrl-C path) can
guarantee no orphaned worker processes outlive the run.  Workers are
daemons: an interpreter that exits without calling ``shutdown()`` still
terminates them.

Supervision events are published as ``worker.*`` counters in the global
metrics registry (vocabulary in ``docs/OBSERVABILITY.md``); the state
machine is documented in ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import collections
import hashlib
import multiprocessing
import multiprocessing.connection
import pickle
import weakref
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    BudgetExceededError,
    CancelledError,
    FragmentError,
    InconclusiveError,
    ReproError,
)
from repro.obs import collect as _collect
from repro.obs.metrics import counter as _counter
from repro.obs.progress import enable_progress
from repro.obs.trace import monotonic_ns
from repro.runtime import chaos as _chaos
from repro.runtime import limits as _limits

__all__ = [
    "WorkerTask",
    "TaskOutcome",
    "Supervisor",
    "shutdown_all",
    "RESTARTABLE_STATUSES",
]

try:
    #: Fork keeps worker launch cheap and lets tasks reference module-level
    #: callables without import gymnastics; fall back to the platform
    #: default where fork does not exist (Windows).
    _MP = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX platforms
    _MP = multiprocessing.get_context()


#: Outcome statuses that earn a restart: the failure was environmental
#: (process death, wedge, corrupted payload, memory exhaustion), not a
#: deterministic structured verdict from the engine.
RESTARTABLE_STATUSES = frozenset({"crashed", "hung", "garbled", "oom"})


class WorkerTask:
    """One request to a worker: a picklable callable plus its policy.

    ``id`` names the worker that serves the request: tasks with the same
    id in successive runs go to the same long-lived process.  ``fn`` must
    be a module-level callable (pickled by reference).  ``budget``
    ceilings are armed inside the worker for this request (its
    ``memory_bytes`` caps the whole process, from the request that forks
    it); ``chaos`` overrides the environment's ``REPRO_CHAOS`` config for
    this request (pass a disabled ``ChaosConfig()`` to force chaos off even
    under a chaos environment — the chaos lane's own tests need that).
    ``label`` tags the task's metrics/outcome provenance (the portfolio
    uses the engine name).
    """

    __slots__ = ("id", "fn", "args", "kwargs", "budget", "chaos", "label")

    def __init__(
        self,
        id: str,
        fn: Callable[..., Any],
        args: Tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
        budget: Optional[_limits.ResourceBudget] = None,
        chaos: Optional[_chaos.ChaosConfig] = None,
        label: str = "",
    ) -> None:
        self.id = id
        self.fn = fn
        self.args = tuple(args)
        self.kwargs = dict(kwargs or {})
        self.budget = budget
        self.chaos = chaos
        self.label = label or id


class TaskOutcome:
    """What finally became of one task in one run, after restarts.

    ``status`` is one of ``"ok"`` (``result`` holds the return value),
    ``"error"`` (structured failure: ``error_kind``/``message``/``fields``),
    ``"budget"`` (a :class:`~repro.errors.BudgetExceededError`),
    ``"fragment"``, ``"inconclusive"``, ``"cancelled"``, ``"oom"``,
    ``"crashed"``, ``"hung"``, or ``"garbled"``.  ``attempts`` counts the
    times the request was sent; ``history`` lists every attempt's fate in
    order, so a final ``"ok"`` after two chaos kills still shows the crashes.
    """

    __slots__ = (
        "task_id",
        "label",
        "status",
        "result",
        "error_kind",
        "message",
        "fields",
        "attempts",
        "exitcode",
        "history",
        "late",
    )

    def __init__(self, task_id: str, label: str) -> None:
        self.task_id = task_id
        self.label = label
        self.status = "pending"
        self.result: Any = None
        self.error_kind = ""
        self.message = ""
        self.fields: Dict[str, Any] = {}
        self.attempts = 0
        self.exitcode: Optional[int] = None
        self.history: List[str] = []
        #: Whether the final result arrived after cancellation was requested
        #: (a portfolio loser finishing in the grace window).
        self.late = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def describe(self) -> str:
        """One-line diagnostic, e.g. ``"crashed (signal 9) after 3 attempts"``."""
        if self.status == "ok":
            text = "ok"
        elif self.status == "crashed":
            if self.exitcode is not None and self.exitcode < 0:
                text = "crashed (signal %d)" % -self.exitcode
            else:
                text = "crashed (exit code %r)" % self.exitcode
        elif self.status == "hung":
            text = "hung (heartbeats stopped)"
        elif self.status == "garbled":
            text = "garbled (payload digest mismatch)"
        else:
            text = self.status
            if self.message:
                text = "%s: %s" % (text, self.message)
        if self.attempts > 1:
            text += " after %d attempts" % self.attempts
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TaskOutcome(%r, %s)" % (self.task_id, self.describe())


def _send_quietly(conn, message: Tuple) -> None:
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass  # supervisor gone; the worker sees EOF on its next receive


class _ConnStream:
    """A write-only text stream that turns progress lines into heartbeats.

    Installed as the worker's progress stream, so every rate-limited
    ``[progress]`` line an engine (or a budget checkpoint) emits becomes a
    liveness message on the pipe instead of stderr noise.
    """

    __slots__ = ("_conn", "_task_id")

    def __init__(self, conn, task_id: str) -> None:
        self._conn = conn
        self._task_id = task_id

    def write(self, text: str) -> int:
        if text.strip():
            _send_quietly(self._conn, ("heartbeat", self._task_id, text.strip()))
        return len(text)

    def flush(self) -> None:
        return None


class _RequestToken:
    """Cancellation token of request ``seq``: set once the supervisor stands
    down any request numbered ``seq`` or later.

    Its first poll also tells the supervisor the request has *started*:
    setup that must run whole (the portfolio's memoised build) runs under
    :func:`repro.runtime.limits.shielded`, which hides the token from the
    checkpoints, so the first poll is where cancellable work begins.
    """

    __slots__ = ("_cancelled", "_seq", "_conn")

    def __init__(self, cancelled, seq: int, conn) -> None:
        self._cancelled = cancelled
        self._seq = seq
        self._conn = conn

    def is_set(self) -> bool:
        if self._conn is not None:
            conn, self._conn = self._conn, None
            _send_quietly(conn, ("started", self._seq))
        return self._cancelled.value >= self._seq


def _serve(conn, cancelled, telemetry, request: Tuple) -> None:
    """Run one request in the worker and report it exactly once.

    The *terminal* message (``result`` or ``fail``) is computed first and
    sent last, after the telemetry exporter has flushed this request's
    spans and metrics — so the supervisor files them under the request's
    own trace context.  If the task body dies on an unexpected exception
    (no terminal message at all — the crash path), the flush still ships
    whatever the worker had buffered before the exception ends the
    process, which is what makes partial traces survive crashes.
    """
    seq, attempt, task, context = request
    chaos_config = task.chaos if task.chaos is not None else _chaos.from_env()
    injector = None
    if chaos_config is not None and chaos_config.is_enabled():
        injector = _chaos.enable(chaos_config, scope="%s#%d#%d" % (task.id, seq, attempt))
    else:
        _chaos.disable()
    telemetry.rearm(context, injector)
    budget = task.budget if task.budget is not None else _limits.ResourceBudget()
    terminal: Optional[Tuple] = None
    try:
        with _limits.active(budget, cancel=_RequestToken(cancelled, seq, conn)):
            result = task.fn(*task.args, **task.kwargs)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        if injector is not None and injector.should_garble():
            payload = injector.garble_payload(payload)
        terminal = ("result", seq, payload, digest)
    except BudgetExceededError as exc:
        terminal = (
            "fail",
            seq,
            "BudgetExceededError",
            str(exc),
            {
                "resource": exc.resource,
                "limit": exc.limit,
                "observed": exc.observed,
                "site": exc.site,
            },
        )
    except CancelledError as exc:
        terminal = ("fail", seq, "CancelledError", str(exc), {"site": exc.site})
    except InconclusiveError as exc:
        terminal = ("fail", seq, "InconclusiveError", str(exc), exc.progress())
    except FragmentError as exc:
        terminal = ("fail", seq, "FragmentError", str(exc), {})
    except MemoryError as exc:
        terminal = ("fail", seq, "MemoryError", str(exc), {})
    except ReproError as exc:
        terminal = ("fail", seq, type(exc).__name__, str(exc), {})
    finally:
        # Anything else (a genuine bug) propagates and the non-zero exit
        # code surfaces as a crash in the supervisor — after the flush.
        telemetry.flush()
        if terminal is not None:
            _send_quietly(conn, terminal)


def _worker_main(conn, supervisor_end, cancelled, request: Tuple) -> None:
    """Worker-process entry point: serve requests until the pipe closes.

    ``request`` is the first request, inherited through the fork; later
    ones arrive over ``conn``, each sent only once the previous one is
    answered.  End-of-file (the supervisor is gone) ends the loop.
    """
    # The fork duplicated the supervisor's end of the pipe; close it so the
    # supervisor's exit reaches this process as end-of-file.
    supervisor_end.close()
    task = request[2]
    if task.budget is not None and task.budget.memory_bytes is not None:
        _limits.apply_memory_limit(task.budget.memory_bytes)
    telemetry = _collect.WorkerTelemetry(request[3], conn, task.id)
    # Heartbeats flow through the pipe; the interval is the floor of the
    # supervisor's hang-detection resolution.
    enable_progress(interval=0.05, stream=_ConnStream(conn, task.id))
    try:
        while request is not None:
            _serve(conn, cancelled, telemetry, request)
            try:
                request = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                request = None
    finally:
        telemetry.close()
        conn.close()


#: Failure kinds that map to non-"error" outcome statuses.
_FAIL_STATUS = {
    "BudgetExceededError": "budget",
    "CancelledError": "cancelled",
    "MemoryError": "oom",
    "FragmentError": "fragment",
    "InconclusiveError": "inconclusive",
}

#: Attempt failures and the counter each one bumps.
_FAILURE_COUNTERS = {
    "crashed": "worker.crashes",
    "hung": "worker.hangs",
    "garbled": "worker.garbled",
    "oom": "worker.oom",
}


class _Request:
    """A request queued for, or being served by, a worker."""

    __slots__ = ("seq", "context", "message", "started")

    def __init__(self, seq: int, context: _collect.TraceContext, message: Tuple) -> None:
        self.seq = seq
        self.context = context
        #: What to send the worker; ``None`` once it has the request.
        self.message: Optional[Tuple] = message
        self.started = False


class _Worker:
    """Supervisor-side bookkeeping for one long-lived worker process."""

    __slots__ = (
        "task_id",
        "label",
        "process",
        "conn",
        "pending",
        "last_seen_ns",
        "retry_at_ns",
        "launches",
    )

    def __init__(self, task: WorkerTask) -> None:
        self.task_id = task.id
        self.label = task.label
        self.launches = 0
        self.process = None
        self.conn = None
        #: Unanswered requests, oldest first.  Only ``pending[0]`` is in the
        #: worker, so every message the worker sends concerns it; the next
        #: is sent when it is answered (a worker busy with its own sends
        #: could otherwise leave both ends blocked on full pipes).
        self.pending: Deque[_Request] = collections.deque()
        self.last_seen_ns = 0
        self.retry_at_ns: Optional[int] = None  # set while waiting out backoff

    @property
    def alive(self) -> bool:
        return self.process is not None

    @property
    def busy(self) -> bool:
        return self.process is not None and bool(self.pending)


def _retire(worker: _Worker) -> None:
    """Kill (if still alive), reap, and forget the worker's process."""
    process = worker.process
    if worker.conn is not None:
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        worker.conn = None
    if process is not None:
        if process.is_alive():
            process.terminate()
            process.join(timeout=0.5)
            if process.is_alive():  # pragma: no cover - SIGTERM blocked
                process.kill()
        process.join(timeout=1.0)
        worker.process = None
    worker.pending.clear()


def _retire_all(workers: Dict[str, _Worker]) -> None:
    for worker in workers.values():
        _retire(worker)


#: Every live supervisor, for shutdown_all() on Ctrl-C.
_LIVE_SUPERVISORS: "weakref.WeakSet[Supervisor]" = weakref.WeakSet()


def shutdown_all() -> int:
    """Tear down every live supervisor's workers (the CLI interrupt path).

    Returns the number of supervisors shut down.  Idempotent and safe to
    call from a ``KeyboardInterrupt`` handler.
    """
    count = 0
    for supervisor in list(_LIVE_SUPERVISORS):
        supervisor.shutdown()
        count += 1
    return count


class Supervisor:
    """Runs tasks in long-lived worker processes; detects, restarts, never hangs.

    ``hang_timeout``
        Seconds of heartbeat silence before a busy worker is declared hung
        and killed.
    ``max_restarts``
        Restarts per request (on top of the first attempt) for
        :data:`RESTARTABLE_STATUSES` failures.
    ``backoff_base`` / ``backoff_cap``
        Restart ``n`` waits ``min(backoff_base * 2**(n-1), backoff_cap)``
        seconds before relaunching.
    ``grace``
        Seconds workers that already started a stood-down request get to
        deliver a late result (how a portfolio race catches a loser that
        disagrees) or acknowledge the cancellation.
    """

    def __init__(
        self,
        hang_timeout: float = 5.0,
        max_restarts: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        grace: float = 0.25,
    ) -> None:
        self.hang_timeout = hang_timeout
        self.max_restarts = max_restarts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.grace = grace
        #: The latest run's outcomes, by task id.
        self.outcomes: Dict[str, TaskOutcome] = {}
        #: Ingests the latest run's worker telemetry (spans re-parented into
        #: the live trace, metrics merged under ``worker=<label>``) — see
        #: repro.obs.collect.
        self.collector = _collect.TelemetryCollector()
        self._workers: Dict[str, _Worker] = {}
        self._tasks: Dict[str, WorkerTask] = {}
        self._seq = 0
        #: Highest stood-down sequence number, shared with every worker.
        #: Created with the first fork, so it never costs an idle checker.
        self._cancelled = None
        self._context = _collect.TraceContext()
        self._standing_down = False
        _LIVE_SUPERVISORS.add(self)
        # A supervisor dropped without shutdown() still takes its workers
        # down with it (the callback holds the workers, not the supervisor).
        weakref.finalize(self, _retire_all, self._workers)

    # -- lifecycle ---------------------------------------------------------
    def _launch(self, worker: _Worker, request: Tuple) -> None:
        if self._cancelled is None:
            self._cancelled = _MP.RawValue("q", 0)
        supervisor_end, worker_end = _MP.Pipe(duplex=True)
        process = _MP.Process(
            target=_worker_main,
            args=(worker_end, supervisor_end, self._cancelled, request),
            name="repro-worker-%s" % worker.task_id,
            daemon=True,
        )
        process.start()
        worker_end.close()
        worker.process = process
        worker.conn = supervisor_end
        worker.pending.clear()
        worker.retry_at_ns = None
        worker.launches += 1
        name = "worker.launched" if worker.launches == 1 else "worker.restarts"
        _counter(name, task=worker.label).inc()

    def _send(self, task: WorkerTask) -> None:
        """Queue ``task`` (this run's request) for its worker, forking if needed."""
        outcome = self.outcomes[task.id]
        outcome.attempts += 1
        message = (self._seq, outcome.attempts, task, self._context)
        request = _Request(self._seq, self._context, message)
        worker = self._workers.get(task.id)
        if worker is None:
            worker = self._workers[task.id] = _Worker(task)
        if not worker.alive:
            self._launch(worker, message)  # the fork hands the request over
            request.message = None
            worker.last_seen_ns = monotonic_ns()
        worker.pending.append(request)
        self._feed(worker)

    def _feed(self, worker: _Worker) -> None:
        """Hand the worker its oldest queued request once it is free."""
        if worker.busy and worker.pending[0].message is not None:
            # A dead pipe means a dead worker: its sentinel reports the crash.
            _send_quietly(worker.conn, worker.pending[0].message)
            worker.pending[0].message = None
            worker.last_seen_ns = monotonic_ns()

    def _current_outcome(self, worker: _Worker) -> Optional[TaskOutcome]:
        """This run's still-undecided outcome served by ``worker``, if any."""
        if worker.task_id not in self._tasks:
            return None
        outcome = self.outcomes[worker.task_id]
        return outcome if outcome.status == "pending" else None

    def _attempt_failed(self, worker: _Worker, status: str, **extra: Any) -> None:
        """The worker process failed: retire it, then restart or record.

        The failure counts against this run's request to the worker, which
        is what a restart resends.
        """
        _counter(_FAILURE_COUNTERS[status], task=worker.label).inc()
        _retire(worker)
        outcome = self._current_outcome(worker)
        if outcome is None:
            return  # not needed by this run; the next run relaunches it
        outcome.history.append(status)
        if outcome.attempts <= self.max_restarts and not self._standing_down:
            backoff = min(self.backoff_base * (2 ** (outcome.attempts - 1)), self.backoff_cap)
            worker.retry_at_ns = monotonic_ns() + int(backoff * 1e9)
            return
        outcome.status = status
        for key, value in extra.items():
            setattr(outcome, key, value)

    # -- message handling --------------------------------------------------
    def _handle_message(self, worker: _Worker, message: Tuple) -> None:
        if not worker.pending:
            return  # nothing in flight: a stray message from a dying worker
        request = worker.pending[0]
        kind = message[0]
        if kind == "started":
            request.started = True
            return
        if kind == "heartbeat":
            self.collector.ingest_heartbeat(
                worker.label, worker.process.pid, message[2], request.context
            )
            return
        if kind == "telemetry":
            _, _, blob, digest = message
            self.collector.ingest(worker.label, request.context, blob, digest)
            return
        worker.pending.popleft()
        self._settle(worker, request, message)
        if worker.alive:
            self._feed(worker)

    def _settle(self, worker: _Worker, request: _Request, message: Tuple) -> None:
        """File the worker's answer to ``request`` (``result`` or ``fail``)."""
        kind = message[0]
        outcome = self._current_outcome(worker) if request.seq == self._seq else None
        if kind == "result":
            _, _, payload, digest = message
            if hashlib.sha256(payload).hexdigest() != digest:
                # Corrupted payload: discard without deserialising; the
                # worker is rebuilt as after a crash.
                self._attempt_failed(worker, "garbled")
                return
            if outcome is None:
                return  # an answer to a request already decided or stood down
            outcome.status = "ok"
            outcome.result = pickle.loads(payload)
            outcome.history.append("ok")
            outcome.late = self._standing_down
            return
        _, _, error_kind, text, fields = message
        status = _FAIL_STATUS.get(error_kind, "error")
        if status in RESTARTABLE_STATUSES:
            self._attempt_failed(
                worker, status, error_kind=error_kind, message=text, fields=dict(fields)
            )
            return
        if outcome is None:
            return
        outcome.status = status
        outcome.history.append(status)
        outcome.error_kind = error_kind
        outcome.message = text
        outcome.fields = dict(fields)

    def _drain(self, worker: _Worker) -> None:
        """Handle every message the worker has already sent."""
        while worker.conn is not None:
            conn = worker.conn
            try:
                if not conn.poll(0):
                    return
                message = conn.recv()
            except (EOFError, OSError):
                return  # worker side closed; its sentinel decides its fate
            worker.last_seen_ns = monotonic_ns()
            self._handle_message(worker, message)

    # -- the supervision loop ----------------------------------------------
    def run(
        self,
        tasks: Sequence[WorkerTask],
        stop_when: Optional[Callable[[Dict[str, TaskOutcome]], bool]] = None,
    ) -> Dict[str, TaskOutcome]:
        """Send each task to its worker and supervise until all are decided
        (or ``stop_when`` holds, which stands the rest down).

        Returns with every outcome decided; the workers stay alive for the
        next run until :meth:`shutdown`.  On any exception (Ctrl-C
        included) the pool is torn down before it propagates.
        """
        seen_ids = set()
        for task in tasks:
            if task.id in seen_ids:
                raise ValueError("duplicate task id %r" % task.id)
            seen_ids.add(task.id)
        self._seq += 1
        self._standing_down = False
        self._tasks = {task.id: task for task in tasks}
        self.outcomes = {task.id: TaskOutcome(task.id, task.label) for task in tasks}
        self.collector = _collect.TelemetryCollector()
        # Captured per run, at the launch site: whatever span is open right
        # now (for a portfolio race, the ``portfolio.race`` span) becomes the
        # parent of this run's re-ingested worker spans.
        self._context = _collect.TraceContext.capture()
        try:
            now = monotonic_ns()
            for worker in self._workers.values():
                worker.last_seen_ns = now  # silence between runs is not a hang
            for task in tasks:
                self._send(task)
            while True:
                if stop_when is not None and stop_when(self.outcomes):
                    self._stand_down()
                    break
                if all(outcome.status != "pending" for outcome in self.outcomes.values()):
                    break
                self._pump()
        except BaseException:
            self.shutdown()
            raise
        return self.outcomes

    def _pump(self, until_ns: Optional[int] = None) -> None:
        """Block until a message, a worker death, or the next deadline
        (``until_ns``, a restart backoff, or a hang timeout), then act on it."""
        hang_ns = int(self.hang_timeout * 1e9)
        wake = [] if until_ns is None else [until_ns]
        handles: Dict[Any, _Worker] = {}
        for worker in self._workers.values():
            if worker.retry_at_ns is not None:
                wake.append(worker.retry_at_ns)
            if worker.alive:
                handles[worker.conn] = worker
                handles[worker.process.sentinel] = worker
                if worker.pending:
                    wake.append(worker.last_seen_ns + hang_ns)
        timeout = None
        if wake:
            timeout = max(0, min(wake) - monotonic_ns()) / 1e9
        elif not handles:
            return  # pragma: no cover - nothing to wait for
        for ready in multiprocessing.connection.wait(list(handles), timeout):
            worker = handles[ready]
            if not worker.alive:
                continue  # retired earlier in this batch
            self._drain(worker)
            if ready is not worker.conn and worker.alive:
                # The sentinel fired: the process is gone (a worker only
                # exits on its own when told to, which runs never do).
                worker.process.join(timeout=1.0)
                self._attempt_failed(worker, "crashed", exitcode=worker.process.exitcode)
        now = monotonic_ns()
        for worker in list(self._workers.values()):
            if worker.retry_at_ns is not None and now >= worker.retry_at_ns:
                if self._current_outcome(worker) is not None:
                    self._send(self._tasks[worker.task_id])
                else:
                    worker.retry_at_ns = None
            elif worker.pending and worker.alive and now - worker.last_seen_ns > hang_ns:
                self._attempt_failed(worker, "hung")

    # -- cancellation and teardown -----------------------------------------
    def _cancel_in_flight(self, wait_for: Callable[[_Worker], bool]) -> None:
        """Cancel every request sent so far, abandon pending restarts, and
        give the workers ``wait_for`` selects ``grace`` seconds to answer."""
        self._standing_down = True
        if self._cancelled is not None:
            self._cancelled.value = self._seq
        for worker in self._workers.values():
            worker.retry_at_ns = None
        deadline = monotonic_ns() + int(self.grace * 1e9)
        while monotonic_ns() < deadline and any(map(wait_for, self._workers.values())):
            self._pump(until_ns=deadline)

    def _stand_down(self) -> None:
        """Cancel this run's undecided requests.

        Workers that already started the request get ``grace`` seconds to
        act on the cancellation — long enough for one that already finished
        solving to deliver its (possibly disagreeing) result.  Workers that
        have not started it (still busy with an earlier request or their
        build) are recorded as cancelled at once and left running: they
        acknowledge the cancellation when they reach it and stay warm for
        the next run.
        """
        self._cancel_in_flight(
            lambda worker: self._current_outcome(worker) is not None
            and worker.busy
            and worker.pending[0].seq == self._seq
            and worker.pending[0].started
        )
        self._cancel_undecided()

    def _cancel_undecided(self) -> None:
        for outcome in self.outcomes.values():
            if outcome.status == "pending":
                outcome.status = "cancelled"
                outcome.history.append("cancelled")

    def shutdown(self) -> None:
        """Teardown: no worker survives this call.

        Every request still in flight is cancelled, and busy workers get
        ``grace`` seconds to acknowledge — which flushes their telemetry
        home — before every worker is terminated.
        """
        for worker in self._workers.values():
            while len(worker.pending) > 1:
                worker.pending.pop()  # queued, never sent: nothing to wait for
        self._cancel_in_flight(lambda worker: worker.busy)
        for worker in self._workers.values():
            if worker.alive:
                # One last drain so a finished-but-unread result is kept.
                self._drain(worker)
            _retire(worker)
        self._cancel_undecided()
        _LIVE_SUPERVISORS.discard(self)

    def live_pids(self) -> List[int]:
        """PIDs of still-alive workers (empty after shutdown — pinned by tests)."""
        return [
            worker.process.pid
            for worker in self._workers.values()
            if worker.alive and worker.process.is_alive()
        ]

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False
