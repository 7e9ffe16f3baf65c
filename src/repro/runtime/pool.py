"""Shard execution: the persistent worker pool and the shard scheduler.

:class:`ShardScheduler` is the one thing that runs shards.  It owns the
checkpoint journal, the event log and a single attempt loop, and hands
each attempt to one of two executors chosen by
:attr:`~repro.runtime.policy.RuntimeConfig.isolate`:

* **the pool** (``isolate=True``) — a :class:`WorkerPool` of ``jobs``
  long-lived worker processes.  Each worker receives ``(fn, args)``
  tasks over its own duplex pipe and keeps executing tasks until told to
  stop, so per-process state (built netlists, compiled engine kernels,
  good-trace caches) is paid once per worker and amortized over every
  shard it grades.  Each attempt has a wall-clock budget; a worker that
  times out or crashes is killed and **replaced**, so only the shard it
  was executing is affected, never the shards other workers completed.
* **in process** (``isolate=False``) — the shards run one after another
  in the calling thread, with no timeout.

Both executors share the rest of the contract: journaled shards are
reused (``cached``), timeouts / crashes / job errors count as failed
attempts that are retried with backoff, and a shard that exhausts its
attempts yields a ``failed`` outcome instead of aborting the run.
Successes are journaled at shard granularity, so a resumed campaign
skips exactly the shards that completed.

Load balancing is parent-driven: the scheduler keeps a FIFO of eligible
tasks and hands the next one to whichever worker goes idle first, so a
slow shard on one worker never stalls the rest of the queue
(oversubscription — more shards than workers — gives the queue room to
balance; see :func:`repro.runtime.sharding.plan_shards`).

The ``fork`` start method is preferred (workers inherit the parent's
memory, so the campaign context — traced stimulus, netlist transforms —
needs no pickling); under ``spawn`` the pool initializer and every task
must be picklable.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import time
from dataclasses import dataclass
from multiprocessing import connection
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import CheckpointCorrupt, JobCancelled, ReproRuntimeError
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.events import EventLog
from repro.runtime.policy import RuntimeConfig
from repro.runtime.sharding import JobOutcome, ShardTask

_CTX = mp.get_context(
    "fork" if "fork" in mp.get_all_start_methods() else "spawn"
)

#: Grace period for a terminated worker to exit before SIGKILL.
_TERMINATE_GRACE = 2.0

#: Callbacks run inside every freshly started worker before its first
#: task.  Used by process-wide caches (e.g. the fault-sim good-trace
#: cache) to reset per-process statistics that a fork would otherwise
#: duplicate.
_CHILD_INIT_HOOKS: list[Callable[[], None]] = []


def register_child_init_hook(hook: Callable[[], None]) -> None:
    """Run ``hook()`` at the start of every worker process.

    Hooks must be cheap and exception-safe; a raising hook is swallowed
    (a broken cache reset must not take the worker down with it).  Under
    the ``spawn`` start method hooks only run if their registering module
    is imported by the worker itself.
    """
    if hook not in _CHILD_INIT_HOOKS:
        _CHILD_INIT_HOOKS.append(hook)


def _reap(proc: mp.process.BaseProcess) -> None:
    """Stop a worker that is no longer wanted, escalating politely."""
    if proc.is_alive():
        proc.terminate()
        proc.join(_TERMINATE_GRACE)
    if proc.is_alive():
        proc.kill()
        proc.join(_TERMINATE_GRACE)


def _exit_code(proc: mp.process.BaseProcess) -> int | None:
    """Exit code of a worker that has died.

    Its pipe and sentinel can signal before the process is reaped, when
    ``exitcode`` still reads ``None``; wait for the exit first.
    """
    proc.join(_TERMINATE_GRACE)
    return proc.exitcode


def _pool_worker(conn, initializer, initargs) -> None:
    """Worker main loop: execute ``(fn, args)`` tasks until ``None``."""
    for hook in _CHILD_INIT_HOOKS:
        with contextlib.suppress(Exception):
            hook()
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if message is None:
            break
        fn, args = message
        started = time.perf_counter()
        try:
            value = fn(*args)
        except BaseException as exc:
            try:
                conn.send(("error", type(exc).__name__, str(exc)))
            except Exception:
                break  # parent gone; die quietly (reported as a crash)
        else:
            elapsed = time.perf_counter() - started
            try:
                conn.send(("ok", value, elapsed))
            except Exception:
                try:
                    conn.send((
                        "error", "PicklingError",
                        "shard result is not picklable",
                    ))
                except Exception:
                    break
    conn.close()


class _Worker:
    """Parent-side handle for one pool process."""

    def __init__(self, initializer, initargs):
        self.conn, child_conn = _CTX.Pipe(duplex=True)
        self.proc = _CTX.Process(
            target=_pool_worker,
            args=(child_conn, initializer, initargs),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.pending = None  # the _Pending currently executing, if any
        self.started = 0.0  # monotonic dispatch time of that task

    @property
    def busy(self) -> bool:
        return self.pending is not None

    def dispatch(self, pending: "_Pending", now: float) -> None:
        self.conn.send((pending.task.fn, pending.task.args))
        self.pending = pending
        self.started = now

    def stop(self) -> None:
        """Shut the worker down, politely then firmly."""
        with contextlib.suppress(BrokenPipeError, OSError):
            if self.proc.is_alive():
                self.conn.send(None)
        with contextlib.suppress(OSError):
            self.conn.close()
        _reap(self.proc)


@dataclass
class _Pending:
    """One not-yet-completed task with its retry bookkeeping."""

    task: ShardTask
    attempt: int = 0  # attempts already consumed
    eligible_at: float = 0.0  # monotonic time before which it must wait


class WorkerPool:
    """A fixed-size set of persistent task workers.

    Thin lifecycle wrapper used by :class:`ShardScheduler`; exposed for
    tests and for callers that want raw pooled execution without the
    checkpoint/retry layer.
    """

    def __init__(
        self,
        jobs: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        if jobs < 1:
            raise ReproRuntimeError("a worker pool needs at least 1 worker")
        self.jobs = jobs
        self.initializer = initializer
        self.initargs = initargs
        self.workers: list[_Worker] = []

    def start(self, n: int | None = None) -> None:
        for _ in range(n if n is not None else self.jobs):
            self.workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        return _Worker(self.initializer, self.initargs)

    def replace(self, worker: _Worker) -> _Worker:
        """Kill ``worker`` and put a fresh process in its slot."""
        worker.stop()
        fresh = self._spawn()
        self.workers[self.workers.index(worker)] = fresh
        return fresh

    def stop(self) -> None:
        for worker in self.workers:
            worker.stop()
        self.workers.clear()

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ShardScheduler:
    """Run shard tasks resiliently under one :class:`RuntimeConfig`.

    Construction wires the journal and the event log: with a
    ``checkpoint_dir`` the journal is loaded in recovery mode when
    ``resume`` is set (undecodable entries are skipped, so their shards
    re-grade) and reset otherwise; the event log is the config's
    externally owned one when given, else a fresh log, either way
    writing next to the journal.
    """

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        jobs: int | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        self.config = config or RuntimeConfig()
        self.jobs = jobs if jobs is not None else max(1, self.config.jobs)
        self.initializer = initializer
        self.initargs = initargs
        self.checkpoint: CheckpointStore | None = None
        #: Journaled ``key -> {"fingerprint", "record"}`` available for
        #: reuse, kept current as this scheduler journals new shards.
        self._completed: dict[str, dict] = {}
        events_path = None
        if self.config.checkpoint_dir is not None:
            self.checkpoint = CheckpointStore(self.config.checkpoint_dir)
            if self.config.resume:
                self._completed = self.checkpoint.load(strict=False)
            else:
                self.checkpoint.reset()
            events_path = self.checkpoint.events_path
        if self.config.events is not None:
            # Externally owned log (the campaign service subscribes to it
            # before grading starts); give it the journal sink if it has
            # none of its own.
            self.events = self.config.events
            if self.events.path is None:
                self.events.path = events_path
        else:
            self.events = EventLog(path=events_path)

    # ------------------------------------------------------------- run

    def run(
        self,
        tasks: Sequence[ShardTask],
        serialize: Callable[[Any], dict] | None = None,
    ) -> dict[str, JobOutcome]:
        """Execute every task; never raises for per-shard failures.

        Args:
            serialize: result -> JSON-safe dict for the journal.  Without
                it, successes are journaled with an empty record.

        Returns:
            ``{task.key: JobOutcome}`` — ``cached`` (journaled result
            with a matching fingerprint reused), ``ok`` (graded in a pool
            worker, or in process when the config turns isolation off)
            or ``failed`` (attempts exhausted; only this shard is lost).

        Raises:
            CheckpointCorrupt: two tasks share a key.
            JobCancelled: the config's cancel hook fired; every shard
                not yet graded gets a ``cancelled`` event first.
        """
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            dup = sorted({k for k in keys if keys.count(k) > 1})
            raise CheckpointCorrupt(
                f"duplicate shard keys would collide in the journal: {dup}",
                key=dup[0],
                path=self.checkpoint.path if self.checkpoint else None,
            )
        outcomes: dict[str, JobOutcome] = {}
        pending: list[_Pending] = []
        for task in tasks:
            cached = self._completed.get(task.key)
            if cached is not None and cached["fingerprint"] == task.fingerprint:
                self.events.emit(
                    task.key, "cached", detail="journaled shard reused"
                )
                outcomes[task.key] = JobOutcome(
                    task.key, "cached", record=cached["record"]
                )
            else:
                pending.append(_Pending(task))
        if not pending:
            return outcomes
        if not self.config.isolate:
            self._run_in_process(pending, outcomes, serialize)
            return outcomes

        pool = WorkerPool(
            max(1, min(self.jobs, len(pending))),
            self.initializer, self.initargs,
        )
        pool.start()
        try:
            self._drive(pool, pending, outcomes, serialize)
        finally:
            # Also terminates busy workers when cancellation unwinds.
            pool.stop()
        return outcomes

    # ---------------------------------------------------------- loops

    def _run_in_process(self, pending, outcomes, serialize) -> None:
        """The in-process executor: one attempt at a time, FIFO."""
        while pending:
            now = time.monotonic()
            entry = self._next_eligible(pending, now) or min(
                pending, key=lambda p: p.eligible_at
            )
            delay = entry.eligible_at - now
            if delay > 0:
                self.config.sleep(delay)
            self._cancel_if_requested([], pending)
            pending.remove(entry)
            task = entry.task
            entry.attempt += 1
            self.events.emit(task.key, "start", attempt=entry.attempt)
            started = time.perf_counter()
            try:
                value = task.fn(*task.args)
            except Exception as exc:
                self._retry_or_fail(
                    entry, pending, outcomes, "failure",
                    f"shard {task.key!r} failed: "
                    f"{type(exc).__name__}: {exc}",
                )
            else:
                self._succeed(
                    entry, value, time.perf_counter() - started,
                    outcomes, serialize,
                )

    def _drive(self, pool, pending, outcomes, serialize) -> None:
        """The pool executor: keep every worker busy until done."""
        while pending or any(w.busy for w in pool.workers):
            self._cancel_if_requested(
                [w.pending.task.key for w in pool.workers if w.busy],
                pending,
            )
            now = time.monotonic()
            for worker in pool.workers:
                if worker.busy:
                    continue
                nxt = self._next_eligible(pending, now)
                if nxt is None:
                    break
                pending.remove(nxt)
                nxt.attempt += 1
                self.events.emit(nxt.task.key, "start", attempt=nxt.attempt)
                worker.dispatch(nxt, now)

            busy = [w for w in pool.workers if w.busy]
            if not busy:
                # Everything eligible is blocked on backoff.
                delay = min(p.eligible_at for p in pending) - time.monotonic()
                if self.config.cancel is not None:
                    delay = min(delay, self.CANCEL_POLL_SECONDS)
                if delay > 0:
                    self.config.sleep(delay)
                continue

            handles = []
            for worker in busy:
                handles.append(worker.conn)
                handles.append(worker.proc.sentinel)
            ready = set(
                connection.wait(
                    handles,
                    self._wait_timeout(busy, pending, len(pool.workers)),
                )
            )
            for worker in busy:
                if worker.conn in ready:
                    self._collect(worker, pool, pending, outcomes, serialize)
                elif worker.proc.sentinel in ready:
                    self._fail_attempt(
                        worker, pool, pending, outcomes, "crash",
                        f"worker for shard {worker.pending.task.key!r} "
                        f"died (exit code {_exit_code(worker.proc)})",
                    )
            budget = self.config.timeout_seconds
            if budget is not None:
                now = time.monotonic()
                for worker in pool.workers:
                    if worker.busy and now - worker.started >= budget:
                        self._fail_attempt(
                            worker, pool, pending, outcomes, "timeout",
                            f"shard {worker.pending.task.key!r} exceeded "
                            f"its {budget:g}s wall-clock budget",
                        )

    def _cancel_if_requested(self, running, pending) -> None:
        """Cooperative cancellation: once the hook fires, account for
        every shard not yet graded and raise :class:`JobCancelled`.

        Nothing is journaled for these shards, so a resumed run
        re-grades exactly them.
        """
        if not self.config.cancelled():
            return
        for key in running:
            self.events.emit(key, "cancelled", detail="shard abandoned mid-run")
        for entry in pending:
            self.events.emit(
                entry.task.key, "cancelled", detail="shard never started"
            )
        raise JobCancelled(running[0] if running else "")

    def _next_eligible(self, pending, now) -> _Pending | None:
        for entry in pending:
            if entry.eligible_at <= now:
                return entry
        return None

    #: Poll interval while a cancellation hook is armed: the scheduler
    #: may otherwise block in ``connection.wait`` for as long as the
    #: slowest shard runs, which would defer cancellation indefinitely.
    CANCEL_POLL_SECONDS = 0.25

    def _wait_timeout(self, busy, pending, n_workers) -> float | None:
        """How long ``connection.wait`` may block before the scheduler
        must wake up (per-shard deadline, a backoff expiring while a
        worker is idle, or the cancellation poll)."""
        candidates = []
        now = time.monotonic()
        if self.config.timeout_seconds is not None:
            candidates.extend(
                worker.started + self.config.timeout_seconds - now
                for worker in busy
            )
        if pending and len(busy) < n_workers:
            # A queued shard can only start on an idle worker.  With
            # every worker busy its ``eligible_at`` (0.0 unless backing
            # off) would clamp the wait to zero and spin this process.
            candidates.append(min(p.eligible_at for p in pending) - now)
        if self.config.cancel is not None:
            candidates.append(self.CANCEL_POLL_SECONDS)
        if not candidates:
            return None
        return max(0.0, min(candidates))

    # -------------------------------------------------------- outcomes

    def _collect(self, worker, pool, pending, outcomes, serialize) -> None:
        entry = worker.pending
        task = entry.task
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._fail_attempt(
                worker, pool, pending, outcomes, "crash",
                f"worker for shard {task.key!r} died "
                f"(exit code {_exit_code(worker.proc)})",
            )
            return
        worker.pending = None
        if message[0] == "ok":
            _, value, elapsed = message
            self._succeed(entry, value, elapsed, outcomes, serialize)
        else:
            _, exc_type, detail = message
            self._retry_or_fail(
                entry, pending, outcomes, "failure",
                f"shard {task.key!r} failed: {exc_type}: {detail}",
            )

    def _succeed(self, entry, value, elapsed, outcomes, serialize) -> None:
        """Record one successful attempt: event, journal, outcome."""
        task = entry.task
        throughput = task.size / elapsed if elapsed > 0 else None
        self.events.emit(
            task.key, "success", attempt=entry.attempt,
            duration=elapsed, throughput=throughput,
            detail=f"{task.size} fault classes",
        )
        record = serialize(value) if serialize is not None else {}
        if self.checkpoint is not None:
            self.checkpoint.append(task.key, record, task.fingerprint)
            self._completed[task.key] = {
                "fingerprint": task.fingerprint, "record": record,
            }
        outcomes[task.key] = JobOutcome(
            task.key, "ok", value=value, record=record or None,
            attempts=entry.attempt, elapsed=elapsed,
        )

    def _fail_attempt(
        self, worker, pool, pending, outcomes, kind, error
    ) -> None:
        """A worker died or overran its budget: replace it, and retry or
        degrade the one shard it was executing."""
        entry = worker.pending
        worker.pending = None
        pool.replace(worker)
        self._retry_or_fail(entry, pending, outcomes, kind, error)

    def _retry_or_fail(self, entry, pending, outcomes, kind, error) -> None:
        task = entry.task
        self.events.emit(
            task.key, kind, attempt=entry.attempt, detail=error,
        )
        policy = self.config.retry
        if entry.attempt < policy.max_attempts:
            delay = policy.delay_before_retry(entry.attempt)
            entry.eligible_at = time.monotonic() + delay
            pending.append(entry)
            self.events.emit(
                task.key, "retry", attempt=entry.attempt + 1,
                detail=f"backoff {delay:g}s",
            )
        else:
            self.events.emit(
                task.key, "degraded", attempt=entry.attempt, detail=error,
            )
            outcomes[task.key] = JobOutcome(
                task.key, "failed", attempts=entry.attempt, error=error,
            )
