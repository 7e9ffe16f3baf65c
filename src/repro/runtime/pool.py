"""Persistent worker pool and the sharded campaign scheduler.

:mod:`repro.runtime.worker` isolates *one job per process* — perfect for
containing a crash, wasteful for throughput: every job pays a process
start plus a cold rebuild of everything the job needs.  This module adds
the throughput half of the runtime:

* :class:`WorkerPool` — ``jobs`` long-lived worker processes.  Each
  worker receives ``(fn, args)`` tasks over its own duplex pipe and keeps
  executing tasks until told to stop, so per-process state (built
  netlists, compiled engine kernels, good-trace caches) is paid once per
  worker and amortized over every shard it grades.
* :class:`ShardScheduler` — drives a list of
  :class:`~repro.runtime.sharding.ShardTask` through the pool with the
  same resilience contract as :class:`~repro.runtime.runner.JobRunner`:
  journaled shards are reused (``cached``), each attempt has a wall-clock
  budget, timeouts / crashes / job errors are retried with backoff, and a
  shard that exhausts its attempts yields a ``failed`` outcome instead of
  aborting the run.  Successes are journaled at shard granularity, so a
  resumed campaign skips exactly the shards that completed.

Load balancing is parent-driven: the scheduler keeps a FIFO of eligible
tasks and hands the next one to whichever worker goes idle first, so a
slow shard on one worker never stalls the rest of the queue
(oversubscription — more shards than workers — gives the queue room to
balance; see :func:`repro.runtime.sharding.plan_shards`).

A worker that times out or crashes is killed and **replaced**; only the
shard it was executing is affected (retried, then degraded), never the
shards other workers already completed.

The ``fork`` start method is preferred (workers inherit the parent's
memory, so the campaign context — traced stimulus, netlist transforms —
needs no pickling); under ``spawn`` the pool initializer and every task
must be picklable, mirroring :mod:`repro.runtime.worker`.
"""

from __future__ import annotations

import contextlib

import time
from dataclasses import dataclass
from multiprocessing import connection
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import CheckpointCorrupt, JobCancelled, ReproRuntimeError
from repro.runtime.policy import RuntimeConfig
from repro.runtime.runner import JobOutcome, JobRunner
from repro.runtime.sharding import ShardTask
from repro.runtime.worker import _CTX, _reap, run_child_init_hooks


def _pool_worker(conn, initializer, initargs) -> None:
    """Worker main loop: execute ``(fn, args)`` tasks until ``None``."""
    run_child_init_hooks()
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
    last_error: str = ""


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
    """Run shard tasks over a :class:`WorkerPool` with the resilience
    contract of :class:`~repro.runtime.runner.JobRunner`.

    The scheduler owns a :class:`JobRunner` for its checkpoint /
    event-log plumbing (journal loading honours ``resume``, records are
    fingerprint-guarded, malformed entries surface as
    :class:`~repro.errors.CheckpointCorrupt`).  With isolation on,
    execution is pooled rather than one-process-per-job; with
    ``isolate=False`` the runner executes the shards in process, one
    after another.
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
        self.runner = JobRunner(self.config)

    @property
    def events(self):
        """The structured event log (shared with the inner runner)."""
        return self.runner.events

    # ------------------------------------------------------------- run

    def run(
        self,
        tasks: Sequence[ShardTask],
        serialize: Callable[[Any], dict] | None = None,
    ) -> dict[str, JobOutcome]:
        """Execute every task; never raises for per-shard failures.

        Returns:
            ``{task.key: JobOutcome}`` — ``cached`` (journaled result
            reused), ``ok`` (graded in a pool worker, or in process when
            the config turns isolation off) or ``failed`` (attempts
            exhausted; only this shard is lost).
        """
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            dup = sorted({k for k in keys if keys.count(k) > 1})
            raise CheckpointCorrupt(
                f"duplicate shard keys would collide in the journal: {dup}",
                key=dup[0],
                path=getattr(self.runner.checkpoint, "path", None),
            )
        outcomes: dict[str, JobOutcome] = {}
        pending: list[_Pending] = []
        for task in tasks:
            try:
                record = self.runner.cached_record(task.key, task.fingerprint)
            except CheckpointCorrupt:
                # Journal entry unusable: distrust it and re-grade the
                # shard (the fresh record wins on the next resume).
                self.runner.invalidate(task.key)
                record = None
            if record is not None:
                self.events.emit(
                    task.key, "cached", detail="journaled shard reused"
                )
                outcomes[task.key] = JobOutcome(
                    task.key, "cached", record=record
                )
            else:
                pending.append(_Pending(task))
        if not pending:
            return outcomes
        if not self.config.isolate:
            # In process: the runner's own attempt loop stands in for the
            # pool (retries and degradation, no timeout).
            for entry in pending:
                task = entry.task
                outcomes[task.key] = self.runner.run(
                    task.key, task.fn, task.args,
                    fingerprint=task.fingerprint, serialize=serialize,
                )
            return outcomes

        pool = WorkerPool(
            max(1, min(self.jobs, len(pending))),
            self.initializer, self.initargs,
        )
        pool.start()
        try:
            self._drive(pool, pending, outcomes, serialize)
        finally:
            pool.stop()
        return outcomes

    # ----------------------------------------------------------- loop

    def _drive(self, pool, pending, outcomes, serialize) -> None:
        while pending or any(w.busy for w in pool.workers):
            if self.config.cancelled():
                # Cooperative cancellation: kill the busy workers (their
                # in-flight shards are abandoned, not journaled) and
                # surface JobCancelled.  Completed shards are already in
                # the journal, so a resumed run re-grades exactly the
                # abandoned + never-started ones.
                interrupted = [
                    w.pending.task.key for w in pool.workers if w.busy
                ]
                for key in interrupted:
                    self.events.emit(
                        key, "cancelled", detail="shard abandoned mid-run"
                    )
                for entry in pending:
                    self.events.emit(
                        entry.task.key, "cancelled",
                        detail="shard never started",
                    )
                pool.stop()  # terminates busy workers (SIGTERM, then KILL)
                raise JobCancelled(interrupted[0] if interrupted else "")
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
                connection.wait(handles, self._wait_timeout(busy, pending))
            )
            for worker in busy:
                if worker.conn in ready:
                    self._collect(worker, pool, pending, outcomes, serialize)
                elif worker.proc.sentinel in ready:
                    self._fail_attempt(
                        worker, pool, pending, outcomes, "crash",
                        f"worker for shard {worker.pending.task.key!r} "
                        f"died (exit code {worker.proc.exitcode})",
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

    def _next_eligible(self, pending, now) -> _Pending | None:
        for entry in pending:
            if entry.eligible_at <= now:
                return entry
        return None

    #: Poll interval while a cancellation hook is armed: the scheduler
    #: may otherwise block in ``connection.wait`` for as long as the
    #: slowest shard runs, which would defer cancellation indefinitely.
    CANCEL_POLL_SECONDS = 0.25

    def _wait_timeout(self, busy, pending) -> float | None:
        """How long ``connection.wait`` may block before the scheduler
        must wake up (per-shard deadline, a backoff expiring, or the
        cancellation poll)."""
        candidates = []
        now = time.monotonic()
        if self.config.timeout_seconds is not None:
            candidates.extend(
                worker.started + self.config.timeout_seconds - now
                for worker in busy
            )
        if pending:
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
                f"(exit code {worker.proc.exitcode})",
            )
            return
        if message[0] == "ok":
            _, value, elapsed = message
            worker.pending = None
            throughput = task.size / elapsed if elapsed > 0 else None
            self.events.emit(
                task.key, "success", attempt=entry.attempt,
                duration=elapsed, throughput=throughput,
                detail=f"{task.size} fault classes",
            )
            record = serialize(value) if serialize is not None else {}
            self.runner.journal(task.key, record, task.fingerprint)
            outcomes[task.key] = JobOutcome(
                task.key, "ok", value=value, record=record or None,
                attempts=entry.attempt, elapsed=elapsed,
            )
        else:
            _, exc_type, detail = message
            worker.pending = None
            self._retry_or_fail(
                entry, pending, outcomes, "failure",
                f"shard {task.key!r} failed: {exc_type}: {detail}",
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
        entry.last_error = error
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
