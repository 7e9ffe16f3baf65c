"""Retry and runtime configuration for the resilient job runner."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable

from repro.errors import ReproRuntimeError
from repro.runtime.events import EventLog


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently a failed job is re-attempted.

    Attributes:
        max_attempts: total tries per job (1 = no retries).
        backoff_seconds: delay before the first retry.
        backoff_multiplier: growth factor per subsequent retry.
        max_backoff_seconds: upper clamp on any single delay.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.5
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproRuntimeError("max_attempts must be at least 1")
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ReproRuntimeError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ReproRuntimeError("backoff_multiplier must be >= 1")

    def delay_before_retry(self, failed_attempt: int) -> float:
        """Backoff delay after attempt ``failed_attempt`` (1-based) failed."""
        if failed_attempt < 1:
            raise ReproRuntimeError("attempt numbers are 1-based")
        delay = self.backoff_seconds * (
            self.backoff_multiplier ** (failed_attempt - 1)
        )
        return min(delay, self.max_backoff_seconds)


@dataclass
class RuntimeConfig:
    """Knobs for one resilient campaign run.

    Attributes:
        timeout_seconds: wall-clock budget per job attempt (None = no
            limit).  Enforced only for isolated jobs — an in-process job
            cannot be interrupted from the outside.
        retry: the retry/backoff policy.
        checkpoint_dir: directory for the crash-safe JSONL journal (and
            the event log); None disables checkpointing.
        resume: reuse journaled results from ``checkpoint_dir`` instead
            of starting the journal afresh.
        isolate: run each job in its own worker process.
        sleep: injectable sleep function (tests replace it to avoid
            real backoff waits).
        engine: fault-sim engine used by campaign jobs — ``"auto"`` or one
            of :func:`repro.faultsim.engine.engine_names`.  Validated
            lazily by the facade so this module stays independent of the
            fault simulator.
        jobs: worker-process count for the sharded parallel scheduler.
            ``1`` (the default) keeps the historical behaviour: grading
            jobs run one component at a time.  ``jobs > 1`` shards each
            component's fault universe over a persistent worker pool
            (see :mod:`repro.runtime.pool`); merged results are
            bit-identical to a sequential run.  With a timeout, the
            budget applies per *shard* attempt rather than per component.
        cancel: cooperative cancellation hook — a zero-argument callable
            polled by :class:`~repro.runtime.runner.JobRunner` before
            every job attempt and by
            :class:`~repro.runtime.pool.ShardScheduler` on every
            scheduler iteration.  Once it returns True the run raises
            :class:`~repro.errors.JobCancelled`; busy pool workers are
            killed, and everything journaled up to that point remains
            valid for ``resume``.  ``None`` (the default) never cancels.
            The hook is parent-side only: it is dropped when the config
            is pickled into a worker.
        events: an externally owned :class:`EventLog` the runner and
            scheduler emit into, so a caller (the campaign service) can
            :meth:`~EventLog.subscribe` *before* the campaign starts and
            stream every transition live.  ``None`` lets the runner
            create its own log as before.  Dropped on pickling, like
            ``cancel``.
    """

    timeout_seconds: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint_dir: str | Path | None = None
    resume: bool = False
    isolate: bool = True
    sleep: Callable[[float], None] = time.sleep
    engine: str = "auto"
    jobs: int = 1
    cancel: Callable[[], bool] | None = None
    events: EventLog | None = None

    def cancelled(self) -> bool:
        """True once the ``cancel`` hook reports cancellation."""
        return self.cancel is not None and bool(self.cancel())

    def __getstate__(self) -> dict:
        """Pickle without the parent-side hooks.

        Worker processes receive the config inside ``GradeOptions`` /
        shard contexts; cancellation and event observation are driven by
        the parent, so closures and live logs must not (and often could
        not) cross the process boundary.
        """
        state = self.__dict__.copy()
        state["cancel"] = None
        state["events"] = None
        return state

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ReproRuntimeError("timeout_seconds must be positive")
        if not self.engine or not isinstance(self.engine, str):
            raise ReproRuntimeError("engine must be a non-empty string")
        if self.resume and self.checkpoint_dir is None:
            raise ReproRuntimeError("resume requires a checkpoint_dir")
        if self.timeout_seconds is not None and not self.isolate:
            raise ReproRuntimeError(
                "timeouts require process isolation (isolate=True)"
            )
        if self.jobs < 1:
            raise ReproRuntimeError("jobs must be at least 1")
        if self.jobs > 1 and not self.isolate:
            raise ReproRuntimeError(
                "parallel grading (jobs > 1) requires process isolation "
                "(isolate=True): shards execute in pool workers"
            )
