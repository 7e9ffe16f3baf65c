"""Unit tests for running one shard in a process-isolated pool worker.

Each case grades a single task on a one-worker :class:`ShardScheduler`
and checks how the worker's result, exception, overrun or death is
reported: as the task's outcome and as its event record.
"""

import os
import time

import pytest

from repro.runtime import RetryPolicy, RuntimeConfig, ShardScheduler, ShardTask


def _double(x):
    return x * 2


def _raises():
    raise ValueError("inner boom")


def _hangs():
    time.sleep(60)


def _hard_exit():
    os._exit(9)


def _run_in_worker(fn, args=(), timeout=None, job="j"):
    """Grade one task in a pool worker, once; return ``(scheduler, outcome)``."""
    config = RuntimeConfig(
        timeout_seconds=timeout, isolate=True, jobs=1,
        retry=RetryPolicy(max_attempts=1), sleep=lambda s: None,
    )
    scheduler = ShardScheduler(config, jobs=1)
    outcomes = scheduler.run([ShardTask(key=job, fn=fn, args=args)])
    return scheduler, outcomes[job]


class TestRunInWorker:
    def test_returns_result(self):
        scheduler, outcome = _run_in_worker(_double, (21,))
        assert outcome.status == "ok"
        assert outcome.value == 42
        assert scheduler.events.kinds("j") == ["start", "success"]

    def test_exception_becomes_job_failed(self):
        scheduler, outcome = _run_in_worker(_raises, job="myjob")
        assert outcome.failed
        assert "ValueError" in outcome.error
        assert "inner boom" in outcome.error
        assert "myjob" in outcome.error
        assert scheduler.events.kinds("myjob") == [
            "start", "failure", "degraded",
        ]

    def test_timeout_raises_grading_timeout(self):
        started = time.monotonic()
        scheduler, outcome = _run_in_worker(_hangs, timeout=0.3, job="slow")
        assert time.monotonic() - started < 10
        assert outcome.failed
        assert "'slow'" in outcome.error
        assert "0.3s" in outcome.error
        assert scheduler.events.kinds("slow") == [
            "start", "timeout", "degraded",
        ]

    def test_silent_death_raises_worker_crash(self):
        scheduler, outcome = _run_in_worker(_hard_exit, job="dying")
        assert outcome.failed
        assert "exit code 9" in outcome.error
        assert scheduler.events.kinds("dying") == [
            "start", "crash", "degraded",
        ]
