"""Unit tests for the shard scheduler's attempt loop: retry policy and
backoff, the checkpoint journal and the event log.

Each case drives :class:`ShardScheduler` with one task, on the executor
named by its config (``isolate=False`` runs in process).
"""

import os
import time

import pytest

from repro.errors import CheckpointCorrupt, ReproRuntimeError
from repro.runtime import RetryPolicy, RuntimeConfig, ShardScheduler, ShardTask


def _ok():
    return {"answer": 42}


def _boom():
    raise ValueError("boom")


def _journal_damage():
    raise CheckpointCorrupt("synthetic", key="j")


def _hangs():
    time.sleep(60)


def _flaky(counter_path, succeed_on):
    """Fail until the file-backed attempt counter reaches ``succeed_on``.

    File-backed because each attempt may run in a different worker
    process.
    """
    count = 1
    if os.path.exists(counter_path):
        with open(counter_path) as handle:
            count = int(handle.read()) + 1
    with open(counter_path, "w") as handle:
        handle.write(str(count))
    if count < succeed_on:
        raise RuntimeError(f"flaking on attempt {count}")
    return count


def _run(config, fn, args=(), fingerprint="", serialize=None, key="j"):
    """Run one task; return ``(scheduler, outcome)``."""
    scheduler = ShardScheduler(config)
    task = ShardTask(key=key, fn=fn, args=args, fingerprint=fingerprint,
                     size=7)
    return scheduler, scheduler.run([task], serialize=serialize)[key]


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_seconds=1.0, backoff_multiplier=2.0,
            max_backoff_seconds=5.0,
        )
        delays = [policy.delay_before_retry(a) for a in (1, 2, 3, 4)]
        assert delays == [1.0, 2.0, 4.0, 5.0]  # clamped at max

    def test_validation(self):
        with pytest.raises(ReproRuntimeError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproRuntimeError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ReproRuntimeError):
            RuntimeConfig(timeout_seconds=-1)
        with pytest.raises(ReproRuntimeError):
            RuntimeConfig(resume=True)  # needs checkpoint_dir
        with pytest.raises(ReproRuntimeError):
            RuntimeConfig(timeout_seconds=5, isolate=False)


class TestRunnerSuccess:
    def test_simple_success(self):
        scheduler, outcome = _run(RuntimeConfig(sleep=lambda s: None), _ok)
        assert outcome.status == "ok"
        assert outcome.value == {"answer": 42}
        assert outcome.attempts == 1
        assert scheduler.events.kinds("j") == ["start", "success"]

    def test_in_process_success(self):
        # Both executors emit the same success record: duration,
        # throughput and the shard's size.
        scheduler, outcome = _run(RuntimeConfig(isolate=False), _ok)
        assert outcome.value == {"answer": 42}
        (success,) = [e for e in scheduler.events.events
                      if e.kind == "success"]
        assert success.duration == pytest.approx(outcome.elapsed)
        assert success.throughput is not None and success.throughput > 0
        assert success.detail == "7 fault classes"


class TestRunnerRetry:
    def test_retry_until_success(self, tmp_path):
        counter = str(tmp_path / "count")
        scheduler, outcome = _run(
            RuntimeConfig(
                retry=RetryPolicy(max_attempts=3, backoff_seconds=0),
                sleep=lambda s: None,
            ),
            _flaky, (counter, 3),
        )
        assert outcome.status == "ok"
        assert outcome.value == 3
        assert outcome.attempts == 3
        assert scheduler.events.kinds("j") == [
            "start", "failure", "retry",
            "start", "failure", "retry",
            "start", "success",
        ]

    def test_backoff_delays_passed_to_sleep(self):
        slept = []
        _, outcome = _run(
            RuntimeConfig(
                isolate=False,
                retry=RetryPolicy(
                    max_attempts=3, backoff_seconds=0.5,
                    backoff_multiplier=2.0,
                ),
                sleep=slept.append,
            ),
            _boom,
        )
        assert outcome.failed
        # The wait left until the retry is eligible: the backoff less
        # the few microseconds spent between failure and wait.
        assert slept == pytest.approx([0.5, 1.0], abs=0.05)

    def test_permanent_failure_degrades(self):
        scheduler, outcome = _run(
            RuntimeConfig(
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0),
                sleep=lambda s: None,
            ),
            _boom,
        )
        assert outcome.failed
        assert outcome.attempts == 2
        assert "boom" in outcome.error
        assert scheduler.events.kinds("j")[-1] == "degraded"

    def test_timeout_then_degraded(self):
        scheduler, outcome = _run(
            RuntimeConfig(
                timeout_seconds=0.3,
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0),
                sleep=lambda s: None,
            ),
            _hangs, key="slow",
        )
        assert outcome.failed
        assert scheduler.events.kinds("slow") == [
            "start", "timeout", "retry", "start", "timeout", "degraded",
        ]

    def test_in_process_exception_wrapped(self):
        # Any exception a shard raises is one failed attempt, a library
        # runtime error included, exactly as a pool worker reports it.
        config = RuntimeConfig(
            isolate=False, retry=RetryPolicy(max_attempts=1),
        )
        _, outcome = _run(config, _boom)
        assert outcome.failed
        assert "ValueError: boom" in outcome.error
        _, outcome = _run(config, _journal_damage)
        assert outcome.failed
        assert "CheckpointCorrupt" in outcome.error


class TestRunnerCheckpoint:
    def _config(self, tmp_path, resume=False):
        return RuntimeConfig(
            checkpoint_dir=tmp_path, resume=resume, isolate=False,
            retry=RetryPolicy(max_attempts=1), sleep=lambda s: None,
        )

    def test_success_is_journaled_and_reused(self, tmp_path):
        _, first = _run(self._config(tmp_path), _ok, fingerprint="fp",
                        serialize=dict)
        assert first.status == "ok"

        resumed, cached = _run(
            self._config(tmp_path, resume=True), _boom, fingerprint="fp"
        )  # fn not re-run
        assert cached.status == "cached"
        assert cached.record == {"answer": 42}
        assert resumed.events.kinds("j") == ["cached"]

    def test_fingerprint_mismatch_reruns(self, tmp_path):
        _run(self._config(tmp_path), _ok, fingerprint="old", serialize=dict)

        resumed, outcome = _run(
            self._config(tmp_path, resume=True), _ok, fingerprint="new",
            serialize=dict,
        )
        assert outcome.status == "ok"  # stale journal entry not trusted
        assert resumed.events.kinds("j") == ["start", "success"]

    def test_no_resume_resets_journal(self, tmp_path):
        scheduler, _ = _run(self._config(tmp_path), _ok, serialize=dict)
        assert scheduler.checkpoint.path.exists()
        fresh = ShardScheduler(self._config(tmp_path, resume=False))
        assert not fresh.checkpoint.path.exists()
        assert not fresh.checkpoint.events_path.exists()
        outcome = fresh.run([ShardTask(key="j", fn=_ok)], serialize=dict)
        assert outcome["j"].status == "ok"

    def test_invalidate_forces_rerun(self, tmp_path):
        # A corrupt journal entry is distrusted on resume: counted, and
        # its shard graded again rather than replayed or fatal.
        scheduler, _ = _run(self._config(tmp_path), _ok, fingerprint="fp",
                            serialize=dict)
        journal = scheduler.checkpoint.path
        journal.write_text("CORRUPTED {{{\n")
        resumed, outcome = _run(
            self._config(tmp_path, resume=True), _ok, fingerprint="fp",
            serialize=dict,
        )
        assert resumed.checkpoint.corrupt_entries == 1
        assert outcome.status == "ok"
        assert resumed.events.kinds("j") == ["start", "success"]

    def test_events_written_to_jsonl(self, tmp_path):
        scheduler, _ = _run(self._config(tmp_path), _ok, serialize=dict)
        lines = scheduler.events.path.read_text().splitlines()
        assert len(lines) == 2  # start + success
        assert scheduler.events.summary()["success"] == 1
