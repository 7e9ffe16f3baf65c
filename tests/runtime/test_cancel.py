"""Cooperative cancellation and EventLog subscriptions.

The service's DELETE endpoint rides entirely on two runtime hooks —
``RuntimeConfig.cancel`` and ``EventLog.subscribe`` — so their
contracts are pinned here at the runtime level, deterministically
(hanging shards, not real campaigns):

* a fired cancel hook raises :class:`JobCancelled` out of the scheduler,
  on either executor, after a ``cancelled`` event for every shard not
  yet graded;
* busy pool workers are actually terminated, not abandoned;
* everything journaled before the cancellation resumes exactly;
* subscribers see every event, are dropped on pickle, and cannot break
  the emitter.
"""

import multiprocessing
import pickle
import time

import pytest

from repro.errors import JobCancelled
from repro.runtime import RetryPolicy, RuntimeConfig
from repro.runtime.events import EventLog
from repro.runtime.pool import ShardScheduler
from repro.runtime.sharding import ShardTask


def _config(tmp_path=None, resume=False, cancel=None, jobs=2, isolate=True):
    return RuntimeConfig(
        retry=RetryPolicy(max_attempts=2, backoff_seconds=0),
        checkpoint_dir=tmp_path,
        resume=resume,
        isolate=isolate,
        jobs=jobs,
        cancel=cancel,
        sleep=lambda s: None,
    )


# Module-level: shipped to workers by pickle reference.

def _fast(x):
    return x * x


def _hang(_x):
    time.sleep(120)


def _fails(_x):
    raise ValueError("attempt fails")


class TestSchedulerCancel:
    def test_cancel_mid_run_stops_workers_and_keeps_journal(self, tmp_path):
        # t00 completes and is journaled; the hook fires as soon as the
        # journal exists, while the remaining shards hang in workers.
        journal = tmp_path / "checkpoint.jsonl"
        tasks = [ShardTask(key="t00", fn=_fast, args=(3,), size=1)] + [
            ShardTask(key=f"t{i:02d}", fn=_hang, args=(i,), size=1)
            for i in range(1, 4)
        ]
        scheduler = ShardScheduler(
            _config(tmp_path, cancel=journal.exists, jobs=2)
        )
        started = time.monotonic()
        with pytest.raises(JobCancelled):
            scheduler.run(tasks)
        # Cooperative, but prompt: the armed hook caps scheduler waits
        # at CANCEL_POLL_SECONDS, so nothing waited for the 120s hangs.
        assert time.monotonic() - started < 30
        # Workers actually stopped — no pool children left behind.
        assert multiprocessing.active_children() == []
        # The completed shard was journaled before the cancellation and
        # is replayed (not re-run) by a resumed scheduler.
        assert journal.exists()
        resumed = ShardScheduler(_config(tmp_path, resume=True, jobs=2))
        outcomes = resumed.run(
            [ShardTask(key=f"t{i:02d}", fn=_fast, args=(i,), size=1)
             for i in range(4)]
        )
        assert outcomes["t00"].status == "cached"
        assert all(outcomes[f"t{i:02d}"].status == "ok" for i in (1, 2, 3))

    def test_cancelled_shards_emit_events(self, tmp_path):
        journal = tmp_path / "checkpoint.jsonl"
        tasks = [ShardTask(key="t00", fn=_fast, args=(2,), size=1)] + [
            ShardTask(key=f"t{i:02d}", fn=_hang, args=(i,), size=1)
            for i in range(1, 4)
        ]
        scheduler = ShardScheduler(
            _config(tmp_path, cancel=journal.exists, jobs=2)
        )
        with pytest.raises(JobCancelled):
            scheduler.run(tasks)
        kinds = scheduler.events.kinds()
        assert "cancelled" in kinds
        # Busy and never-started shards are both accounted for.
        details = [e.detail for e in scheduler.events.events
                   if e.kind == "cancelled"]
        assert any("mid-run" in d for d in details)
        assert any("never started" in d for d in details)

    def test_no_cancel_hook_runs_to_completion(self, tmp_path):
        scheduler = ShardScheduler(_config(tmp_path, jobs=2))
        outcomes = scheduler.run(
            [ShardTask(key=f"t{i}", fn=_fast, args=(i,), size=1)
             for i in range(4)]
        )
        assert all(o.status == "ok" for o in outcomes.values())


class TestRunnerCancel:
    def test_cancel_before_start(self, tmp_path):
        scheduler = ShardScheduler(
            _config(tmp_path, cancel=lambda: True, jobs=1)
        )
        with pytest.raises(JobCancelled):
            scheduler.run([ShardTask(key="job", fn=_fast, args=(2,))])
        assert scheduler.events.kinds() == ["cancelled"]

    def test_cancel_between_attempts(self, tmp_path):
        # Arm the hook from the backoff sleep after the first (failing)
        # attempt: the scheduler must cancel instead of retrying.
        fired = []
        config = RuntimeConfig(
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.05),
            checkpoint_dir=tmp_path,
            isolate=True,
            cancel=lambda: bool(fired),
            sleep=fired.append,
        )
        scheduler = ShardScheduler(config)
        with pytest.raises(JobCancelled):
            scheduler.run([ShardTask(key="job", fn=_fails, args=(1,))])
        kinds = scheduler.events.kinds()
        assert "failure" in kinds and "cancelled" in kinds
        assert kinds.count("start") < 3

    def test_in_process_cancel_reports_every_abandoned_shard(self, tmp_path):
        # The hook fires once the first of three shards is journaled;
        # the two still queued are reported and later resumed.
        journal = tmp_path / "checkpoint.jsonl"
        tasks = [
            ShardTask(key=f"t{i:02d}", fn=_fast, args=(i,), size=1)
            for i in range(3)
        ]
        scheduler = ShardScheduler(
            _config(tmp_path, cancel=journal.exists, jobs=1, isolate=False)
        )
        with pytest.raises(JobCancelled):
            scheduler.run(tasks, serialize=lambda v: {"value": v})
        never = [e.job for e in scheduler.events.events
                 if e.kind == "cancelled" and "never started" in e.detail]
        assert never == ["t01", "t02"]

        scheduler = ShardScheduler(
            _config(tmp_path, resume=True, jobs=1, isolate=False)
        )
        outcomes = scheduler.run(tasks, serialize=lambda v: {"value": v})
        assert outcomes["t00"].status == "cached"
        started = [e.job for e in scheduler.events.events
                   if e.kind == "start"]
        assert started == ["t01", "t02"]


class TestConfigPickling:
    def test_cancel_and_events_dropped_on_pickle(self):
        config = RuntimeConfig(
            cancel=lambda: True, events=EventLog(), isolate=True
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone.cancel is None
        assert clone.events is None
        assert clone.cancelled() is False
        assert config.cancelled() is True


class TestEventLogSubscribe:
    def test_subscriber_sees_events(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit("j", "start")
        log.emit("j", "success")
        assert [e.kind for e in seen] == ["start", "success"]

    def test_unsubscribe(self):
        log = EventLog()
        seen = []
        callback = log.subscribe(seen.append)
        log.emit("j", "start")
        log.unsubscribe(callback)
        log.emit("j", "success")
        assert [e.kind for e in seen] == ["start"]
        # Unsubscribing twice is harmless.
        log.unsubscribe(callback)

    def test_broken_subscriber_cannot_fail_emit(self):
        log = EventLog()

        def broken(_event):
            raise RuntimeError("subscriber bug")

        log.subscribe(broken)
        event = log.emit("j", "start")
        assert event.kind == "start"
        assert log.kinds() == ["start"]

    def test_subscribers_dropped_on_pickle(self):
        log = EventLog()
        log.subscribe(lambda e: None)
        log.emit("j", "start")
        clone = pickle.loads(pickle.dumps(log))
        assert clone.kinds() == ["start"]
        # The clone has a fresh, working subscription mechanism.
        seen = []
        clone.subscribe(seen.append)
        clone.emit("j", "success")
        assert [e.kind for e in seen] == ["success"]

    def test_service_lifecycle_kinds_are_valid(self):
        log = EventLog()
        for kind in ("queued", "running", "finished", "cancelled"):
            log.emit("j", kind)
        assert log.summary()["queued"] == 1
