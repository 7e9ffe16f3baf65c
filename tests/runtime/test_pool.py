"""Unit tests for the persistent worker pool and the shard scheduler."""

import os
import time

import pytest

from repro.errors import CheckpointCorrupt
from repro.runtime import RetryPolicy, RuntimeConfig
from repro.runtime.pool import ShardScheduler, WorkerPool
from repro.runtime.sharding import ShardTask


def _config(tmp_path=None, resume=False, attempts=2, timeout=None, jobs=2,
            isolate=True):
    return RuntimeConfig(
        timeout_seconds=timeout,
        retry=RetryPolicy(max_attempts=attempts, backoff_seconds=0),
        checkpoint_dir=tmp_path,
        resume=resume,
        isolate=isolate,
        jobs=jobs if isolate else 1,
        sleep=lambda s: None,
    )


# Task functions must be module-level: they travel to workers by pickle
# reference over the dispatch pipe.

def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _die(_x):
    os._exit(9)


def _hang(_x):
    time.sleep(60)


def _nap(_x):
    time.sleep(0.4)
    return _x


def _die_once(flag_path):
    """Crash the worker on the first attempt, succeed on the second."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("seen")
            handle.flush()
            os.fsync(handle.fileno())
        os._exit(9)
    return "recovered"


_INIT_VALUE = None


def _install(value):
    global _INIT_VALUE
    _INIT_VALUE = value


def _read_init(_x):
    return _INIT_VALUE


def _tasks(fn, n=6, size=10):
    return [
        ShardTask(key=f"t{i:02d}", fn=fn, args=(i,), size=size)
        for i in range(n)
    ]


class TestWorkerPool:
    def test_lifecycle(self):
        with WorkerPool(2) as pool:
            assert len(pool.workers) == 2
            assert all(w.proc.is_alive() for w in pool.workers)
            first = pool.workers[0]
            fresh = pool.replace(first)
            assert fresh is pool.workers[0]
            assert not first.proc.is_alive()
            assert fresh.proc.is_alive()
        assert pool.workers == []

    def test_rejects_zero_workers(self):
        from repro.errors import ReproRuntimeError

        with pytest.raises(ReproRuntimeError):
            WorkerPool(0)


class _AttemptLoopCases:
    """Cases both executors must pass: one attempt loop, one journal."""

    isolate = True

    def _config(self, tmp_path=None, **kwargs):
        return _config(tmp_path, isolate=self.isolate, **kwargs)

    def test_job_error_retries_then_degrades(self):
        scheduler = ShardScheduler(self._config(attempts=2), jobs=2)
        outcomes = scheduler.run(_tasks(_boom, n=2))
        assert all(o.status == "failed" for o in outcomes.values())
        assert all(o.attempts == 2 for o in outcomes.values())
        assert "boom" in outcomes["t00"].error
        kinds = [e.kind for e in scheduler.events.events if e.job == "t00"]
        assert kinds == [
            "start", "failure", "retry", "start", "failure", "degraded",
        ]

    def test_checkpoint_reuse(self, tmp_path):
        tasks = [
            ShardTask(key=f"t{i}", fn=_square, args=(i,), fingerprint="fp")
            for i in range(4)
        ]
        first = ShardScheduler(self._config(tmp_path), jobs=2)
        first.run(tasks, serialize=lambda v: {"value": v})
        second = ShardScheduler(self._config(tmp_path, resume=True), jobs=2)
        outcomes = second.run(tasks, serialize=lambda v: {"value": v})
        assert all(o.status == "cached" for o in outcomes.values())
        assert outcomes["t3"].record == {"value": 9}
        assert [e.kind for e in second.events.events] == ["cached"] * 4

    def test_stale_fingerprint_regrades(self, tmp_path):
        tasks = [
            ShardTask(key="t0", fn=_square, args=(3,), fingerprint="old")
        ]
        ShardScheduler(self._config(tmp_path), jobs=1).run(
            tasks, serialize=lambda v: {"value": v}
        )
        fresh = [
            ShardTask(key="t0", fn=_square, args=(4,), fingerprint="new")
        ]
        outcomes = ShardScheduler(
            self._config(tmp_path, resume=True), jobs=1
        ).run(fresh, serialize=lambda v: {"value": v})
        assert outcomes["t0"].status == "ok"
        assert outcomes["t0"].value == 16


class TestShardScheduler(_AttemptLoopCases):
    def test_executes_all_tasks(self):
        scheduler = ShardScheduler(_config(), jobs=2)
        outcomes = scheduler.run(_tasks(_square))
        assert len(outcomes) == 6
        assert all(o.status == "ok" for o in outcomes.values())
        assert outcomes["t03"].value == 9
        successes = [e for e in scheduler.events.events if e.kind == "success"]
        assert len(successes) == 6
        assert all(
            e.throughput is None or e.throughput > 0 for e in successes
        )

    def test_worker_initializer(self):
        scheduler = ShardScheduler(
            _config(), jobs=2, initializer=_install, initargs=("hello",)
        )
        outcomes = scheduler.run(_tasks(_read_init, n=4))
        assert all(o.value == "hello" for o in outcomes.values())

    def test_duplicate_keys_rejected(self):
        scheduler = ShardScheduler(_config(), jobs=2)
        dup = [
            ShardTask(key="same", fn=_square, args=(1,)),
            ShardTask(key="same", fn=_square, args=(2,)),
        ]
        with pytest.raises(CheckpointCorrupt) as excinfo:
            scheduler.run(dup)
        assert excinfo.value.key == "same"

    def test_crash_affects_only_its_shard(self):
        tasks = _tasks(_square, n=5) + [
            ShardTask(key="killer", fn=_die, args=(0,))
        ]
        scheduler = ShardScheduler(_config(attempts=2), jobs=2)
        outcomes = scheduler.run(tasks)
        assert outcomes["killer"].status == "failed"
        for i in range(5):
            assert outcomes[f"t{i:02d}"].status == "ok"
        crash_kinds = [
            e.kind for e in scheduler.events.events if e.job == "killer"
        ]
        assert crash_kinds == [
            "start", "crash", "retry", "start", "crash", "degraded",
        ]

    def test_crashed_worker_is_replaced_and_recovers(self, tmp_path):
        flag = str(tmp_path / "seen")
        tasks = [ShardTask(key="flaky", fn=_die_once, args=(flag,))]
        scheduler = ShardScheduler(_config(attempts=3, jobs=1), jobs=1)
        outcomes = scheduler.run(tasks)
        assert outcomes["flaky"].status == "ok"
        assert outcomes["flaky"].value == "recovered"
        assert outcomes["flaky"].attempts == 2

    def test_timeout_kills_only_the_slow_shard(self):
        tasks = [ShardTask(key="slow", fn=_hang, args=(0,))] + _tasks(
            _square, n=3
        )
        scheduler = ShardScheduler(
            _config(attempts=1, timeout=0.5), jobs=2
        )
        outcomes = scheduler.run(tasks)
        assert outcomes["slow"].status == "failed"
        assert "budget" in outcomes["slow"].error
        for i in range(3):
            assert outcomes[f"t{i:02d}"].status == "ok"
        kinds = [e.kind for e in scheduler.events.events if e.job == "slow"]
        assert kinds == ["start", "timeout", "degraded"]


    def test_parent_sleeps_while_every_worker_is_busy(self):
        # Four shards on two workers: two stay queued while both workers
        # run.  The parent must block in ``connection.wait``, not poll.
        scheduler = ShardScheduler(_config(), jobs=2)
        wall = time.perf_counter()
        cpu = time.process_time()
        outcomes = scheduler.run(_tasks(_nap, n=4))
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        assert all(o.status == "ok" for o in outcomes.values())
        assert wall >= 0.8
        assert cpu < 0.1 * wall, f"parent used {cpu:.2f}s CPU in {wall:.2f}s"


class TestInProcessScheduler(_AttemptLoopCases):
    """The same cases on the ``isolate=False`` executor."""

    isolate = False
