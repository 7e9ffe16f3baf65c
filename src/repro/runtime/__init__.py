"""Resilient campaign runtime: isolation, timeouts, retries, checkpoints.

The fault-grading campaign is the longest-running path in the repro; this
package contains the failure-containment machinery that keeps it alive:

* :mod:`repro.runtime.pool` — the :class:`ShardScheduler`, the one
  executor of shards: checkpoint reuse, one attempt loop with retries
  and backoff, graceful degradation, cancellation — over the persistent
  :class:`WorkerPool` (wall-clock timeouts, crash containment) or in
  process;
* :mod:`repro.runtime.policy` — retry/backoff policy and the runtime
  configuration knobs;
* :mod:`repro.runtime.checkpoint` — crash-safe JSONL journal enabling
  ``--resume`` after an interruption;
* :mod:`repro.runtime.events` — structured per-shard event log for
  campaign health auditing;
* :mod:`repro.runtime.sharding` — fault-range shard planning, the
  :class:`ShardTask` unit of work and its :class:`JobOutcome`.
"""

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.events import EventLog, JobEvent
from repro.runtime.policy import RetryPolicy, RuntimeConfig
from repro.runtime.pool import ShardScheduler, WorkerPool
from repro.runtime.sharding import JobOutcome, ShardTask, plan_shards

__all__ = [
    "CheckpointStore",
    "EventLog",
    "JobEvent",
    "JobOutcome",
    "RetryPolicy",
    "RuntimeConfig",
    "ShardScheduler",
    "ShardTask",
    "WorkerPool",
    "plan_shards",
]
