"""Structured per-job event log for campaign health auditing.

Every shard the scheduler touches emits a small, machine-readable event
stream (start / retry / success / failure / timeout / crash / cached /
degraded) with attempt numbers and wall-clock durations.  Benchmarks and
CI read the stream to decide whether a campaign ran clean, limped through
retries, or degraded.

The log is also a live feed: :meth:`EventLog.subscribe` registers a
callback invoked synchronously on every :meth:`EventLog.emit`, from
whichever thread emitted.  The campaign service tails a job's log this
way and re-publishes the events over Server-Sent Events; subscriber
errors are swallowed so an observer can never fail a campaign.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Event kinds in lifecycle order.  ``cached`` means the job was skipped
#: because a journaled result was reused; ``degraded`` means the job
#: permanently failed and the campaign continued without it.  The last
#: four kinds (``queued`` / ``running`` / ``finished`` / ``cancelled``)
#: are emitted by the campaign service for whole-campaign lifecycle
#: transitions; of these the shard scheduler emits only ``cancelled``,
#: once per shard a cancellation abandons.
EVENT_KINDS = (
    "start",
    "retry",
    "success",
    "failure",
    "timeout",
    "crash",
    "cached",
    "degraded",
    "queued",
    "running",
    "finished",
    "cancelled",
)


@dataclass
class JobEvent:
    """One line of the campaign health journal.

    ``throughput`` is populated by the sharded scheduler: work items
    (fault classes) graded per second for this job, so a scaling run can
    be audited shard by shard straight from the event log.
    """

    job: str
    kind: str
    attempt: int = 0
    duration: float | None = None
    detail: str = ""
    timestamp: float = 0.0
    throughput: float | None = None

    def to_json(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if v not in (None, "")}
        return json.dumps(payload, sort_keys=True)


@dataclass
class EventLog:
    """In-memory event list with an optional JSONL sink.

    The sink is append-only and flushed per event so a crashed campaign
    still leaves an auditable trail.
    """

    path: Path | None = None
    events: list[JobEvent] = field(default_factory=list)
    _subscribers: list[Callable[[JobEvent], None]] = field(
        default_factory=list, repr=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    # ------------------------------------------------------- subscription

    def subscribe(
        self, callback: Callable[[JobEvent], None]
    ) -> Callable[[JobEvent], None]:
        """Register a live observer, called once per emitted event.

        Callbacks run synchronously in the emitting thread (grading runs
        in worker threads under the service, so observers that touch an
        event loop must bridge via ``call_soon_threadsafe``).  A raising
        callback is ignored — observation can never fail a campaign.
        Returns the callback so it can be handed back to
        :meth:`unsubscribe`.
        """
        with self._lock:
            self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[JobEvent], None]) -> None:
        """Remove a subscriber; unknown callbacks are ignored."""
        with self._lock:
            with contextlib.suppress(ValueError):
                self._subscribers.remove(callback)

    def __getstate__(self) -> dict:
        """Pickle without live subscribers or the lock.

        The log is shipped to pool workers inside ``RuntimeConfig``;
        parent-side observers are process-local by definition.
        """
        state = self.__dict__.copy()
        state["_subscribers"] = []
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._subscribers = []
        self._lock = threading.Lock()

    def emit(
        self,
        job: str,
        kind: str,
        attempt: int = 0,
        duration: float | None = None,
        detail: str = "",
        throughput: float | None = None,
    ) -> JobEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = JobEvent(
            job=job, kind=kind, attempt=attempt, duration=duration,
            detail=detail, timestamp=time.time(), throughput=throughput,
        )
        self.events.append(event)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(event.to_json() + "\n")
                handle.flush()
        with self._lock:
            subscribers = list(self._subscribers)
        for callback in subscribers:
            with contextlib.suppress(Exception):
                callback(event)
        return event

    def for_job(self, job: str) -> list[JobEvent]:
        return [e for e in self.events if e.job == job]

    def kinds(self, job: str | None = None) -> list[str]:
        """Event-kind sequence, optionally filtered to one job."""
        events = self.events if job is None else self.for_job(job)
        return [e.kind for e in events]

    def summary(self) -> dict[str, int]:
        """Event counts per kind — the one-glance campaign health check."""
        counts = {kind: 0 for kind in EVENT_KINDS}
        for event in self.events:
            counts[event.kind] += 1
        return counts
