"""The asynchronous campaign job manager.

One :class:`CampaignService` owns:

* a **priority queue** of :class:`CampaignJob`\\ s (lower ``priority``
  runs earlier; FIFO within a priority) drained by ``workers``
  concurrent executors — each executor runs one campaign at a time in a
  thread (``asyncio.to_thread``), and the campaign itself may shard its
  fault universes over the :mod:`repro.runtime.pool` worker processes
  (``request.jobs > 1``);
* **admission control** — a global queue cap and a per-tenant cap on
  active (queued + running) jobs; an over-limit submission raises
  :class:`QuotaExceeded`, which the HTTP layer turns into
  ``429 Retry-After``;
* **idempotency** — jobs are keyed by the deterministic content of the
  work: the self-test program source (itself a pure function of the
  phase configuration), the graded component subset and
  :meth:`GradeOptions.fingerprint` (the verdict-shaping knobs).  A
  duplicate submission *attaches* to the in-flight job — any tenant,
  same job id — and a submission matching a finished job replays its
  result immediately;
* **cancellation** — ``DELETE`` sets the job's cancel event; the
  runtime's :attr:`~repro.runtime.RuntimeConfig.cancel` hook raises
  :class:`~repro.errors.JobCancelled` between jobs / scheduler
  iterations, busy pool workers are killed, and the shard journal stays
  valid for a resubmission (the service checkpoints per job key);
* the **persistent store** — one shared
  :class:`~repro.faultsim.store.TraceStore` (when ``cache_dir`` is
  configured): an unchanged resubmission after a restart replays every
  component's verdicts from disk and reports ``cache_hit`` with zero
  re-simulated fault classes.

Everything here is loop-side state plus worker threads; the HTTP layer
(:mod:`repro.service.app`) holds no state of its own.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import heapq
import secrets
import threading
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import JobCancelled, ReproError
from repro.faultsim.store import TraceStore
from repro.reporting.tables import coverage_tables_json
from repro.runtime.events import EventLog
from repro.runtime.policy import RetryPolicy, RuntimeConfig
from repro.service.schemas import CampaignRequest
from repro.service.sse import event_payload

if TYPE_CHECKING:
    from repro.core.campaign import CampaignOutcome
    from repro.core.methodology import SelfTestProgram

    #: One live SSE subscription; ``None`` is the end-of-stream mark.
    EventQueue = asyncio.Queue["dict[str, object] | None"]

#: Job lifecycle states.  ``cancelling`` covers the window between the
#: DELETE and the grading thread observing the cancel hook.
JOB_STATES = (
    "queued", "running", "cancelling", "done", "failed", "cancelled",
)
TERMINAL_STATES = ("done", "failed", "cancelled")


class QuotaExceeded(ReproError):
    """Admission control rejected a submission (HTTP 429)."""

    def __init__(self, scope: str, limit: int, retry_after: int):
        self.scope = scope
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(
            f"{scope} is at its limit of {limit} active campaigns; "
            f"retry in {retry_after}s"
        )


@dataclass
class ServiceConfig:
    """Deployment knobs for one service instance.

    Attributes:
        host / port: bind address (``port=0`` = ephemeral; the bound
            port is printed on startup and returned by
            :meth:`~repro.service.app.ServiceServer.start`).
        workers: concurrent campaign executors.  Grading is CPU-bound
            and GIL-bound in-process, so the throughput lever is
            ``request.jobs`` (process-level shard workers), not this;
            more executors mainly help many small campaigns overlap.
        queue_limit: max *queued* jobs (running jobs don't count);
            submissions beyond it get 429 + ``Retry-After``.
        tenant_quota: max active (queued + running) jobs per tenant.
        max_jobs: upper bound on ``request.jobs`` accepted from clients.
        cache_dir: root of the persistent :class:`TraceStore` shared by
            every job (``None`` disables warm verdict replay).
        checkpoint_root: per-job shard journals live under
            ``<root>/<job key>``; a cancelled or crashed campaign's
            resubmission resumes from them (``None`` disables).
        timeout_seconds: per-attempt wall-clock budget, applied only to
            isolated (``jobs > 1``) campaigns.
        retries: attempts per job/shard before degrading.
        retry_after: the ``Retry-After`` hint (seconds) on 429s.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 1
    queue_limit: int = 16
    tenant_quota: int = 4
    max_jobs: int = 8
    cache_dir: str | Path | None = None
    checkpoint_root: str | Path | None = None
    timeout_seconds: float | None = None
    retries: int = 2
    retry_after: int = 5


@dataclass
class CampaignJob:
    """One submitted campaign and everything observable about it."""

    id: str
    key: str
    request: CampaignRequest
    state: str = "queued"
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    error: str = ""
    #: How many submissions resolved to this job (1 = never deduped).
    attached: int = 1
    #: Replayable SSE history (loop thread only).
    history: list[dict[str, object]] = field(default_factory=list)
    #: Live SSE subscriber queues (loop thread only).
    subscribers: set[EventQueue] = field(default_factory=set)
    #: The grading-side event stream; the service subscribes at creation.
    events: EventLog = field(default_factory=EventLog)
    #: Set by DELETE; polled by the runtime's cancel hook.
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: Final result payload (coverage tables etc.) once ``done``.
    result: dict[str, object] | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_payload(self) -> dict[str, object]:
        """The GET /v1/campaigns/{id} body."""
        payload: dict[str, object] = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "request": self.request.to_json(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "attached": self.attached,
            "n_events": len(self.history),
        }
        if self.error:
            payload["error"] = self.error
        if self.result is not None:
            payload.update(self.result)
        return payload


class CampaignService:
    """Owns the queue, the executors and every job's lifecycle.

    All public coroutines must run on the loop that :meth:`start` ran
    on; the HTTP layer guarantees that.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.jobs: dict[str, CampaignJob] = {}
        self.by_key: dict[str, CampaignJob] = {}
        self.store: TraceStore | None = (
            TraceStore(self.config.cache_dir)
            if self.config.cache_dir is not None else None
        )
        self.started_at = time.time()
        self.counters = {
            "submitted": 0, "attached": 0, "done": 0,
            "failed": 0, "cancelled": 0, "rejected": 0,
        }
        self._heap: list[tuple[int, int, CampaignJob]] = []
        self._seq = 0
        self._wakeup: asyncio.Condition | None = None
        self._executors: list[asyncio.Task[None]] = []
        self._busy = 0
        self._stopping = False
        self._loop: asyncio.AbstractEventLoop | None = None
        #: phases -> built self-test program (pure function of phases).
        self._programs: dict[str, SelfTestProgram] = {}

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Spawn the executor tasks on the current loop."""
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Condition()
        self._executors = [
            asyncio.create_task(self._executor(), name=f"campaign-exec-{i}")
            for i in range(max(0, self.config.workers))
        ]

    async def stop(self) -> None:
        """Cancel executors and mark every live job cancelled."""
        self._stopping = True
        for job in self.jobs.values():
            if not job.terminal:
                job.cancel_event.set()
        if self._wakeup is not None:
            async with self._wakeup:
                self._wakeup.notify_all()
        for task in self._executors:
            task.cancel()
        for task in self._executors:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._executors = []

    # --------------------------------------------------------- submission

    def _program_for(self, phases: str) -> SelfTestProgram:
        """Build (once) the deterministic self-test program for ``phases``."""
        program = self._programs.get(phases)
        if program is None:
            from repro.core.methodology import SelfTestMethodology

            program = SelfTestMethodology().build_program(phases)
            self._programs[phases] = program
        return program

    def job_key(self, request: CampaignRequest) -> str:
        """The idempotency key: a digest of the *work*, not the client.

        Hashes the self-test program source (a pure function of the
        phase configuration — the same determinism the checkpoint
        fingerprints rely on; the per-component store keys underneath
        additionally pin the structural/stimulus hashes), the graded
        component subset, and the verdict-shaping
        :meth:`GradeOptions.fingerprint`.  Engine, lane count, shard
        width, priority and tenant are deliberately excluded: verdicts
        are invariant under all of them, so submissions differing only
        there attach to the same job.
        """
        program = self._program_for(request.phases)
        digest = blake2b(digest_size=16)
        digest.update(request.phases.encode())
        digest.update(program.source.encode())
        digest.update(
            ",".join(request.components or ("*",)).encode()
        )
        digest.update(request.to_options().fingerprint().encode())
        digest.update(b"collapse" if request.collapse else b"")
        return digest.hexdigest()

    async def submit(
        self, request: CampaignRequest
    ) -> tuple[CampaignJob, bool]:
        """Admit one submission; returns ``(job, attached)``.

        Raises:
            QuotaExceeded: the queue is full or the tenant is at quota.
        """
        if request.jobs > self.config.max_jobs:
            request = dataclasses.replace(request, jobs=self.config.max_jobs)
        key = await asyncio.to_thread(self.job_key, request)
        existing = self.by_key.get(key)
        if existing is not None:
            existing.attached += 1
            self.counters["attached"] += 1
            return existing, True

        queued = sum(1 for j in self.jobs.values() if j.state == "queued")
        if queued >= self.config.queue_limit:
            self.counters["rejected"] += 1
            raise QuotaExceeded(
                "the service queue", self.config.queue_limit,
                self.config.retry_after,
            )
        active = sum(
            1 for j in self.jobs.values()
            if j.request.tenant == request.tenant and not j.terminal
        )
        if active >= self.config.tenant_quota:
            self.counters["rejected"] += 1
            raise QuotaExceeded(
                f"tenant {request.tenant!r}", self.config.tenant_quota,
                self.config.retry_after,
            )

        job = CampaignJob(
            id=f"c{secrets.token_hex(8)}",
            key=key,
            request=request,
        )
        self.jobs[job.id] = job
        self.by_key[key] = job
        self.counters["submitted"] += 1
        # Bridge grading-thread events onto the loop before anything can
        # be emitted, so SSE replay is complete by construction.
        if self._loop is None:
            raise RuntimeError("service not started (call start() first)")
        loop: asyncio.AbstractEventLoop = self._loop
        job.events.subscribe(
            lambda ev, job=job: loop.call_soon_threadsafe(
                self._publish, job, event_payload(ev)
            )
        )
        job.events.emit(
            job.id, "queued",
            detail=f"phases={request.phases} "
                   f"components={','.join(request.components or ('all',))} "
                   f"tenant={request.tenant}",
        )
        self._seq += 1
        heapq.heappush(self._heap, (request.priority, self._seq, job))
        assert self._wakeup is not None  # set by start()
        async with self._wakeup:
            self._wakeup.notify(1)
        return job, False

    # ------------------------------------------------------------- cancel

    async def cancel(self, job_id: str) -> CampaignJob | None:
        """Request cancellation; returns the job (None = unknown id)."""
        job = self.jobs.get(job_id)
        if job is None or job.terminal:
            return job
        job.cancel_event.set()
        if job.state == "queued":
            # Never started: finalize immediately (the heap entry is
            # skipped lazily when an executor pops it).
            self._finalize(job, "cancelled", error="cancelled while queued")
        elif job.state == "running":
            job.state = "cancelling"
            job.events.emit(
                job.id, "cancelled",
                detail="cancel requested; stopping workers",
            )
        return job

    # ---------------------------------------------------------- execution

    async def _executor(self) -> None:
        while not self._stopping:
            job = await self._next_job()
            if job is None:
                continue
            self._busy += 1
            try:
                await self._run(job)
            finally:
                self._busy -= 1

    async def _next_job(self) -> CampaignJob | None:
        assert self._wakeup is not None  # set by start()
        async with self._wakeup:
            while not self._heap and not self._stopping:
                await self._wakeup.wait()
            if self._stopping:
                return None
            _, _, job = heapq.heappop(self._heap)
        if job.state != "queued":
            return None  # cancelled while queued
        return job

    async def _run(self, job: CampaignJob) -> None:
        job.state = "running"
        job.started = time.time()
        job.events.emit(job.id, "running", detail="grading started")
        try:
            outcome = await asyncio.to_thread(self._execute, job)
        except JobCancelled as exc:
            self._finalize(job, "cancelled", error=str(exc))
        except ReproError as exc:
            self._finalize(job, "failed", error=str(exc))
        except Exception as exc:  # noqa: BLE001 - a job must never kill the service
            self._finalize(
                job, "failed", error=f"{type(exc).__name__}: {exc}"
            )
        else:
            job.result = self._result_payload(job, outcome)
            self._finalize(job, "done")

    def _execute(self, job: CampaignJob) -> CampaignOutcome:
        """Grade one campaign (worker thread).

        Jobs of one program share its traced CPU run
        (:func:`~repro.core.campaign.trace_program`).
        """
        from repro.core.campaign import grade_program

        request = job.request
        isolate = request.jobs > 1
        checkpoint_dir = None
        resume = False
        if self.config.checkpoint_root is not None:
            checkpoint_dir = Path(self.config.checkpoint_root) / job.key
            resume = (checkpoint_dir / "checkpoint.jsonl").exists()
        runtime = RuntimeConfig(
            timeout_seconds=(
                self.config.timeout_seconds if isolate else None
            ),
            retry=RetryPolicy(max_attempts=max(1, self.config.retries)),
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            isolate=isolate,
            jobs=request.jobs,
            cancel=job.cancel_event.is_set,
            events=job.events,
        )
        options = request.to_options(cache=self.store)
        return grade_program(
            self._program_for(request.phases),
            components=(
                list(request.components)
                if request.components is not None else None
            ),
            runtime=runtime,
            options=options,
        )

    def _result_payload(
        self, job: CampaignJob, outcome: CampaignOutcome
    ) -> dict[str, object]:
        """The JSON the client sees for a finished campaign."""
        graded = list(outcome.results)
        cache_hit = bool(graded) and set(outcome.cached_components) == set(
            graded
        )
        return {
            "cache_hit": cache_hit,
            "n_simulated": sum(
                r.n_simulated for r in outcome.results.values()
            ),
            "n_inferred": sum(
                r.n_inferred for r in outcome.results.values()
            ),
            "cached_components": list(outcome.cached_components),
            "degraded_components": list(outcome.degraded_components),
            "grading_seconds": dict(outcome.grading_seconds),
            "coverage": coverage_tables_json({job.request.phases: outcome}),
        }

    # ----------------------------------------------------------- plumbing

    def _finalize(self, job: CampaignJob, state: str, error: str = "") -> None:
        job.state = state
        job.error = error
        job.finished = time.time()
        self.counters[state] += 1
        if state != "done":
            # Only successful results replay idempotently; a failed or
            # cancelled key must be resubmittable (and will resume from
            # its journal when checkpointing is configured).
            self.by_key.pop(job.key, None)
        job.events.emit(
            job.id,
            "finished" if state == "done" else "cancelled"
            if state == "cancelled" else "failure",
            duration=(
                job.finished - job.started
                if job.started is not None else None
            ),
            detail=error or f"campaign {state}",
        )
        # Wake every SSE stream so it can observe the terminal state.
        if self._loop is not None:
            self._loop.call_soon(self._close_streams, job)

    def _publish(self, job: CampaignJob, payload: dict[str, object]) -> None:
        """Loop-side fan-out of one bridged event (replay + live)."""
        job.history.append(payload)
        for queue in list(job.subscribers):
            queue.put_nowait(payload)

    def _close_streams(self, job: CampaignJob) -> None:
        for queue in list(job.subscribers):
            queue.put_nowait(None)

    def open_stream(
        self, job: CampaignJob
    ) -> tuple[list[dict[str, object]], EventQueue]:
        """Begin one SSE subscription: ``(history snapshot, live queue)``.

        Loop-side only; the snapshot and the queue never overlap or gap
        because both are touched only from the loop thread.
        """
        queue: EventQueue = asyncio.Queue()
        history = list(job.history)
        if job.terminal:
            queue.put_nowait(None)
        else:
            job.subscribers.add(queue)
        return history, queue

    def close_stream(self, job: CampaignJob, queue: EventQueue) -> None:
        job.subscribers.discard(queue)

    # -------------------------------------------------------------- stats

    def stats_payload(self) -> dict[str, object]:
        """The GET /v1/stats body."""
        from repro.core.campaign import program_trace_memo

        queued = sum(1 for j in self.jobs.values() if j.state == "queued")
        running = sum(
            1 for j in self.jobs.values()
            if j.state in ("running", "cancelling")
        )
        tenants: dict[str, int] = {}
        for j in self.jobs.values():
            if not j.terminal:
                tenants[j.request.tenant] = (
                    tenants.get(j.request.tenant, 0) + 1
                )
        payload: dict[str, object] = {
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": queued,
            "queue_limit": self.config.queue_limit,
            "running": running,
            "workers": self.config.workers,
            "worker_utilization": (
                self._busy / self.config.workers
                if self.config.workers else 0.0
            ),
            "jobs": dict(self.counters),
            "tenants": tenants,
            # Process-wide: CPU runs, traced runs loaded from the store
            # and traced runs reused from memory.
            "programs": program_trace_memo().counts(),
            "store": None,
        }
        if self.store is not None:
            stats = self.store.stats
            lookups = stats.verdict_hits + stats.verdict_misses
            payload["store"] = {
                "root": str(self.store.root),
                "verdict_hits": stats.verdict_hits,
                "verdict_misses": stats.verdict_misses,
                "trace_hits": stats.trace_hits,
                "trace_misses": stats.trace_misses,
                "program_hits": stats.program_hits,
                "program_misses": stats.program_misses,
                "saves": stats.saves,
                "evictions": stats.evictions,
                "quarantined": stats.corrupt,
                "hit_rate": (
                    stats.verdict_hits / lookups if lookups else 0.0
                ),
            }
        return payload
