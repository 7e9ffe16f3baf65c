"""Fault-universe sharding for parallel grading campaigns.

A *shard* is a contiguous index range ``[lo, hi)`` into a component's
ordered grading universe: the canonical list of fault-class
representatives
(:meth:`repro.faultsim.faults.FaultList.class_representatives`), or —
when the campaign grades through the structural collapse map — the
super-class simulation order
(:meth:`repro.analysis.collapse.CollapseMap.simulation_order`).  Either
way shards partition the universe exactly — every unit belongs to one
and only one shard — so grading each shard independently and taking the
union of the per-shard verdicts reconstructs the sequential result
(stuck-at verdicts are per-fault properties; see DESIGN.md §11 for the
determinism argument).  Collapsed universes put each dominance cluster
inside a single contiguous run, so most inferences stay shard-local; a
dominator whose children landed in another shard is simply simulated
directly (same verdict, slightly less savings).

:func:`plan_shards` sizes the partition for a worker pool:

* **oversubscription** — more shards than workers (default 3x) so a slow
  shard or an uneven component mix still load-balances through the shared
  work queue;
* **a minimum shard size** — below ~tens of fault classes the per-shard
  dispatch/merge overhead dominates the grading itself, so small
  components stay in one shard;
* **balanced ranges** — shard sizes differ by at most one class (before
  optional lane alignment), and the plan is a pure function of its
  arguments so two runs of the same campaign produce identical shard
  keys (checkpoint/resume relies on it);
* **lane alignment** — packed-engine campaigns snap interior boundaries
  to the engine's faults-per-word so no shard wastes lanes in its last
  big-int word.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

from repro.errors import ReproRuntimeError

#: Shards per worker: enough slack for the queue to balance load without
#: drowning the run in per-shard overhead.
DEFAULT_OVERSUBSCRIPTION = 3

#: Smallest worthwhile shard, in fault classes.  Dispatch + merge cost a
#: few milliseconds per shard; a shard should carry clearly more grading
#: work than that.
MIN_SHARD_SIZE = 64


def plan_shards(
    n_items: int,
    jobs: int,
    oversubscription: int = DEFAULT_OVERSUBSCRIPTION,
    min_shard_size: int = MIN_SHARD_SIZE,
    lane_align: int = 1,
) -> list[tuple[int, int]]:
    """Partition ``n_items`` work items into contiguous shard ranges.

    Args:
        n_items: total number of work items (fault-class representatives,
            or super-class simulation units when collapsing).
        jobs: worker count the plan targets; ``jobs <= 1`` yields a
            single shard covering everything.
        oversubscription: target shards per worker.
        min_shard_size: floor on the size of any shard (except when
            ``n_items`` itself is smaller).
        lane_align: snap interior shard boundaries to multiples of this
            (e.g. the packed engine's faults-per-word) so every word a
            worker builds is fully occupied.  Purely a throughput knob:
            verdicts are per-fault properties, identical under any
            partition.  Boundaries snap to the nearest multiple;
            collapsing boundaries merge their shards.

    Returns:
        Ordered, disjoint, exhaustive ``(lo, hi)`` half-open ranges.
    """
    if jobs < 1:
        raise ReproRuntimeError("jobs must be at least 1")
    if min_shard_size < 1:
        raise ReproRuntimeError("min_shard_size must be at least 1")
    if oversubscription < 1:
        raise ReproRuntimeError("oversubscription must be at least 1")
    if lane_align < 1:
        raise ReproRuntimeError("lane_align must be at least 1")
    if n_items <= 0:
        return []
    if jobs == 1 or n_items <= min_shard_size:
        return [(0, n_items)]
    n_shards = min(jobs * oversubscription, n_items // min_shard_size)
    n_shards = max(n_shards, 1)
    base, extra = divmod(n_items, n_shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for index in range(n_shards):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    if lane_align > 1 and len(ranges) > 1:
        edges = {0, n_items}
        for _lo, hi in ranges[:-1]:
            snapped = (hi + lane_align // 2) // lane_align * lane_align
            if 0 < snapped < n_items:
                edges.add(snapped)
        ordered = sorted(edges)
        ranges = list(zip(ordered[:-1], ordered[1:], strict=False))
    return ranges


@dataclass(frozen=True)
class ShardTask:
    """One unit of work for the :class:`~repro.runtime.pool.ShardScheduler`.

    Attributes:
        key: stable identity, used for checkpoint lookup and event-log
            job labels (e.g. ``"A:ALU#01/06"``).
        fn: module-level callable executed in a pool worker.  It must be
            picklable by reference (workers receive it over a pipe).
        args: positional arguments (picklable).
        fingerprint: configuration hash guarding checkpoint reuse: a
            journaled record is reused only when its fingerprint matches
            (stale journals from a different program/config re-grade).
        size: number of work items the task covers (fault classes);
            used for the per-shard throughput records in the event log.
    """

    key: str
    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    fingerprint: str = ""
    size: int = 0


@dataclass
class JobOutcome:
    """What happened to one :class:`ShardTask`.

    Attributes:
        key: the task's stable identity.
        status: ``"ok"`` (ran and succeeded), ``"cached"`` (journaled
            result reused) or ``"failed"`` (attempts exhausted).
        value: the task's return value (``ok`` only).
        record: the serialized record (``ok`` when a serializer is
            configured, and always for ``cached``).
        attempts: how many attempts ran (0 for ``cached``).
        elapsed: wall-clock seconds of the successful attempt.
        error: human-readable description of the final failure.
    """

    key: str
    status: str
    value: Any = None
    record: dict[str, Any] | None = None
    attempts: int = 0
    elapsed: float = 0.0
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "failed"
