"""Sharded fault-grading: the shard job and the merge.

Every campaign grades through this module: ``grade_traced`` splits each
component's fault universe into contiguous shards
(:func:`repro.runtime.sharding.plan_shards`; one shard per component at
``jobs=1``), runs them in process or over the persistent worker pool
(:mod:`repro.runtime.pool`) and merges the verdicts.  The pieces:

* a **campaign context** — the traced per-component
  stimulus/observability, the netlist transform and the grading options —
  installed in the thread that grades shards: the campaign's own thread
  in process, every pool worker otherwise.  Forked workers inherit it by
  memory, so multi-megabyte traces are never pickled; under ``spawn`` the
  pool initializer ships it (then the transform must be picklable).
* the **shard job** (:func:`grade_shard`): one slice of a component's
  :class:`~repro.faultsim.engine.PreparedGrade`, held by the context.  In
  process the campaign planner's prepared grade is the one the shards
  use, released once the component is merged; a pool worker prepares
  its own on the component's first shard and keeps one component at a
  time.  The collapse map, engine and prune set are therefore built
  once per process and component, and every shard only pays for its own
  faults.
* the **deterministic merge** (:func:`merge_shard_results`): shard
  verdicts are per-fault properties, so the merged
  :class:`~repro.faultsim.harness.CampaignResult` is the plain union of
  the shard verdict sets, independent of completion order, and
  bit-identical to a single-shard grade (DESIGN.md §11).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.errors import CheckpointCorrupt
from repro.faultsim.differential import Detection
from repro.faultsim.engine import PreparedGrade, Stimulus
from repro.faultsim.faults import FaultList
from repro.faultsim.harness import CampaignResult
from repro.faultsim.observe import ObserveSpec
from repro.faultsim.options import GradeOptions
from repro.netlist.netlist import Netlist
from repro.plasma.components import component, component_netlist


@dataclass
class ShardContext:
    """Everything a grading thread needs to grade any shard of the campaign.

    Attributes:
        stimulus: per component name, the traced input patterns/cycles.
        observe: per component name, the taint-derived observability spec.
        netlist_transform: optional netlist rewrite (e.g. tech remap).
        options: the campaign's consolidated
            :class:`~repro.faultsim.options.GradeOptions` — engine
            choice, pruning mode, collapse request, packed lane width
            and the persistent store.  ``collapse_requested`` makes
            shards slice the super-class simulation order instead of
            the base class list; verdicts expand to every member, so
            the merge and coverage are unchanged.
        components: the prepared grades shards in this process use, by
            component name.
    """

    stimulus: Mapping[str, Stimulus]
    observe: Mapping[str, ObserveSpec]
    netlist_transform: Callable[[Netlist], Netlist] | None = None
    options: GradeOptions = field(default_factory=GradeOptions)
    components: dict[str, PreparedGrade] = field(
        default_factory=dict, repr=False, compare=False
    )

    def prepare(self, name: str) -> PreparedGrade:
        """``name``'s grade in this campaign, from the process's one build
        of its netlist (:func:`~repro.plasma.components.component_netlist`)
        after the netlist transform, with the component's observability
        and name stamped on the options.  The fault list is built on
        first use, so a store hit never builds it."""
        netlist = component_netlist(component(name))
        if self.netlist_transform is not None:
            netlist = self.netlist_transform(netlist)
        return PreparedGrade(
            netlist, self.stimulus[name], None,
            self.options.replace(observe=self.observe[name], name=name),
        )


@dataclass
class ShardVerdict:
    """What one graded shard sends back to the scheduler.

    ``detections`` carries the full per-fault records for a live run;
    a shard resumed from the journal only restores ``detected``
    (coverage is unaffected).
    """

    component: str
    lo: int
    hi: int
    n_classes: int
    n_patterns: int
    detected: tuple[int, ...]
    proven: tuple[int, ...] = ()
    detections: dict[int, Detection] = field(default_factory=dict)
    n_simulated: int = 0
    n_inferred: int = 0
    collapse_hash: str = ""


#: The context of the campaign grading in this thread.  Thread-local, so
#: campaigns graded in process by different threads (the campaign
#: service's executors) never share a component cache.
_ACTIVE = threading.local()


def install_shard_context(context: ShardContext | None) -> None:
    """Install the campaign context in this thread (``None`` removes it).

    Runs in the campaign's thread and as the pool initializer.
    """
    _ACTIVE.context = context


def grade_shard(name: str, lo: int, hi: int) -> ShardVerdict:
    """Grade universe slice ``[lo:hi]`` of one component.

    Uncollapsed, the slice indexes base class representatives in
    canonical fault order; collapsed, it indexes
    :meth:`~repro.analysis.collapse.CollapseMap.simulation_order` and
    the verdict carries expanded per-member records plus the collapse
    hash the merge validates against.
    """
    context: ShardContext | None = getattr(_ACTIVE, "context", None)
    if context is None:
        raise RuntimeError(
            "no shard context installed in this thread "
            "(install_shard_context must run before grade_shard)"
        )
    prepared = context.components.get(name)
    if prepared is None:
        # The scheduler's queue hands out shards in plan order, component
        # by component, so a worker keeps only the latest component.
        context.components.clear()
        prepared = context.components[name] = context.prepare(name)
    result = prepared.grade(prepared.universe[lo:hi])
    return ShardVerdict(
        component=name,
        lo=lo,
        hi=hi,
        n_classes=prepared.fault_list.n_collapsed,
        n_patterns=len(prepared.stimulus),
        detected=tuple(sorted(result.detected)),
        proven=tuple(sorted(result.proven)),
        detections=dict(result.detections),
        n_simulated=result.n_simulated,
        n_inferred=result.n_inferred,
        collapse_hash=result.collapse_hash,
    )


# --------------------------------------------------------------- records


def shard_record(verdict: ShardVerdict) -> dict[str, object]:
    """Serialize a shard verdict to a JSON-safe checkpoint record."""
    return {
        "component": verdict.component,
        "lo": verdict.lo,
        "hi": verdict.hi,
        "n_classes": verdict.n_classes,
        "n_patterns": verdict.n_patterns,
        "detected": list(verdict.detected),
        "proven": list(verdict.proven),
        "n_simulated": verdict.n_simulated,
        "n_inferred": verdict.n_inferred,
        "collapse_hash": verdict.collapse_hash,
    }


def record_to_verdict(
    record: dict[str, Any], journal_path: str | None = None
) -> ShardVerdict:
    """Rebuild a (detection-free) shard verdict from a journaled record.

    Raises:
        CheckpointCorrupt: the record is missing fields or malformed.
    """
    try:
        return ShardVerdict(
            component=record["component"],
            lo=int(record["lo"]),
            hi=int(record["hi"]),
            n_classes=int(record["n_classes"]),
            n_patterns=int(record["n_patterns"]),
            detected=tuple(int(r) for r in record["detected"]),
            proven=tuple(int(r) for r in record.get("proven", ())),
            n_simulated=int(record.get("n_simulated", 0)),
            n_inferred=int(record.get("n_inferred", 0)),
            collapse_hash=str(record.get("collapse_hash", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorrupt(
            f"malformed shard record: {exc}", path=journal_path
        ) from None


# ----------------------------------------------------------------- merge


def merge_shard_results(
    name: str,
    fault_list: FaultList,
    n_patterns: int,
    verdicts: Sequence[ShardVerdict],
) -> CampaignResult:
    """Union shard verdicts back into one component result.

    Order-independent and deterministic: ``detected`` / ``proven`` are
    set unions, ``detections`` is keyed by class representative and each
    representative belongs to exactly one shard.  Shards missing from
    ``verdicts`` (permanently failed) simply contribute no detections —
    their classes stay undetected, making the component's coverage a
    lower bound (the caller marks it degraded).
    """
    result = CampaignResult(name, fault_list, n_patterns=n_patterns)
    hashes = {v.collapse_hash for v in verdicts}
    if len(hashes) > 1:
        raise CheckpointCorrupt(
            f"shards of {name!r} were graded under different collapse "
            f"maps ({sorted(hashes)}); resume must not mix universes"
        )
    for verdict in verdicts:
        if verdict.n_classes != fault_list.n_collapsed:
            raise CheckpointCorrupt(
                f"shard [{verdict.lo}, {verdict.hi}) of {name!r} covers a "
                f"universe of {verdict.n_classes} classes but the netlist "
                f"yields {fault_list.n_collapsed}"
            )
        result.detected.update(verdict.detected)
        result.proven.update(verdict.proven)
        result.detections.update(verdict.detections)
        result.n_simulated += verdict.n_simulated
        result.n_inferred += verdict.n_inferred
    if hashes:
        result.collapse_hash = hashes.pop()
    return result
