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
* the **shard job** (:func:`grade_shard`) with a component cache held by
  the context: the first shard of a component builds its netlist, fault
  list, observe plan, engine and prune sets **once per process**; every
  later shard of that component reuses them and only pays for its own
  faults.  A worker keeps one component at a time.  In process the
  campaign seeds the cache with the objects its planner already built
  (:func:`seed_component`) and releases them once the component is
  merged.
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
from typing import TYPE_CHECKING, Any

from repro.errors import CheckpointCorrupt
from repro.faultsim.differential import Detection
from repro.faultsim.engine import (
    FaultSimEngine,
    Stimulus,
    _grade_collapsed,
    prune_sets,
    resolve_engine,
)
from repro.faultsim.faults import FaultList, build_fault_list
from repro.faultsim.harness import CampaignResult
from repro.faultsim.observe import ObservePlan, ObserveSpec
from repro.faultsim.options import GradeOptions
from repro.faultsim.trace_cache import set_active_store
from repro.netlist.netlist import Netlist
from repro.plasma.components import component

if TYPE_CHECKING:
    from repro.analysis.collapse import CollapseMap


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
        components: the per-process grading state, by component name.
        seeds: objects a planner in this process already built, by
            component name, until a shard needs them (see
            :func:`seed_component`).
    """

    stimulus: Mapping[str, Stimulus]
    observe: Mapping[str, ObserveSpec]
    netlist_transform: Callable[[Netlist], Netlist] | None = None
    options: GradeOptions = field(default_factory=GradeOptions)
    components: dict[str, _ComponentState] = field(
        default_factory=dict, repr=False, compare=False
    )
    seeds: dict[str, _Seed] = field(
        default_factory=dict, repr=False, compare=False
    )

    def release(self, name: str) -> None:
        """Drop ``name``'s seed and grading state."""
        self.seeds.pop(name, None)
        self.components.pop(name, None)


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
    pruned: tuple[int, ...]
    proven: tuple[int, ...] = ()
    detections: dict[int, Detection] = field(default_factory=dict)
    n_simulated: int = 0
    n_inferred: int = 0
    collapse_hash: str = ""


#: Build-once grading state for one component: ``cmap`` is the collapse
#: map (or None) and ``universe`` is what shard bounds index — base class
#: representatives uncollapsed, super-class keys collapsed.
_ComponentState = tuple[
    Netlist, FaultList, ObservePlan, FaultSimEngine,
    frozenset[int], frozenset[int], Stimulus,
    "CollapseMap | None", "list[int]",
]

#: A planner's built objects for one component: netlist, fault list,
#: collapse map, and optionally the engine and observe plan.
_Seed = tuple[
    Netlist, FaultList, "CollapseMap | None",
    "FaultSimEngine | None", "ObservePlan | None",
]

#: The context of the campaign grading in this thread.  Thread-local, so
#: campaigns graded in process by different threads (the campaign
#: service's executors) never share a component cache.
_ACTIVE = threading.local()


def install_shard_context(context: ShardContext | None) -> None:
    """Install the campaign context in this thread (``None`` removes it).

    Runs in the campaign's thread and as the pool initializer.  Also
    activates the campaign's persistent store (if any) so shards read
    shared good traces instead of re-simulating them.
    """
    _ACTIVE.context = context
    if context is not None:
        set_active_store(context.options.store)


def _component_state(name: str) -> _ComponentState:
    """Build-once grading state for one component, from the context."""
    context: ShardContext | None = getattr(_ACTIVE, "context", None)
    if context is None:
        raise RuntimeError(
            "no shard context installed in this thread "
            "(install_shard_context must run before grade_shard)"
        )
    state = context.components.get(name)
    if state is not None:
        return state
    # The scheduler's queue hands out shards in plan order, component by
    # component, so a worker keeps only the latest component's state.
    context.components.clear()
    seed = context.seeds.pop(name, None)
    if seed is None:
        netlist = component(name).builder()
        if context.netlist_transform is not None:
            netlist = context.netlist_transform(netlist)
        fault_list = build_fault_list(netlist)
        cmap = None
        if context.options.collapse_requested:
            # Local import mirrors grade(): repro.analysis.collapse
            # imports the fault model, so the load-time dependency stays
            # one-way.
            from repro.analysis.collapse import compute_collapse

            cmap = compute_collapse(netlist, fault_list)
        seed = (netlist, fault_list, cmap, None, None)
    netlist, fault_list, cmap, engine, plan = seed
    stimulus = context.stimulus[name]
    if plan is None:
        plan = ObservePlan.from_spec(
            context.observe[name], len(stimulus), netlist
        )
    opts = context.options
    if engine is None:
        engine = resolve_engine(netlist, opts, stimulus)
    skip, proven = prune_sets(netlist, fault_list, opts.prune_mode)
    universe = (
        cmap.simulation_order() if cmap is not None
        else fault_list.class_representatives()
    )
    state = (
        netlist, fault_list, plan, engine, skip, proven, stimulus,
        cmap, universe,
    )
    context.components[name] = state
    return state


def seed_component(
    context: ShardContext,
    name: str,
    netlist: Netlist,
    fault_list: FaultList,
    cmap: CollapseMap | None,
    engine: FaultSimEngine | None = None,
    plan: ObservePlan | None = None,
) -> None:
    """Let ``name``'s shards in this process reuse a planner's objects.

    The in-process campaign passes its planner's netlist, fault list,
    collapse map, engine and (with a store) observe plan, so grading
    builds none of them a second time.  The rest of the grading state
    is built when the first shard runs, so a component whose shards all
    come from the journal costs nothing more.
    """
    context.seeds[name] = (netlist, fault_list, cmap, engine, plan)


def grade_shard(name: str, lo: int, hi: int) -> ShardVerdict:
    """Grade universe slice ``[lo:hi]`` of one component.

    Uncollapsed, the slice indexes base class representatives in
    canonical fault order; collapsed, it indexes
    :meth:`~repro.analysis.collapse.CollapseMap.simulation_order` and
    the verdict carries expanded per-member records plus the collapse
    hash the merge validates against.
    """
    netlist, fault_list, plan, engine, skip, proven, stimulus, cmap, \
        universe = _component_state(name)
    if cmap is not None:
        result = _grade_collapsed(
            engine, netlist, stimulus, fault_list, plan, cmap,
            name=name, skip=skip, supers=universe[lo:hi],
        )
    else:
        result = engine.grade(
            netlist, stimulus, fault_list, plan,
            name=name, skip=skip, only=universe[lo:hi],
        )
        result.n_simulated = sum(
            1 for r in universe[lo:hi] if r not in skip
        )
    return ShardVerdict(
        component=name,
        lo=lo,
        hi=hi,
        n_classes=fault_list.n_collapsed,
        n_patterns=len(stimulus),
        detected=tuple(sorted(result.detected)),
        pruned=tuple(sorted(skip)),
        proven=tuple(sorted(proven)),
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
        "pruned": list(verdict.pruned),
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
            pruned=tuple(int(r) for r in record.get("pruned", ())),
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

    Order-independent and deterministic: ``detected`` / ``pruned`` are
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
        result.pruned.update(verdict.pruned)
        result.proven.update(verdict.proven)
        result.detections.update(verdict.detections)
        result.n_simulated += verdict.n_simulated
        result.n_inferred += verdict.n_inferred
    if hashes:
        result.collapse_hash = hashes.pop()
    return result
