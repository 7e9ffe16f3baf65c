"""End-to-end fault-grading campaign (produces Tables 4 and 5).

The pipeline (DESIGN.md Section 4):

1. build the self-test program for the requested phases;
2. execute it on the traced behavioural CPU (cycle accounting = Table 4);
3. replay every component's traced stimulus against its gate netlist with
   the stuck-at fault simulator, honouring the taint-derived observability;
4. aggregate per-component FC / MOFC and the overall processor coverage
   (= Table 5).

Step 3 is by far the longest-running part, so it is expressed as one *job*
per component.  By default the jobs run serially in-process (identical to
the historical behaviour); passing a :class:`~repro.runtime.RuntimeConfig`
routes them through the resilient :class:`~repro.runtime.JobRunner`
instead — worker-process isolation, wall-clock timeouts, retries with
backoff, crash-safe JSONL checkpointing with resume, and graceful
degradation (a permanently failing component is reported as ungraded with
lower-bound coverage rather than aborting the whole campaign).
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import CheckpointCorrupt, FaultSimError, ReproRuntimeError
from repro.core.methodology import SelfTestMethodology, SelfTestProgram
from repro.faultsim.coverage import CoverageSummary
from repro.faultsim.engine import Stimulus, grade, resolve_engine
from repro.faultsim.faults import FaultList, build_fault_list
from repro.faultsim.harness import CampaignResult
from repro.faultsim.held import held_share
from repro.faultsim.observe import ObservePlan, ObserveSpec
from repro.faultsim.options import GradeOptions
from repro.faultsim.store import (
    result_from_payload,
    verdict_key_for,
    verdicts_payload,
)
from repro.netlist.netlist import Netlist
from repro.netlist.stats import gate_count
from repro.plasma.components import COMPONENTS, ComponentInfo, component
from repro.plasma.cpu import CPUResult, PlasmaCPU
from repro.plasma.memory import Memory
from repro.plasma.tracer import ComponentTracer
from repro.runtime.events import JobEvent
from repro.runtime.policy import RuntimeConfig
from repro.runtime.runner import JobRunner

if TYPE_CHECKING:
    from repro.core.sharded import ShardVerdict
    from repro.runtime.sharding import ShardTask

#: Optional netlist -> netlist rewrite applied before grading.
NetlistTransform = Callable[[Netlist], Netlist]


@dataclass
class CampaignOutcome:
    """Everything a table renderer or benchmark needs from one campaign."""

    phases: str
    self_test: SelfTestProgram
    cpu_result: CPUResult
    results: dict[str, CampaignResult] = field(default_factory=dict)
    summary: CoverageSummary = field(default_factory=CoverageSummary)
    grading_seconds: dict[str, float] = field(default_factory=dict)
    #: Components whose grading permanently failed; their coverage rows
    #: are lower bounds (all faults counted undetected).
    degraded_components: list[str] = field(default_factory=list)
    #: Components whose verdicts were replayed from the persistent store
    #: (``GradeOptions.cache``) instead of being re-simulated.
    cached_components: list[str] = field(default_factory=list)
    #: Structured per-job runtime events (empty for the in-process path).
    events: list[JobEvent] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True if any component's grading permanently failed."""
        return bool(self.degraded_components)

    # ------------------------------------------------------------ tables

    def table4(self) -> dict[str, int]:
        """Self-test program statistics (paper Table 4)."""
        return {
            "code_words": self.self_test.code_words,
            "data_words": self.self_test.data_words,
            "total_words": self.self_test.total_words,
            "clock_cycles": self.cpu_result.cycles,
        }

    def table5(self) -> list[dict[str, object]]:
        """Per-component FC and MOFC rows plus the overall row."""
        rows: list[dict[str, object]] = []
        for cov in self.summary.components:
            rows.append(
                {
                    "name": cov.name,
                    "faults": cov.n_faults,
                    "detected": cov.n_detected,
                    "fc": cov.fault_coverage,
                    "mofc": self.summary.mofc(cov.name),
                    "degraded": cov.degraded,
                    "proven": cov.n_proven,
                }
            )
        rows.append(
            {
                "name": "Plasma",
                "faults": self.summary.total_faults,
                "detected": self.summary.total_detected,
                "fc": self.summary.overall_coverage,
                "mofc": 100.0 - self.summary.overall_coverage,
                "degraded": self.summary.degraded,
                "proven": sum(c.n_proven for c in self.summary.components),
            }
        )
        return rows


def _campaign_options(
    options: GradeOptions | None,
    runtime: RuntimeConfig | None = None,
    prune_untestable: bool | str = False,
    engine: str = "auto",
    collapse: bool = False,
) -> GradeOptions:
    """One :class:`GradeOptions` per campaign, from either convention.

    Campaign entry points accept both the options object and the legacy
    per-feature keywords; unlike :func:`repro.faultsim.grade` the legacy
    spellings stay silent here (the CLI and benchmarks still route
    through them), they are simply folded into one object.  A passed
    ``options`` wins outright.
    """
    if options is None:
        return GradeOptions(
            engine=engine,
            prune_untestable=prune_untestable,
            collapse=collapse,
            runtime=runtime,
        )
    if options.collapse_map is not None:
        raise FaultSimError(
            "campaign-level options must use collapse=True/False; a "
            "precomputed CollapseMap is bound to a single netlist"
        )
    if options.runtime is None and runtime is not None:
        return options.replace(runtime=runtime)
    return options


def grade_component(
    info: ComponentInfo,
    stimulus: Stimulus,
    observe: ObserveSpec,
    netlist_transform: NetlistTransform | None = None,
    netlist: Netlist | None = None,
    prune_untestable: bool | str = False,
    engine: str = "auto",
    collapse: bool = False,
    options: GradeOptions | None = None,
) -> CampaignResult:
    """Fault-grade one component against its traced stimulus.

    Args:
        netlist_transform: optional netlist -> netlist rewrite applied
            before grading (e.g. a technology remap for experiment C3).
        netlist: pre-built (and pre-transformed) netlist to grade; when
            given, ``netlist_transform`` is not applied again.
        prune_untestable: pruning mode as accepted by
            :func:`repro.faultsim.grade` — ``True``/``"structural"``
            skips (doesn't simulate) the SCOAP-screened classes with
            coverage unchanged; ``"proven"`` additionally SAT-certifies
            them and excludes the proven-redundant subset from the FC
            denominator.
        engine: fault-sim engine name or ``"auto"`` (see
            :func:`repro.faultsim.engine.engine_names`).
        collapse: grade through the structural collapse map
            (:mod:`repro.analysis.collapse`) — fewer classes simulated,
            identical coverage.
        options: consolidated grading options; wins over the individual
            keywords above.  The component's traced ``observe`` spec and
            name are stamped on internally.
    """
    if netlist is None:
        netlist = info.builder()
        if netlist_transform is not None:
            netlist = netlist_transform(netlist)
    if not stimulus:
        # The program never excited this component (e.g. a prefix program
        # without its routine): everything stays undetected.
        return CampaignResult(info.name, build_fault_list(netlist))
    base = _campaign_options(
        options, prune_untestable=prune_untestable, engine=engine,
        collapse=collapse,
    )
    opts = base.replace(observe=observe, name=info.name, subset=None)
    return grade(netlist, stimulus, options=opts)


def execute_self_test(
    self_test: SelfTestProgram,
) -> tuple[CPUResult, ComponentTracer, Memory]:
    """Run a self-test program on the traced CPU."""
    tracer = ComponentTracer()
    cpu = PlasmaCPU(tracer=tracer)
    cpu.load_program(self_test.program)
    result = cpu.run()
    return result, tracer, cpu.memory


# ------------------------------------------------------------------- jobs
#
# One fault-grading job per component.  The function is module-level so a
# worker process can execute it, and it returns ``(result, nand2)`` from a
# *single* netlist build (the area is measured pre-transform, matching the
# historical Table 3 semantics).


def _grading_job(
    name: str,
    stimulus: Stimulus,
    observe: ObserveSpec,
    netlist_transform: NetlistTransform | None = None,
    options: GradeOptions | None = None,
) -> tuple[CampaignResult, int]:
    """Build one component once, measure its area, fault-grade it."""
    info = component(name)
    netlist = info.builder()
    nand2 = gate_count(netlist).nand2
    if netlist_transform is not None:
        netlist = netlist_transform(netlist)
    result = grade_component(
        info, stimulus, observe, netlist=netlist, options=options
    )
    return result, nand2


def _job_fingerprint(
    self_test: SelfTestProgram,
    info: ComponentInfo,
    netlist_transform: NetlistTransform | None = None,
    options: GradeOptions | None = None,
) -> str:
    """Configuration hash guarding checkpoint reuse.

    The traced stimulus is a deterministic function of the program source,
    so hashing the source (plus the component and transform identities)
    is enough to detect a journal written by a different campaign.  The
    verdict-shaping options (prune mode, fault-ordering epoch) enter via
    :meth:`GradeOptions.fingerprint` — engine, lane and cache choices
    deliberately do not, because verdicts are invariant under them.
    """
    digest = hashlib.sha256()
    digest.update(self_test.phases.encode())
    digest.update(self_test.source.encode())
    digest.update(info.name.encode())
    transform_id = (
        "" if netlist_transform is None
        else getattr(netlist_transform, "__qualname__", repr(netlist_transform))
    )
    digest.update(transform_id.encode())
    digest.update((options or GradeOptions()).fingerprint().encode())
    return digest.hexdigest()[:16]


def _result_to_record(
    value: tuple[CampaignResult, int], elapsed: float = 0.0
) -> dict[str, object]:
    """Serialize a grading result to a JSON-safe checkpoint record."""
    result, nand2 = value
    return {
        "name": result.name,
        "n_faults": result.n_faults,
        "detected": sorted(result.detected),
        "n_patterns": result.n_patterns,
        "nand2": nand2,
        "elapsed": elapsed,
        "pruned": sorted(result.pruned),
        "proven": sorted(result.proven),
        "n_simulated": result.n_simulated,
        "n_inferred": result.n_inferred,
        "collapse_hash": result.collapse_hash,
    }


def _record_to_result(
    record: dict[str, Any],
    info: ComponentInfo,
    netlist_transform: NetlistTransform | None = None,
) -> tuple[CampaignResult, int]:
    """Rebuild a :class:`CampaignResult` from a journaled record.

    The fault universe is regenerated deterministically from the netlist
    builder; only the detected set comes from the journal.  Per-fault
    Detection records are not journaled, so a resumed result has an empty
    ``detections`` map (coverage numbers are unaffected).
    """
    netlist = info.builder()
    if netlist_transform is not None:
        netlist = netlist_transform(netlist)
    fault_list = build_fault_list(netlist)
    if fault_list.n_collapsed != record["n_faults"]:
        raise CheckpointCorrupt(
            f"journaled record for {info.name!r} has {record['n_faults']} "
            f"fault classes but the netlist yields "
            f"{fault_list.n_collapsed}"
        )
    result = CampaignResult(
        info.name,
        fault_list,
        detected=set(record["detected"]),
        n_patterns=record["n_patterns"],
        pruned=set(record.get("pruned", ())),
        proven=set(record.get("proven", ())),
    )
    result.n_simulated = int(record.get("n_simulated", 0))
    result.n_inferred = int(record.get("n_inferred", 0))
    result.collapse_hash = str(record.get("collapse_hash", ""))
    return result, record["nand2"]


def _engine_note(
    result: CampaignResult, options: GradeOptions, stimulus: Stimulus
) -> str:
    """``", engine packed (held 98%)"`` for a verbose progress line.

    The held share (what ``"auto"`` reads) is shown for sequential
    components only.  Empty when nothing was simulated: no stimulus, or
    a store replay.
    """
    if not stimulus or result.cache_hit:
        return ""
    netlist = result.fault_list.netlist
    name = resolve_engine(netlist, options, stimulus).name
    if netlist.dffs:
        return f", engine {name} (held {held_share(stimulus):.0%})"
    return f", engine {name}"


def _ungraded_result(
    info: ComponentInfo, netlist_transform: NetlistTransform | None = None
) -> tuple[CampaignResult, int]:
    """Fallback for a permanently failed job: full fault universe, nothing
    detected, so the component contributes a coverage *lower bound*."""
    try:
        netlist = info.builder()
        nand2 = gate_count(netlist).nand2
        if netlist_transform is not None:
            netlist = netlist_transform(netlist)
        fault_list = build_fault_list(netlist)
    except Exception:
        # Even the builder is broken (that may be *why* the job failed);
        # report an empty universe rather than crash the degraded path.
        fault_list = build_fault_list(Netlist(info.name))
        nand2 = 0
    return CampaignResult(info.name, fault_list), nand2


def grade_traced(
    self_test: SelfTestProgram,
    cpu_result: CPUResult,
    specs: dict[str, tuple[Stimulus, ObserveSpec]],
    components: list[str] | None = None,
    verbose: bool = False,
    netlist_transform: NetlistTransform | None = None,
    runtime: RuntimeConfig | None = None,
    prune_untestable: bool | str = False,
    engine: str = "auto",
    jobs: int | None = None,
    collapse: bool = False,
    options: GradeOptions | None = None,
) -> CampaignOutcome:
    """Fault-grade already-traced stimulus (the grading stage alone).

    :func:`grade_program` = :func:`execute_self_test` + this function.
    Split out so callers that already hold a CPU trace (benchmarks, the
    parallel-scaling harness) can time or re-run the grading stage
    without re-executing the program.

    Args:
        specs: ``tracer.finalize()`` output — per component name, the
            ``(stimulus, observe)`` pair captured during execution.
        jobs: number of parallel grading workers.  ``None`` defers to
            ``runtime.jobs`` (default 1 = serial).  With more than one
            worker, each component's collapsed fault universe is sharded
            (:func:`repro.runtime.sharding.plan_shards`) and fanned over
            a persistent pool; the merged outcome is bit-identical to the
            serial run (DESIGN.md Section 11).
        collapse: grade through the structural collapse map
            (:mod:`repro.analysis.collapse`): only super-class
            representatives are simulated and dominated verdicts are
            inferred.  Coverage and detected sets are bit-identical to
            ``collapse=False`` (only ``n_simulated``/``n_inferred``
            accounting differs), so journaled component records remain
            reusable across the flag; sharded runs stamp the collapse
            hash into shard fingerprints because shard bounds then index
            a different universe.
        options: consolidated grading options (engine, pruning,
            collapsing, persistent cache, packed lanes); wins over the
            individual legacy keywords.
    """
    opts = _campaign_options(
        options, runtime=runtime, prune_untestable=prune_untestable,
        engine=engine, collapse=collapse,
    )
    effective_jobs = jobs
    if effective_jobs is None:
        effective_jobs = runtime.jobs if runtime is not None else 1
    if effective_jobs < 1:
        raise ReproRuntimeError(f"jobs must be >= 1, got {effective_jobs}")

    outcome = CampaignOutcome(
        phases=self_test.phases, self_test=self_test, cpu_result=cpu_result
    )
    wanted = set(components) if components is not None else None
    if effective_jobs > 1:
        _grade_traced_parallel(
            outcome, self_test, specs, wanted, verbose, netlist_transform,
            runtime, opts, effective_jobs,
        )
        return outcome
    runner = JobRunner(runtime) if runtime is not None else None
    for info in COMPONENTS:
        if wanted is not None and info.name not in wanted:
            continue
        stimulus, observe = specs[info.name]
        degraded = False
        if runner is None:
            started = time.perf_counter()
            result, nand2 = _grading_job(
                info.name, stimulus, observe, netlist_transform, opts
            )
            elapsed = time.perf_counter() - started
        else:
            key = f"{self_test.phases}:{info.name}"
            fingerprint = _job_fingerprint(
                self_test, info, netlist_transform, opts
            )
            job_args = (info.name, stimulus, observe, netlist_transform,
                        opts)
            job = runner.run(
                key=key, fn=_grading_job, args=job_args,
                fingerprint=fingerprint, serialize=_result_to_record,
            )
            if job.status == "cached":
                try:
                    result, nand2 = _record_to_result(
                        job.record, info, netlist_transform
                    )
                    elapsed = float(job.record.get("elapsed", 0.0))
                except (CheckpointCorrupt, KeyError, TypeError):
                    # Journal disagrees with the current netlist (or the
                    # record is malformed): distrust it and re-grade from
                    # scratch, still resiliently.  The fresh result is
                    # appended under the same key and wins next resume.
                    runner.invalidate(key)
                    job = runner.run(
                        key=key, fn=_grading_job, args=job_args,
                        fingerprint=fingerprint, serialize=_result_to_record,
                    )
            if job.status != "cached":
                if job.failed:
                    result, nand2 = _ungraded_result(info, netlist_transform)
                    elapsed = 0.0
                    degraded = True
                else:
                    result, nand2 = job.value
                    elapsed = job.elapsed
        outcome.results[info.name] = result
        outcome.grading_seconds[info.name] = elapsed
        if degraded:
            outcome.degraded_components.append(info.name)
        if result.cache_hit:
            outcome.cached_components.append(info.name)
        outcome.summary.add(
            result.to_component_coverage(nand2, degraded=degraded)
        )
        if verbose:
            marker = " DEGRADED (lower bound)" if degraded else ""
            pruned = (
                f", {result.n_pruned} pruned" if result.pruned else ""
            )
            inferred = (
                f", {result.n_inferred} inferred" if result.n_inferred else ""
            )
            cached = ", store hit" if result.cache_hit else ""
            engine = _engine_note(result, opts, stimulus)
            print(
                f"  {info.name:6s} FC={result.fault_coverage:6.2f}% "
                f"({result.n_detected}/{result.n_faults} faults, "
                f"{len(stimulus)} stimulus entries, {elapsed:.1f}s"
                f"{engine}{pruned}{inferred}{cached}){marker}"
            )
    if runner is not None:
        outcome.events = runner.events.events
    return outcome


# --------------------------------------------------------- parallel path


def _grade_traced_parallel(
    outcome: CampaignOutcome,
    self_test: SelfTestProgram,
    specs: dict[str, tuple[Stimulus, ObserveSpec]],
    wanted: set[str] | None,
    verbose: bool,
    netlist_transform: NetlistTransform | None,
    runtime: RuntimeConfig | None,
    options: GradeOptions,
    jobs: int,
) -> None:
    """Shard every component's fault universe over a persistent pool.

    Determinism: stuck-at verdicts are per-fault properties, independent
    of which other faults are co-graded, so the merged outcome (detected
    sets, coverage percentages, Table 5) is bit-identical to the serial
    run regardless of worker count, shard boundaries or completion order.
    Resilience composes at shard granularity: each shard gets the
    runtime's timeout/retry budget, a worker crash degrades only the
    shards it was executing, and the journal records completed shards so
    ``--resume`` re-grades exactly the missing ones.

    Persistent store: with ``options.cache`` set, the parent checks each
    component's verdict record *before* planning its shards — a hit
    replays the whole component with zero shard tasks — and writes the
    merged record back after a clean (non-degraded) merge, so the next
    unchanged campaign re-simulates nothing.
    """
    from repro.core.sharded import (
        ShardContext,
        grade_shard,
        install_shard_context,
        merge_shard_results,
        record_to_verdict,
        shard_record,
    )
    from repro.faultsim.trace_cache import set_active_store
    from repro.runtime.pool import ShardScheduler
    from repro.runtime.sharding import ShardTask, plan_shards

    config = runtime if runtime is not None else RuntimeConfig(jobs=jobs)
    if not config.isolate:
        raise ReproRuntimeError(
            "parallel sharded grading requires worker isolation; "
            "jobs > 1 cannot be combined with isolate=False"
        )

    context = ShardContext(
        stimulus={name: spec[0] for name, spec in specs.items()},
        observe={name: spec[1] for name, spec in specs.items()},
        netlist_transform=netlist_transform,
        options=options,
    )
    # Install in the parent *before* the pool starts: fork-started
    # workers inherit the traces by memory; the initializer below covers
    # spawn-started (and replacement) workers.  The install activates
    # the persistent store globally, so restore the parent afterwards.
    previous_store = set_active_store(None)
    install_shard_context(context)
    store = options.store

    try:
        # plan: (info, fault_list, nand2, n_patterns, comp_tasks,
        #        cached_result, store_key)
        plan: list[tuple[
            ComponentInfo, FaultList, int, int, list[ShardTask],
            CampaignResult | None, str,
        ]] = []
        tasks: list[ShardTask] = []
        for info in COMPONENTS:
            if wanted is not None and info.name not in wanted:
                continue
            netlist = info.builder()
            nand2 = gate_count(netlist).nand2
            if netlist_transform is not None:
                netlist = netlist_transform(netlist)
            fault_list = build_fault_list(netlist)
            stimulus, observe = specs[info.name]
            if not stimulus:
                # Never excited: all faults stay undetected.  Handled in
                # the parent — no grading work to shard.
                plan.append((info, fault_list, nand2, 0, [], None, ""))
                continue
            # Shard bounds index the universe the workers will grade:
            # base class representatives uncollapsed, super-class
            # simulation units collapsed.  The collapse hash goes into
            # the fingerprint so a resumed run never reuses shard bounds
            # from the other universe.
            universe_size = fault_list.n_collapsed
            chash = ""
            if options.collapse_requested:
                from repro.analysis.collapse import compute_collapse

                cmap = compute_collapse(netlist, fault_list)
                universe_size = len(cmap.simulation_order())
                chash = cmap.collapse_hash
            store_key = ""
            if store is not None:
                plan_obs = ObservePlan.from_spec(
                    observe, len(stimulus), netlist
                )
                store_key = verdict_key_for(
                    store, netlist, stimulus, plan_obs, fault_list,
                    prune_mode=options.prune_mode, collapse_hash=chash,
                )
                payload = store.load_verdicts(store_key)
                if payload is not None:
                    cached: CampaignResult | None
                    try:
                        if int(payload["n_classes"]) != fault_list.n_collapsed:
                            raise ValueError("universe size mismatch")
                        cached = result_from_payload(
                            payload, info.name, fault_list
                        )
                    except (KeyError, TypeError, ValueError):
                        cached = None  # malformed: re-grade from scratch
                    if cached is not None:
                        plan.append((
                            info, fault_list, nand2, len(stimulus), [],
                            cached, store_key,
                        ))
                        continue
            comp_tasks: list[ShardTask] = []
            if universe_size > 0:
                # Packed words carry ``lanes - 1`` fault classes; aligning
                # shard bounds keeps every word fully occupied (verdicts
                # are identical for any partition — a throughput knob).
                packed = (
                    resolve_engine(netlist, options, stimulus).name
                    == "packed"
                )
                lane_align = options.lanes - 1 if packed else 1
                shards = plan_shards(
                    universe_size, jobs, lane_align=lane_align
                )
                base = _job_fingerprint(
                    self_test, info, netlist_transform, options
                )
                suffix = f":c{chash}" if chash else ""
                n = len(shards)
                comp_tasks = [
                    ShardTask(
                        key=(
                            f"{self_test.phases}:{info.name}"
                            f"#{i + 1:02d}/{n:02d}"
                        ),
                        fn=grade_shard,
                        args=(info.name, lo, hi),
                        fingerprint=(
                            f"{base}:{lo}-{hi}/{universe_size}{suffix}"
                        ),
                        size=hi - lo,
                    )
                    for i, (lo, hi) in enumerate(shards)
                ]
            tasks.extend(comp_tasks)
            plan.append((
                info, fault_list, nand2, len(stimulus), comp_tasks,
                None, store_key,
            ))

        scheduler = ShardScheduler(
            config, jobs=jobs,
            initializer=install_shard_context, initargs=(context,),
        )
        shard_outcomes = scheduler.run(tasks, serialize=shard_record)
    finally:
        set_active_store(previous_store)

    journal_path = getattr(scheduler.runner.checkpoint, "path", None)
    for (info, fault_list, nand2, n_patterns, comp_tasks, cached_result,
         store_key) in plan:
        degraded = False
        elapsed = 0.0
        if cached_result is not None:
            result = cached_result
        else:
            verdicts: list[ShardVerdict] = []
            for task in comp_tasks:
                shard = shard_outcomes[task.key]
                if shard.status == "ok":
                    verdict = shard.value
                    elapsed += shard.elapsed
                elif shard.status == "cached":
                    try:
                        verdict = record_to_verdict(
                            shard.record, journal_path
                        )
                    except CheckpointCorrupt:
                        degraded = True
                        continue
                else:  # failed: attempts exhausted — this shard is lost
                    degraded = True
                    continue
                if verdict.n_classes != fault_list.n_collapsed:
                    # Stale journal that somehow passed the fingerprint
                    # guard: distrust the shard rather than abort.
                    degraded = True
                    continue
                verdicts.append(verdict)
            result = merge_shard_results(
                info.name, fault_list, n_patterns, verdicts
            )
            if store is not None and store_key and not degraded:
                store.save_verdicts(store_key, verdicts_payload(result))
        outcome.results[info.name] = result
        outcome.grading_seconds[info.name] = elapsed
        if degraded:
            outcome.degraded_components.append(info.name)
        if result.cache_hit:
            outcome.cached_components.append(info.name)
        outcome.summary.add(
            result.to_component_coverage(nand2, degraded=degraded)
        )
        if verbose:
            marker = " DEGRADED (lower bound)" if degraded else ""
            pruned = f", {result.n_pruned} pruned" if result.pruned else ""
            inferred = (
                f", {result.n_inferred} inferred" if result.n_inferred else ""
            )
            cached = ", store hit" if result.cache_hit else ""
            engine = _engine_note(result, options, specs[info.name][0])
            print(
                f"  {info.name:6s} FC={result.fault_coverage:6.2f}% "
                f"({result.n_detected}/{result.n_faults} faults, "
                f"{len(comp_tasks)} shards, {elapsed:.1f}s compute"
                f"{engine}{pruned}{inferred}{cached}){marker}"
            )
    outcome.events = scheduler.events.events


def grade_program(
    self_test: SelfTestProgram,
    components: list[str] | None = None,
    verbose: bool = False,
    netlist_transform: NetlistTransform | None = None,
    runtime: RuntimeConfig | None = None,
    prune_untestable: bool | str = False,
    engine: str = "auto",
    jobs: int | None = None,
    collapse: bool = False,
    options: GradeOptions | None = None,
) -> CampaignOutcome:
    """Execute any program on the traced CPU and fault-grade components.

    This is the shared back half of :func:`run_campaign`; the baselines
    (pseudorandom / Chen&Dey programs) are graded through it too, so every
    comparison uses identical machinery.

    Args:
        runtime: route the per-component jobs through the resilient
            :class:`~repro.runtime.JobRunner` (isolation, timeout, retry,
            checkpoint/resume, graceful degradation).  None keeps the
            historical serial in-process path.
        prune_untestable: skip simulation of structurally untestable
            fault classes (SCOAP screener); coverage is unchanged, only
            simulation time is saved.
        engine: fault-sim engine name or ``"auto"``.  An explicit
            ``runtime.engine`` takes over when this stays ``"auto"``.
            Engine choice is *not* part of the checkpoint fingerprint:
            verdicts are engine-invariant, so a resumed campaign may
            freely switch engines and still reuse journaled results.
        jobs: parallel grading workers (see :func:`grade_traced`).
        collapse: grade through the structural collapse map; verdicts
            and coverage are bit-identical either way (see
            :func:`grade_traced`).
        options: consolidated :class:`GradeOptions`; wins over the
            individual legacy keywords (see :func:`grade_traced`).
    """
    cpu_result, tracer, _memory = execute_self_test(self_test)
    specs = tracer.finalize()
    return grade_traced(
        self_test,
        cpu_result,
        specs,
        components=components,
        verbose=verbose,
        netlist_transform=netlist_transform,
        runtime=runtime,
        prune_untestable=prune_untestable,
        engine=engine,
        jobs=jobs,
        collapse=collapse,
        options=options,
    )


def run_campaign(
    phases: str = "A",
    components: list[str] | None = None,
    methodology: SelfTestMethodology | None = None,
    verbose: bool = False,
    netlist_transform: NetlistTransform | None = None,
    runtime: RuntimeConfig | None = None,
    prune_untestable: bool | str = False,
    engine: str = "auto",
    jobs: int | None = None,
    collapse: bool = False,
    options: GradeOptions | None = None,
) -> CampaignOutcome:
    """Full pipeline for one phase configuration.

    Args:
        phases: ``"A"``, ``"AB"`` or ``"ABC"``.
        components: short names to grade (default: all ten).  Components
            outside the subset are skipped entirely (useful for fast tests);
            the summary then only aggregates the graded subset.
        methodology: custom methodology instance (for ablations).
        verbose: print per-component progress with timings.
        runtime: resilient-runner configuration (see
            :func:`grade_program`); None = serial in-process grading.
        engine: fault-sim engine name or ``"auto"`` (see
            :func:`grade_program`).
        jobs: parallel grading workers; the merged outcome is
            bit-identical to ``jobs=1`` (see :func:`grade_traced`).
        collapse: simulate only super-class representatives of the
            structural collapse map and infer dominated verdicts;
            Table 4/5 numbers are bit-identical either way (see
            :func:`grade_traced`).
        options: consolidated :class:`GradeOptions` (engine, pruning,
            collapsing, persistent cache, packed lanes); wins over the
            individual legacy keywords.

    Returns:
        The campaign outcome with Table 4/5 data attached.
    """
    methodology = methodology or SelfTestMethodology()
    self_test = methodology.build_program(phases)
    return grade_program(
        self_test,
        components=components,
        verbose=verbose,
        netlist_transform=netlist_transform,
        runtime=runtime,
        prune_untestable=prune_untestable,
        engine=engine,
        jobs=jobs,
        collapse=collapse,
        options=options,
    )
