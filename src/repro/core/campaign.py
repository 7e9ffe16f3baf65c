"""End-to-end fault-grading campaign (produces Tables 4 and 5).

The pipeline (DESIGN.md Section 4):

1. build the self-test program for the requested phases;
2. execute it on the traced behavioural CPU (cycle accounting = Table 4);
3. replay every component's traced stimulus against its gate netlist with
   the stuck-at fault simulator, honouring the taint-derived observability;
4. aggregate per-component FC / MOFC and the overall processor coverage
   (= Table 5).

Step 3 is by far the longest-running part.  It is one loop for every
runtime: *plan* each component's fault universe into shards (one shard
per component at ``jobs=1``), *schedule* the shards, *merge* their
verdicts (:mod:`repro.core.sharded`).  Without a
:class:`~repro.runtime.RuntimeConfig` the shards run in process and a
grading exception reaches the caller unchanged.  With one they run
through the :class:`~repro.runtime.pool.ShardScheduler` — in process when
isolation is off, on a persistent worker pool otherwise — with wall-clock
timeouts, retries with backoff, crash-safe JSONL checkpointing with
resume, and graceful degradation (a permanently failing shard leaves its
component a lower-bound coverage row rather than aborting the campaign).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import threading
import time
from array import array
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.core import sharded
from repro.core.methodology import SelfTestMethodology, SelfTestProgram
from repro.core.sharded import (
    ShardContext,
    ShardVerdict,
    install_shard_context,
    merge_shard_results,
    record_to_verdict,
    shard_record,
)
from repro.errors import CheckpointCorrupt, FaultSimError
from repro.faultsim.coverage import CoverageSummary
from repro.faultsim.engine import PreparedGrade, Stimulus, grade
from repro.faultsim.faults import build_fault_list
from repro.faultsim.harness import CampaignResult
from repro.faultsim.observe import ObservePlan, ObserveSpec
from repro.faultsim.options import GradeOptions
from repro.faultsim.store import (
    TraceStore,
    plan_doc,
    plan_from_doc,
    stimulus_doc,
    stimulus_from_doc,
)
from repro.isa.program import Program
from repro.netlist.netlist import Netlist
from repro.plasma.components import (
    COMPONENTS,
    ComponentInfo,
    component_netlist,
    component_stats,
)
from repro.plasma.cpu import CPUResult, PlasmaCPU
from repro.plasma.memory import Memory
from repro.plasma.tracer import ComponentTracer
from repro.runtime.events import JobEvent
from repro.runtime.policy import RuntimeConfig
from repro.runtime.pool import ShardScheduler
from repro.runtime.sharding import JobOutcome, ShardTask, plan_shards
from repro.utils.bits import MASK32

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
    #: Where :func:`grade_program` took the traced run from:
    #: ``"traced"`` (a CPU run), ``"loaded"`` (the persistent store) or
    #: ``"reused"`` (this process's memo); empty when the caller passed
    #: the traced run to :func:`grade_traced`.
    program_source: str = ""

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


def grade_component(
    info: ComponentInfo,
    stimulus: Stimulus,
    observe: ObserveSpec,
    netlist_transform: NetlistTransform | None = None,
    netlist: Netlist | None = None,
    options: GradeOptions | None = None,
) -> CampaignResult:
    """Fault-grade one component against its traced stimulus.

    Args:
        netlist_transform: optional netlist -> netlist rewrite applied
            before grading (e.g. a technology remap for experiment C3).
        netlist: pre-built (and pre-transformed) netlist to grade; when
            given, ``netlist_transform`` is not applied again.
        options: the grading options (engine, pruning, collapsing,
            persistent cache, packed lanes).  The component's traced
            ``observe`` spec and name are stamped on internally.
    """
    if netlist is None:
        netlist = info.builder()
        if netlist_transform is not None:
            netlist = netlist_transform(netlist)
    if not stimulus:
        # The program never excited this component (e.g. a prefix program
        # without its routine): everything stays undetected.
        return CampaignResult(info.name, build_fault_list(netlist))
    opts = (options or GradeOptions()).replace(
        observe=observe, name=info.name, subset=None
    )
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


# ---------------------------------------------------------------- tracing

#: Distinct programs whose traced runs one process keeps (LRU).
PROGRAM_TRACE_ENTRIES = 4

#: One traced run: the CPU summary and, per component, its stimulus and
#: observe plan (``tracer.finalize()``'s specs, each observe list
#: normalized once).
TracedProgram = tuple[CPUResult, dict[str, tuple[Stimulus, ObservePlan]]]


def _program_key(program: Program) -> bytes:
    """Digest of what :meth:`PlasmaCPU.load_program` loads: the memory
    image and the entry point."""
    image = sorted(program.to_image().items())
    words = array("Q", [(a << 32) | (w & MASK32) for a, w in image])
    digest = hashlib.sha256(program.entry.to_bytes(8, "little"))
    digest.update(words.tobytes())
    return digest.digest()


@functools.cache
def _source_digest() -> str | None:
    """SHA-256 of every ``*.py`` file of the imported ``repro`` package,
    over sorted relative paths and bytes; ``None`` when the package
    directory holds no readable source.

    A traced run is a function of the program and of the code that
    traced it, so a stored run is keyed by both.  Any module counts: a
    narrower list could miss one the traced run depends on.
    """
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    paths = sorted(root.rglob("*.py"))
    try:
        for path in paths:
            source = path.read_bytes()
            name = path.relative_to(root).as_posix().encode()
            digest.update(b"%s\0%d\0" % (name, len(source)))
            digest.update(source)
    except OSError:
        return None
    return digest.hexdigest() if paths else None


def _program_doc(traced: TracedProgram) -> dict | None:
    """A traced run as a store record; ``None`` when a stimulus cannot
    be held exactly (:func:`~repro.faultsim.store.stimulus_doc`)."""
    cpu_result, specs = traced
    components = {}
    for name, (stimulus, plan) in specs.items():
        doc = stimulus_doc(stimulus)
        if doc is None:
            return None
        components[name] = {"stimulus": doc, "observe": plan_doc(plan)}
    return {"cpu": dataclasses.asdict(cpu_result), "components": components}


def _program_from_doc(doc: dict) -> TracedProgram:
    """Decode :func:`_program_doc`.  Plan signatures and stimulus hashes
    are not stored: the first grade recomputes them.

    Raises:
        KeyError / TypeError / ValueError: a malformed record.
    """
    cpu, components = doc["cpu"], doc["components"]
    if not isinstance(cpu, dict) or not isinstance(components, dict):
        raise TypeError("cpu and components must be objects")
    cpu_result = CPUResult(
        **{f.name: cpu[f.name] for f in dataclasses.fields(CPUResult)}
    )
    if type(cpu_result.halted) is not bool or not all(
        type(value) is int
        for value in (cpu_result.cycles, cpu_result.instructions, cpu_result.pc)
    ):
        raise TypeError("CPUResult fields have the wrong types")
    specs = {}
    for name, component in components.items():
        stimulus = stimulus_from_doc(component["stimulus"])
        plan = plan_from_doc(component["observe"])
        if plan.n_entries != len(stimulus):
            raise ValueError(f"{name}: the plan does not cover the stimulus")
        specs[name] = (stimulus, plan)
    return cpu_result, specs


class _TraceSlot:
    """One memo entry; its lock makes a miss trace at most once."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.traced: TracedProgram | None = None


class ProgramTraceMemo:
    """Thread-safe LRU memo of traced self-test runs, keyed by program
    content (:func:`trace_program`).

    :meth:`counts` reports ``traced`` (CPU runs), ``loaded`` (runs read
    from a persistent store) and ``reused`` (calls answered from the
    memo).  A failed run stores nothing, so the next call runs again.
    """

    def __init__(self) -> None:
        self._counts = dict.fromkeys(("traced", "loaded", "reused"), 0)
        self._lock = threading.Lock()
        self._slots: OrderedDict[bytes, _TraceSlot] = OrderedDict()

    def get(
        self, self_test: SelfTestProgram, store: TraceStore | None = None
    ) -> tuple[TracedProgram, str]:
        """``self_test``'s traced run and where it came from: ``"reused"``
        (this memo), ``"loaded"`` (``store``) or ``"traced"`` (a CPU run,
        then saved to ``store``)."""
        key = _program_key(self_test.program)
        with self._lock:
            slot = self._slots.get(key)
            if slot is None:
                slot = self._slots[key] = _TraceSlot()
                while len(self._slots) > PROGRAM_TRACE_ENTRIES:
                    self._slots.popitem(last=False)
            else:
                self._slots.move_to_end(key)
        with slot.lock:
            if slot.traced is not None:
                origin = "reused"
            else:
                store_key = None
                if store is not None and (source := _source_digest()):
                    store_key = store.program_key(key.hex(), source)
                loaded = None if store_key is None else store.load_program(
                    store_key, _program_from_doc
                )
                if loaded is not None:
                    slot.traced, origin = loaded, "loaded"
                else:
                    slot.traced, origin = _trace(self_test), "traced"
                    if store_key is not None and (
                        doc := _program_doc(slot.traced)
                    ) is not None:
                        store.save_program(store_key, doc)
            with self._lock:
                self._counts[origin] += 1
            return slot.traced, origin

    def counts(self) -> dict[str, int]:
        """``{"traced": n, "loaded": n, "reused": n}`` since the last
        :meth:`clear`."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        """Forget every traced run and zero the counts."""
        with self._lock:
            self._slots.clear()
            self._counts = dict.fromkeys(self._counts, 0)


def _trace(self_test: SelfTestProgram) -> TracedProgram:
    """Run ``self_test`` on the traced CPU and normalize each observe
    list into a plan."""
    cpu_result, tracer, _memory = execute_self_test(self_test)
    specs = {
        name: (stimulus, ObservePlan.from_spec(observe, len(stimulus)))
        for name, (stimulus, observe) in tracer.finalize().items()
    }
    return cpu_result, specs


_PROGRAM_TRACES = ProgramTraceMemo()


def program_trace_memo() -> ProgramTraceMemo:
    """This process's :func:`trace_program` memo."""
    return _PROGRAM_TRACES


def trace_program(
    self_test: SelfTestProgram, store: TraceStore | None = None
) -> TracedProgram:
    """Run ``self_test`` on the traced CPU once per process:
    ``(cpu_result, specs)``, as :func:`grade_traced` takes them.

    Each spec pairs a component's stimulus with its
    :class:`~repro.faultsim.observe.ObservePlan`, normalized here once.
    The traced stimulus and observability are a pure function of the
    loaded program, so runs are memoized by a digest of the memory image
    and entry point (up to :data:`PROGRAM_TRACE_ENTRIES` programs, least
    recently used evicted first).  Every call for one program returns
    the *same* objects: callers must treat the result as read-only.  A
    later grade of the program reuses each plan with its memoized
    signature, port check and net projections.

    With a persistent ``store``, a memo miss first reads the run from
    the store, keyed by that digest and by a digest of the package
    source, so an edit to any module traces again; a run traced here is
    saved to it.  A loaded run equals a traced one entry for entry;
    equal entries share one object.
    """
    return _PROGRAM_TRACES.get(self_test, store)[0]


# ------------------------------------------------------------------- plan


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


@dataclass
class _ComponentPlan:
    """One component's grading plan: its prepared grade and shards.

    ``engine`` names the engine the shards grade with (empty when nothing
    is simulated: no stimulus, or a persistent-store replay in
    ``cached``).
    """

    info: ComponentInfo
    prepared: PreparedGrade
    nand2: int
    engine: str = ""
    tasks: list[ShardTask] = field(default_factory=list)
    cached: CampaignResult | None = None


def _plan_component(
    info: ComponentInfo,
    self_test: SelfTestProgram,
    context: ShardContext,
    jobs: int,
    in_process: bool,
) -> _ComponentPlan:
    """Prepare one component once, measure its area and shard its
    universe.

    Shard bounds index :attr:`PreparedGrade.universe`: base class
    representatives uncollapsed, super-class simulation units collapsed.
    The collapse hash goes into the fingerprint so a resumed run never
    reuses shard bounds from the other universe.  With a persistent
    store, a verdict record for this exact grade replays the whole
    component with zero shards; the lookup comes before the fault list,
    collapsing and engine selection, so a hit costs the key and one
    record read (a :func:`trace_program` plan arrives normalized, its
    signature memoized after the first grade).  ``in_process`` hands the
    prepared grade to this process's shards, so they build nothing of
    their own.
    """
    options = context.options
    nand2 = component_stats(info).nand2  # Table 3 area: pre-transform
    prepared = context.prepare(info.name)
    plan = _ComponentPlan(info, prepared, nand2)
    if not prepared.stimulus:
        # The program never excited this component: all faults stay
        # undetected, there is nothing to grade.
        return plan
    plan.cached = prepared.replay()
    if plan.cached is not None:
        return plan
    universe_size = len(prepared.universe)
    chash = prepared.cmap.collapse_hash if prepared.cmap is not None else ""
    plan.engine = prepared.engine.name
    # Packed words carry ``lanes - 1`` fault classes; aligning shard
    # bounds keeps every word fully occupied (verdicts are identical for
    # any partition — a throughput knob).
    lane_align = options.lanes - 1 if plan.engine == "packed" else 1
    shards = plan_shards(universe_size, jobs, lane_align=lane_align)
    base = _job_fingerprint(
        self_test, info, context.netlist_transform, options
    )
    suffix = f":c{chash}" if chash else ""
    plan.tasks = [
        ShardTask(
            key=f"{self_test.phases}:{info.name}#{i + 1:02d}/{len(shards):02d}",
            # Looked up at planning time, so tests can substitute it.
            fn=sharded.grade_shard,
            args=(info.name, lo, hi),
            fingerprint=f"{base}:{lo}-{hi}/{universe_size}{suffix}",
            size=hi - lo,
        )
        for i, (lo, hi) in enumerate(shards)
    ]
    if in_process:
        context.components[info.name] = prepared
    return plan


# --------------------------------------------------------------- schedule


def _run_in_process(tasks: Sequence[ShardTask]) -> dict[str, JobOutcome]:
    """Grade shards in this thread; an exception reaches the caller as is."""
    outcomes: dict[str, JobOutcome] = {}
    for task in tasks:
        started = time.perf_counter()
        value = task.fn(*task.args)
        outcomes[task.key] = JobOutcome(
            task.key, "ok", value=value,
            elapsed=time.perf_counter() - started,
        )
    return outcomes


# ------------------------------------------------------------------ merge


def _merge(
    plan: _ComponentPlan,
    shard_outcomes: dict[str, JobOutcome],
    journal_path: str | None,
) -> tuple[CampaignResult, float, bool]:
    """Merge one component's shards: ``(result, compute seconds, degraded)``.

    A failed shard, or a journaled one that no longer fits the netlist,
    leaves its classes undetected and marks the component degraded (its
    coverage is then a lower bound).  A merge of shards all graded in
    this run is written back to the persistent store; journaled shards
    carry no per-fault :class:`Detection` records, so a merge that
    resumed any of them is not a complete record.
    """
    if plan.cached is not None:
        return plan.cached, 0.0, False
    prepared = plan.prepared
    degraded = False
    resumed = False
    elapsed = 0.0
    verdicts: list[ShardVerdict] = []
    for task in plan.tasks:
        shard = shard_outcomes[task.key]
        if shard.status == "ok":
            verdict = shard.value
            elapsed += shard.elapsed
        elif shard.status == "cached":
            resumed = True
            try:
                verdict = record_to_verdict(shard.record, journal_path)
            except CheckpointCorrupt:
                degraded = True
                continue
        else:  # failed: attempts exhausted, this shard is lost
            degraded = True
            continue
        if verdict.n_classes != prepared.fault_list.n_collapsed:
            # Stale journal that somehow passed the fingerprint guard:
            # distrust the shard rather than abort.
            degraded = True
            continue
        verdicts.append(verdict)
    result = merge_shard_results(
        plan.info.name, prepared.fault_list, len(prepared.stimulus), verdicts
    )
    if prepared.stimulus and not (degraded or resumed):
        prepared.save(result)
    return result, elapsed, degraded


def _progress_line(
    plan: _ComponentPlan,
    result: CampaignResult,
    elapsed: float,
    degraded: bool,
) -> str:
    """One verbose per-component line, e.g. ``... engine packed (5,881
    classes ≥ 1,163 gates × 2% moving)``.

    The inputs of ``"auto"``'s rule follow the engine it chose (nothing
    follows an engine named in the options), and the shard count shows
    only when there is more than one.
    """
    extras = ""
    if len(plan.tasks) > 1:
        extras += f", {len(plan.tasks)} shards"
    if plan.engine:
        extras += f", engine {plan.engine}"
        reason = plan.prepared.engine_reason
        if reason:
            extras += f" ({reason})"
    if result.proven:
        extras += f", {result.n_proven} proven-redundant"
    if result.n_inferred:
        extras += f", {result.n_inferred} inferred"
    if result.cache_hit:
        extras += ", store hit"
    marker = " DEGRADED (lower bound)" if degraded else ""
    return (
        f"  {plan.info.name:6s} FC={result.fault_coverage:6.2f}% "
        f"({result.n_detected}/{result.n_faults} faults, "
        f"{len(plan.prepared.stimulus)} stimulus entries, {elapsed:.1f}s"
        f"{extras}){marker}"
    )


# --------------------------------------------------------------- campaign


def grade_traced(
    self_test: SelfTestProgram,
    cpu_result: CPUResult,
    specs: dict[str, tuple[Stimulus, ObserveSpec]],
    components: list[str] | None = None,
    verbose: bool = False,
    netlist_transform: NetlistTransform | None = None,
    runtime: RuntimeConfig | None = None,
    options: GradeOptions | None = None,
) -> CampaignOutcome:
    """Fault-grade already-traced stimulus (the grading stage alone).

    :func:`grade_program` = :func:`trace_program` + this function.
    Split out so callers that already hold a CPU trace (benchmarks, the
    parallel-scaling harness) can time or re-run the grading stage
    without re-executing the program.

    One loop for every runtime: plan each component's shards
    (:func:`repro.runtime.sharding.plan_shards`; one shard per component
    at ``jobs=1``), schedule them, merge their verdicts.  The merged
    outcome is bit-identical for any ``jobs`` value (DESIGN.md
    Section 11).

    Args:
        specs: per component name, the ``(stimulus, observe)`` pair
            captured during execution: :func:`trace_program`'s plans,
            or ``tracer.finalize()``'s raw observe lists.
        runtime: execution knobs.  ``None`` grades in process: one
            component at a time, and a grading exception propagates
            unchanged.  A :class:`~repro.runtime.RuntimeConfig` routes
            the shards through the
            :class:`~repro.runtime.pool.ShardScheduler` — isolation,
            per-shard timeouts and retries, checkpoint/resume, graceful
            degradation; a ``runtime.jobs`` above one (which needs
            isolation) grades on that many pool workers.
        options: grading knobs (engine, pruning, collapsing, persistent
            cache, packed lanes).  Collapsing changes only the
            ``n_simulated``/``n_inferred`` accounting, never a verdict;
            shard fingerprints carry the collapse hash because shard
            bounds then index a different universe.
    """
    opts = options if options is not None else GradeOptions()
    if opts.collapse_map is not None:
        raise FaultSimError(
            "campaign-level options must use collapse=True/False; a "
            "precomputed CollapseMap is bound to a single netlist"
        )
    # RuntimeConfig validates jobs: at least one, several only isolated.
    jobs = runtime.jobs if runtime is not None else 1
    pooled = runtime is not None and runtime.isolate

    outcome = CampaignOutcome(
        phases=self_test.phases, self_test=self_test, cpu_result=cpu_result
    )
    infos = [
        info for info in COMPONENTS
        if components is None or info.name in components
    ]
    context = ShardContext(
        stimulus={name: spec[0] for name, spec in specs.items()},
        observe={name: spec[1] for name, spec in specs.items()},
        netlist_transform=netlist_transform,
        options=opts,
    )
    scheduler = None
    journal_path = None
    if runtime is not None:
        scheduler = ShardScheduler(
            runtime, initializer=install_shard_context, initargs=(context,)
        )
        journal_path = getattr(scheduler.checkpoint, "path", None)
    # On the pool every component is planned up front so the workers
    # interleave their shards; in process one component at a time is
    # planned, graded and merged, so only its state is alive.
    batches = [infos] if pooled else [[info] for info in infos]
    install_shard_context(context)
    try:
        for batch in batches:
            plans = [
                _plan_component(info, self_test, context, jobs, not pooled)
                for info in batch
            ]
            tasks = [task for plan in plans for task in plan.tasks]
            if scheduler is None:
                shard_outcomes = _run_in_process(tasks)
            else:
                shard_outcomes = scheduler.run(tasks, serialize=shard_record)
            for plan in plans:
                name = plan.info.name
                result, elapsed, degraded = _merge(
                    plan, shard_outcomes, journal_path
                )
                context.components.pop(name, None)
                outcome.results[name] = result
                outcome.grading_seconds[name] = elapsed
                if degraded:
                    outcome.degraded_components.append(name)
                if result.cache_hit:
                    outcome.cached_components.append(name)
                outcome.summary.add(
                    result.to_component_coverage(plan.nand2, degraded=degraded)
                )
                if verbose:
                    print(_progress_line(plan, result, elapsed, degraded))
    finally:
        install_shard_context(None)
    if scheduler is not None:
        outcome.events = scheduler.events.events
    return outcome


def grade_program(
    self_test: SelfTestProgram,
    components: list[str] | None = None,
    verbose: bool = False,
    netlist_transform: NetlistTransform | None = None,
    runtime: RuntimeConfig | None = None,
    options: GradeOptions | None = None,
) -> CampaignOutcome:
    """Execute any program on the traced CPU and fault-grade components.

    This is the shared back half of :func:`run_campaign`; the baselines
    (pseudorandom / Chen&Dey programs) are graded through it too, so every
    comparison uses identical machinery.  ``runtime`` carries the
    execution knobs and ``options`` the grading knobs (see
    :func:`grade_traced`).  Engine choice is *not* part of the checkpoint
    fingerprint: verdicts are engine-invariant, so a resumed campaign may
    switch engines and still reuse journaled shards.  The traced run
    comes from :func:`trace_program` with the options' persistent store,
    so a program already graded in this process, or traced into that
    store by any process running the same source, does not run on the
    CPU again.
    """
    store = options.store if options is not None else None
    (cpu_result, specs), source = _PROGRAM_TRACES.get(self_test, store)
    outcome = grade_traced(
        self_test,
        cpu_result,
        specs,
        components=components,
        verbose=verbose,
        netlist_transform=netlist_transform,
        runtime=runtime,
        options=options,
    )
    outcome.program_source = source
    return outcome


def run_campaign(
    phases: str = "A",
    components: list[str] | None = None,
    methodology: SelfTestMethodology | None = None,
    verbose: bool = False,
    netlist_transform: NetlistTransform | None = None,
    runtime: RuntimeConfig | None = None,
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
        runtime: execution knobs — isolation, timeouts, retries,
            checkpointing, ``jobs`` (see :func:`grade_traced`); None
            grades in process.
        options: grading knobs — engine, pruning, collapsing, persistent
            cache, packed lanes (see :func:`grade_traced`).  Table 4/5
            numbers are bit-identical under every engine, ``jobs`` value
            and collapse setting.

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
        options=options,
    )
