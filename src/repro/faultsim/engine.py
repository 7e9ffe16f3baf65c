"""Fault-simulation engines behind one facade: :func:`grade`.

Two interchangeable engines grade a fault universe against a stimulus:

* ``differential`` — per-fault event-driven difference propagation against
  the recorded good trace (:mod:`repro.faultsim.differential`).  The
  independent reference oracle; it also wins when most faults drop
  quickly or never excite (sequential traces, shallow circuits).
* ``packed`` — fault-parallel bit-packed grading through generated level
  kernels (:mod:`repro.faultsim.packed`): a group of fault classes rides
  one big-int word next to the good machine.  The fast path for deep
  combinational cones and for sequential stimulus that holds its inputs
  for long runs.

Both implement the :class:`FaultSimEngine` protocol; ``engine="auto"``
picks per netlist and stimulus (:func:`default_engine_name`), and
:func:`resolve_engine` is the one place an options object becomes an
engine instance.

Detection verdicts — the ``detected`` flag, the ``excited`` flag and (for
sequential stimulus) the first detecting cycle — are engine-invariant and
cross-checked by the equivalence test-suite.  ``Detection.lanes`` is a
*partial witness* (at least one detecting lane), not an exhaustive lane
set: engines that short-circuit or drop faults may report fewer lanes.

Structural collapsing (``grade(collapse=...)``) adds one caveat: a
dominator verdict inferred from a detected child reuses the child's
detecting cycle, which is an *upper bound* on the dominator's own first
detecting cycle (the dominator machine provably differs at that cycle,
but may already differ earlier).  Combinational detections always report
cycle 0, so the bound is exact there; sequential campaigns must treat
the cycle of an inferred verdict like ``lanes`` — a valid witness, not a
minimum.  Detected flags, coverage and excitation stay exact either way
(DESIGN.md §13).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Protocol

from repro.errors import FaultSimError
from repro.faultsim.differential import Detection, DifferentialFaultSimulator
from repro.faultsim.faults import Fault, FaultList, build_fault_list
from repro.faultsim.harness import CampaignResult
from repro.faultsim.held import held_share
from repro.faultsim.observe import ObservePlan
from repro.faultsim.options import GradeOptions, resolve_prune_mode
from repro.faultsim.simulator import GoodTrace
from repro.faultsim.store import (
    result_from_payload,
    verdict_key_for,
    verdicts_payload,
)
from repro.faultsim.trace_cache import good_trace_for, set_active_store
from repro.netlist.levelize import depth
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see grade())
    from repro.analysis.collapse import CollapseMap

__all__ = [
    "AUTO_MIN_DEPTH",
    "AUTO_MIN_HELD_SHARE",
    "DifferentialEngine",
    "FaultSimEngine",
    "GradeOptions",
    "default_engine_name",
    "engine_names",
    "get_engine",
    "grade",
    "prune_sets",
    "resolve_engine",
    "resolve_prune_mode",
]

Stimulus = Sequence[Mapping[str, int]]


class FaultSimEngine(Protocol):
    """What every engine provides."""

    name: str

    def grade(
        self,
        netlist: Netlist,
        stimulus: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        *,
        name: str = "",
        skip: frozenset[int] = frozenset(),
        only: Sequence[int] | None = None,
    ) -> CampaignResult:
        """Grade every collapsed fault class not in ``skip``.

        ``stimulus`` is a non-empty pattern set (combinational netlist —
        unordered, engines may pack or reorder) or cycle sequence
        (sequential netlist — applied in order from reset).

        ``only`` restricts grading to the listed class representatives
        (a *shard* of the universe); verdicts for graded faults are
        identical to a full-universe run — stuck-at detection is a
        per-fault property of the good trace, so sharding cannot change
        it (DESIGN.md §11).
        """
        ...  # pragma: no cover - protocol


# ------------------------------------------------------------------ shared


def _graded_reps(
    fault_list: FaultList,
    skip: frozenset[int],
    only: Sequence[int] | None = None,
) -> list[int]:
    reps = fault_list.class_representatives()
    if only is not None:
        wanted = set(only)
        reps = [r for r in reps if r in wanted]
    return [r for r in reps if r not in skip]


def _excited_packed(fault: Fault, trace: GoodTrace) -> bool:
    forced = trace.lanes.mask if fault.stuck else 0
    return trace.values[0][fault.net] != forced


def _excited_sequence(fault: Fault, trace: GoodTrace) -> bool:
    site, forced = fault.net, fault.stuck
    return any(values[site] != forced for values in trace.values)


def _excited(fault: Fault, trace: GoodTrace, packed: bool) -> bool:
    """Differential-equivalent excitation: did the good machine ever put
    the opposite value on the fault site?  A pure good-trace property, so
    every engine reports the identical flag."""
    if packed:
        return _excited_packed(fault, trace)
    return _excited_sequence(fault, trace)


# ------------------------------------------------------------- differential


class DifferentialEngine:
    """Per-fault event-driven grading (the historical campaign engine)."""

    name = "differential"

    def grade(
        self,
        netlist: Netlist,
        stimulus: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        *,
        name: str = "",
        skip: frozenset[int] = frozenset(),
        only: Sequence[int] | None = None,
    ) -> CampaignResult:
        packed = not netlist.dffs
        trace = good_trace_for(netlist, stimulus, packed=packed)
        sim = DifferentialFaultSimulator(netlist)
        if plan.observes_everything:
            observe_nets = None
        elif packed:
            observe_nets = [plan.packed_net_masks(netlist)]
        else:
            observe_nets = plan.net_masks(netlist, trace.lanes.mask)
        result = CampaignResult(
            name or netlist.name, fault_list,
            n_patterns=len(stimulus), pruned=set(skip),
        )
        for rep in _graded_reps(fault_list, skip, only):
            detection = sim.simulate_fault(
                fault_list.fault(rep), trace, observe_nets
            )
            result.detections[rep] = detection
            if detection.detected:
                result.detected.add(rep)
        return result


# ------------------------------------------------------------ prune modes


def prune_sets(
    netlist: Netlist, fault_list: FaultList, mode: str
) -> tuple[frozenset[int], frozenset[int]]:
    """The ``(skip, proven)`` sets for a normalised prune mode.

    ``skip`` is what the engines do not simulate (the SCOAP structural
    screen); ``proven`` is the SAT-certified-redundant subset excluded
    from coverage denominators (empty unless ``mode == "proven"``).
    """
    if not mode:
        return frozenset(), frozenset()
    # Local imports: repro.analysis.scoap imports this package's fault
    # model and repro.formal sits above both, so the dependencies must
    # stay one-way at load time.
    from repro.analysis.scoap import compute_scoap, untestable_fault_classes

    analysis = compute_scoap(netlist)
    skip = frozenset(untestable_fault_classes(fault_list, analysis))
    if mode != "proven":
        return skip, frozenset()
    from repro.formal.redundancy import prove_untestable

    screen = prove_untestable(
        netlist, fault_list, candidates=skip, analysis=analysis
    )
    return skip, screen.proven


# ----------------------------------------------------------------- selection

#: Engine names ``GradeOptions(engine=...)`` accepts besides ``"auto"``.
_ENGINE_NAMES = ("differential", "packed")

#: "auto" prefers the packed engine only on combinational circuits at
#: least this deep: below it (wide, shallow mux trees) word-wide cone
#: evaluation loses to the differential engine's per-fault early exits.
AUTO_MIN_DEPTH = 6

#: "auto" sends a sequential circuit to the packed engine when at least
#: this share of its stimulus cycles are held (repeat the previous input
#: vector): the packed walk then skips whole held runs for every fault
#: lane at once.  Measured on phase A, only MulD (98%) qualifies; RegF
#: (0%), PLN (24%), MCTRL (48%), PCL (50%) and GL (50%) grade faster on
#: the differential engine.
AUTO_MIN_HELD_SHARE = 0.9


def engine_names() -> tuple[str, ...]:
    """The selectable engine names (``"auto"`` excluded)."""
    return _ENGINE_NAMES


def get_engine(name: str) -> FaultSimEngine:
    """Instantiate the engine called ``name`` with its default settings."""
    if name == "differential":
        return DifferentialEngine()
    if name == "packed":
        # Local import: the packed engine reuses this module's helpers,
        # so it can only load once the module body has finished.
        from repro.faultsim.packed import PackedEngine

        return PackedEngine()
    known = ", ".join(("auto", *_ENGINE_NAMES))
    raise FaultSimError(f"unknown engine {name!r} (choose from {known})")


def default_engine_name(
    netlist: Netlist, stimulus: Stimulus | None = None
) -> str:
    """The engine ``"auto"`` resolves to for one netlist and stimulus.

    Combinational: deep cones go to the packed engine, very shallow
    ones to the differential engine (per-fault early exits dominate).
    Sequential: the packed engine when at least
    :data:`AUTO_MIN_HELD_SHARE` of the stimulus cycles are held, else
    the differential engine (also when no stimulus is given).
    """
    if netlist.dffs:
        if stimulus is not None and held_share(stimulus) >= AUTO_MIN_HELD_SHARE:
            return "packed"
        return "differential"
    if depth(netlist) < AUTO_MIN_DEPTH:
        return "differential"
    return "packed"


def resolve_engine(
    netlist: Netlist,
    options: GradeOptions,
    stimulus: Stimulus | None = None,
) -> FaultSimEngine:
    """The engine ``options`` select for ``netlist``, ready to grade.

    Folds ``runtime.engine`` in, resolves ``"auto"`` per netlist and
    stimulus (:func:`default_engine_name`) and hands the packed engine
    its lane count.  :func:`grade`, the shard workers and the campaign's
    shard planner all build their engine here.
    """
    name = options.effective_engine()
    if name == "auto":
        name = default_engine_name(netlist, stimulus)
    if name == "packed":
        from repro.faultsim.packed import PackedEngine

        return PackedEngine(lanes=options.lanes)
    return get_engine(name)


# --------------------------------------------------------------- collapsing


def _grade_collapsed(
    selected: FaultSimEngine,
    netlist: Netlist,
    stimulus: Stimulus,
    fault_list: FaultList,
    plan: ObservePlan,
    cmap: CollapseMap,
    *,
    name: str = "",
    skip: frozenset[int] = frozenset(),
    supers: Sequence[int] | None = None,
    restrict: frozenset[int] | None = None,
) -> CampaignResult:
    """Grade super-class representatives only, then expand verdicts.

    Two engine passes at most:

    1. every non-dominator super-class simulates its *sim unit* — the
       first canonical-order member not in ``skip`` (a per-super choice,
       independent of sharding, so partitioned runs agree);
    2. dominators are walked children-before-parents: a detected child
       lets the dominator *infer* a detection (same cycle/lanes witness,
       see the module docstring caveat); dominators whose children are
       all undetected — or graded elsewhere (cross-shard) — fall into
       one second engine pass.

    Every engine verdict is then copied onto the super's members:
    detected verdicts verbatim (equivalent machines differ identically),
    undetected ones with the member's own good-trace excitation flag so
    the record is field-for-field what an uncollapsed run reports.

    ``supers`` restricts grading to the listed super-class keys (a shard
    of ``cmap.simulation_order()``); ``restrict`` additionally limits
    *expanded* verdicts to the listed class representatives (the
    ``grade(subset=...)`` contract).
    """
    ordered = list(supers) if supers is not None else cmap.simulation_order()
    unit_of: dict[int, int] = {}
    for s in ordered:
        for member in cmap.members(s):
            if member not in skip:
                unit_of[s] = member
                break
    graded = [s for s in ordered if s in unit_of]

    verdicts: dict[int, Detection] = {}
    n_simulated = 0

    def simulate(batch: list[int]) -> None:
        nonlocal n_simulated
        if not batch:
            return
        units = [unit_of[s] for s in batch]
        partial = selected.grade(
            netlist, stimulus, fault_list, plan,
            name=name or netlist.name, skip=skip, only=units,
        )
        for s, unit in zip(batch, units, strict=True):
            verdicts[s] = partial.detections[unit]
        n_simulated += len(units)

    simulate([s for s in graded if not cmap.is_dominator(s)])

    n_inferred = 0
    pending: list[int] = []
    graded_set = set(graded)
    for dom in cmap.dominator_order():
        if dom not in graded_set:
            continue
        inferred = None
        for child in cmap.children[dom]:
            child_verdict = verdicts.get(child)
            if child_verdict is not None and child_verdict.detected:
                inferred = Detection(
                    True, child_verdict.cycle, child_verdict.lanes,
                    excited=True,
                )
                break
        if inferred is None:
            # All children undetected, skipped, or graded in another
            # shard: simulate the dominator itself (exact, conservative).
            pending.append(dom)
        else:
            verdicts[dom] = inferred
            n_inferred += 1
    simulate(pending)

    result = CampaignResult(
        name or netlist.name, fault_list,
        n_patterns=len(stimulus), pruned=set(skip),
    )
    packed = not netlist.dffs
    trace = good_trace_for(netlist, stimulus, packed=packed)
    for s in graded:
        verdict = verdicts[s]
        unit = unit_of[s]
        for member in cmap.members(s):
            if member in skip:
                continue
            if restrict is not None and member not in restrict:
                continue
            if verdict.detected or member == unit:
                result.detections[member] = verdict
            else:
                result.detections[member] = Detection(
                    False,
                    excited=_excited(fault_list.fault(member), trace, packed),
                )
            if verdict.detected:
                result.detected.add(member)
    result.n_simulated = n_simulated
    result.n_inferred = n_inferred
    result.collapse_hash = cmap.collapse_hash
    return result


# ------------------------------------------------------------------- facade


def grade(
    netlist: Netlist,
    stimulus: Stimulus,
    faults: FaultList | None = None,
    options: GradeOptions | None = None,
) -> CampaignResult:
    """Grade a fault universe against a stimulus — the one entry point.

    Canonical call::

        grade(netlist, stimulus, faults, GradeOptions(engine="packed"))

    Every grading knob lives on :class:`GradeOptions` (see its field
    docs).

    Args:
        netlist: the circuit.  DFF-free netlists take ``stimulus`` as an
            unordered pattern set; sequential ones as an in-order cycle
            sequence applied from reset.
        stimulus: per entry, ``{input port: value}``.
        faults: the fault universe (default: build and collapse it).
        options: the validated grading options (engine selection,
            observability, pruning, subsetting, collapsing, persistent
            caching, packed-lane width).

    Returns:
        The campaign result; verdicts are engine-invariant.  When
        ``options.cache`` is set and the store holds a record for this
        exact (netlist, stimulus, observability, prune mode, collapse)
        fingerprint, the result is replayed from disk with
        ``cache_hit=True`` and zero simulated classes.
    """
    opts = options if options is not None else GradeOptions()

    combinational = not netlist.dffs
    if not stimulus:
        raise FaultSimError(
            "no patterns to apply" if combinational else "no cycles to apply"
        )
    cmap = opts.collapse_map
    if cmap is not None:
        if faults is not None and cmap.fault_list is not faults:
            raise FaultSimError(
                "collapse map was computed over a different fault list; "
                "pass the map's own fault_list (or neither)"
            )
        fault_list = cmap.fault_list
    else:
        fault_list = (
            faults if faults is not None else build_fault_list(netlist)
        )
        if opts.collapse is True:
            # Local import: repro.analysis.collapse imports this
            # package's fault model, so the dependency stays one-way.
            from repro.analysis.collapse import compute_collapse

            cmap = compute_collapse(netlist, fault_list)
    plan = ObservePlan.from_spec(opts.observe, len(stimulus), netlist)
    label = opts.name or netlist.name
    selected = resolve_engine(netlist, opts, stimulus)
    mode = opts.prune_mode

    # Persistent store: activate it for good-trace sharing either way,
    # and replay the whole verdict record when this exact grade (same
    # structure, stimulus, observability, pruning, collapse universe)
    # already ran.  Subset grades are shard-local and never stored —
    # the campaign layer caches the merged full-universe result instead.
    store = opts.store
    previous_store = set_active_store(store) if store is not None else None
    try:
        store_key = ""
        if store is not None and opts.subset is None:
            store_key = verdict_key_for(
                store, netlist, stimulus, plan, fault_list,
                prune_mode=mode,
                collapse_hash=cmap.collapse_hash if cmap is not None else "",
            )
            payload = store.load_verdicts(store_key)
            if payload is not None:
                try:
                    if int(payload["n_classes"]) == fault_list.n_collapsed:  # type: ignore[arg-type]
                        return result_from_payload(
                            payload, label, fault_list
                        )
                except (KeyError, TypeError, ValueError):
                    pass  # malformed record: fall through and re-grade

        skip, proven = prune_sets(netlist, fault_list, mode)
        if cmap is not None:
            supers: Sequence[int] | None = None
            restrict: frozenset[int] | None = None
            if opts.subset is not None:
                restrict = frozenset(opts.subset)
                wanted = {
                    cmap.super_of[r] for r in restrict if r in cmap.super_of
                }
                supers = [s for s in cmap.simulation_order() if s in wanted]
            result = _grade_collapsed(
                selected, netlist, stimulus, fault_list, plan, cmap,
                name=label, skip=skip, supers=supers, restrict=restrict,
            )
        else:
            result = selected.grade(
                netlist, stimulus, fault_list, plan,
                name=label, skip=skip, only=opts.subset,
            )
            result.pruned = set(skip)
            result.n_simulated = len(
                _graded_reps(fault_list, skip, opts.subset)
            )
        result.proven = set(proven)
        if store is not None and store_key:
            store.save_verdicts(store_key, verdicts_payload(result))
        return result
    finally:
        if store is not None:
            set_active_store(previous_store)
