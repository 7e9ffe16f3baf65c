"""Fault-simulation engines behind one facade: :func:`grade`.

Two interchangeable engines grade a fault universe against a stimulus:

* ``differential`` — per-fault event-driven difference propagation against
  the recorded good trace (:mod:`repro.faultsim.differential`).  The
  independent reference oracle; it also wins when most faults drop
  quickly or never excite (sequential traces, shallow circuits).
* ``packed`` — fault-parallel bit-packed grading through generated
  kernels (:mod:`repro.faultsim.packed`): a group of fault classes rides
  one big-int word.  The fast path for deep combinational cones and for
  sequential grades whose classes are dense against the logic their
  stimulus moves (one fan-out-cone kernel per batch).

Both implement the :class:`FaultSimEngine` protocol; ``engine="auto"``
picks per netlist and stimulus (:func:`default_engine_name`), and
:func:`resolve_engine` is the one place an options object becomes an
engine instance.  :class:`PreparedGrade` is the one grading pipeline —
store lookup, collapse, engine, prune, grade a slice, store write —
behind both :func:`grade` and the campaign's shards.

Detection verdicts — the ``detected`` flag, the ``excited`` flag and (for
sequential stimulus) the first detecting cycle — are engine-invariant and
cross-checked by the equivalence test-suite.  On a combinational
(pattern-parallel) grade ``Detection.lanes`` is a *partial witness* (at
least one detecting lane), not an exhaustive lane set: engines that
short-circuit or drop faults may report fewer lanes.  A sequential
stimulus has a single lane, so every sequential detection reports
``lanes=1``.

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
from functools import cached_property, partial
from typing import TYPE_CHECKING, Protocol

from repro.errors import FaultSimError
from repro.faultsim.differential import Detection, DifferentialFaultSimulator
from repro.faultsim.faults import Fault, FaultList, build_fault_list
from repro.faultsim.harness import CampaignResult
from repro.faultsim.held import held_share
from repro.faultsim.observe import ObservePlan
from repro.faultsim.options import (
    DEFAULT_LANES,
    GradeOptions,
    resolve_prune_mode,
)
from repro.faultsim.simulator import GoodTrace
from repro.faultsim.store import verdict_key_for, verdicts_payload
from repro.faultsim.trace_cache import good_trace_for
from repro.netlist.levelize import depth
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see PreparedGrade)
    from repro.analysis.collapse import CollapseMap

__all__ = [
    "AUTO_MIN_CLASSES_PER_MOVING_GATE",
    "AUTO_MIN_DEPTH",
    "DifferentialEngine",
    "FaultSimEngine",
    "GradeOptions",
    "PreparedGrade",
    "auto_choice",
    "default_engine_name",
    "engine_names",
    "get_engine",
    "grade",
    "prune_set",
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
        only: Sequence[int] | None = None,
    ) -> CampaignResult:
        """Grade every collapsed fault class.

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
    fault_list: FaultList, only: Sequence[int] | None = None
) -> list[int]:
    reps = fault_list.class_representatives()
    if only is None:
        return reps
    wanted = set(only)
    return [r for r in reps if r in wanted]


def _excited_packed(fault: Fault, trace: GoodTrace) -> bool:
    forced = trace.lanes.mask if fault.stuck else 0
    return trace.values[0][fault.net] != forced


def _excited_sequence(fault: Fault, trace: GoodTrace) -> bool:
    return trace.ever(fault.net, 1 - fault.stuck)


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
            name or netlist.name, fault_list, n_patterns=len(stimulus)
        )
        for rep in _graded_reps(fault_list, only):
            detection = sim.simulate_fault(
                fault_list.fault(rep), trace, observe_nets
            )
            result.detections[rep] = detection
            if detection.detected:
                result.detected.add(rep)
        return result


# ------------------------------------------------------------ prune modes


def prune_set(
    netlist: Netlist, fault_list: FaultList, mode: str
) -> frozenset[int]:
    """The classes a normalised prune mode removes from the FC denominator.

    Empty unless ``mode == "proven"``; then the SCOAP-screened classes
    that hold a SAT redundancy certificate.  Every class is simulated
    either way: the set only moves the denominator.
    """
    if not mode:
        return frozenset()
    # Local import: repro.formal sits above this package (it imports the
    # fault model), so the dependency must stay one-way at load time.
    from repro.formal.redundancy import prove_untestable

    return prove_untestable(netlist, fault_list).proven


# ----------------------------------------------------------------- selection

#: Engine names ``GradeOptions(engine=...)`` accepts besides ``"auto"``.
_ENGINE_NAMES = ("differential", "packed")

#: "auto" prefers the packed engine only on combinational circuits at
#: least this deep: below it (wide, shallow mux trees) word-wide cone
#: evaluation loses to the differential engine's per-fault early exits.
AUTO_MIN_DEPTH = 6

#: "auto" sends a sequential grade to the packed engine when the classes
#: it simulates number at least this many times the netlist's gates
#: times the share of moving (not held) stimulus cycles.  The packed
#: walk compiles one cone kernel per batch of classes and then walks
#: only the moving cycles that some lane is active in, so it pays once
#: the classes are dense against the logic they exercise.  On phase A
#: every full-universe grade clears the bar by 9x or more (RegF: 21,056
#: classes against 3,043 gates, all moving); of the benchmark's sampled
#: grades only MulD's does (147 against 1,163 gates, 2% moving), and
#: sparse ones such as RegF's (576 classes) stay differential.
AUTO_MIN_CLASSES_PER_MOVING_GATE = 1.0


def engine_names() -> tuple[str, ...]:
    """The selectable engine names (``"auto"`` excluded)."""
    return _ENGINE_NAMES


def get_engine(name: str, lanes: int = DEFAULT_LANES) -> FaultSimEngine:
    """Instantiate the engine called ``name``; the packed engine gets
    ``lanes`` lane groups (the differential engine has no lanes)."""
    if name == "differential":
        return DifferentialEngine()
    if name == "packed":
        # Local import: the packed engine reuses this module's helpers,
        # so it can only load once the module body has finished.
        from repro.faultsim.packed import PackedEngine

        return PackedEngine(lanes=lanes)
    known = ", ".join(("auto", *_ENGINE_NAMES))
    raise FaultSimError(f"unknown engine {name!r} (choose from {known})")


def auto_choice(
    netlist: Netlist,
    stimulus: Stimulus | None = None,
    n_classes: int | None = None,
) -> tuple[str, str]:
    """The engine ``"auto"`` picks, and the inputs of its rule as text.

    Combinational: deep cones go to the packed engine, very shallow
    ones to the differential engine (per-fault early exits dominate).
    Sequential: the packed engine when ``n_classes`` (default: the
    canonical universe's) reaches :data:`AUTO_MIN_CLASSES_PER_MOVING_GATE`
    times the gates times the share of stimulus cycles that are not
    held, else the differential engine (also when no stimulus is given).
    """
    if not netlist.dffs:
        d = depth(netlist)
        if d < AUTO_MIN_DEPTH:
            return "differential", f"depth {d} < {AUTO_MIN_DEPTH}"
        return "packed", f"depth {d} ≥ {AUTO_MIN_DEPTH}"
    if stimulus is None:
        return "differential", "no stimulus"
    if n_classes is None:
        n_classes = build_fault_list(netlist).n_collapsed
    gates = len(netlist.gates)
    moving = 1.0 - held_share(stimulus)
    k = AUTO_MIN_CLASSES_PER_MOVING_GATE
    dense = n_classes >= k * gates * moving
    relation = "≥" if dense else "<"
    factor = "" if k == 1 else f"{k:g} × "
    rule = (
        f"{n_classes:,} classes {relation} {factor}{gates:,} gates "
        f"× {moving:.0%} moving"
    )
    return ("packed" if dense else "differential"), rule


def default_engine_name(
    netlist: Netlist,
    stimulus: Stimulus | None = None,
    n_classes: int | None = None,
) -> str:
    """The engine ``"auto"`` resolves to (see :func:`auto_choice`)."""
    return auto_choice(netlist, stimulus, n_classes)[0]


def resolve_engine(
    netlist: Netlist,
    options: GradeOptions,
    stimulus: Stimulus | None = None,
    n_classes: int | None = None,
) -> FaultSimEngine:
    """The engine ``options`` select for ``netlist``, ready to grade.

    Resolves ``"auto"`` per netlist, stimulus and simulated class count
    (:func:`default_engine_name`) and hands the packed engine its lane
    count.  :class:`PreparedGrade` builds every grade's engine here.
    """
    name = options.engine
    if name == "auto":
        name = default_engine_name(netlist, stimulus, n_classes)
    return get_engine(name, lanes=options.lanes)


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
    supers: Sequence[int] | None = None,
    restrict: frozenset[int] | None = None,
) -> CampaignResult:
    """Grade super-class representatives only, then expand verdicts.

    Two engine passes at most:

    1. every non-dominator super-class simulates its *sim unit* — its
       first canonical-order member (a per-super choice, independent of
       sharding, so partitioned runs agree);
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
    graded = list(supers) if supers is not None else cmap.simulation_order()
    unit_of = {s: cmap.members(s)[0] for s in graded}

    verdicts: dict[int, Detection] = {}
    n_simulated = 0

    def simulate(batch: list[int]) -> None:
        nonlocal n_simulated
        if not batch:
            return
        units = [unit_of[s] for s in batch]
        batch_result = selected.grade(
            netlist, stimulus, fault_list, plan,
            name=name or netlist.name, only=units,
        )
        for s, unit in zip(batch, units, strict=True):
            verdicts[s] = batch_result.detections[unit]
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
            # All children undetected, or graded in another shard:
            # simulate the dominator itself (exact, conservative).
            pending.append(dom)
        else:
            verdicts[dom] = inferred
            n_inferred += 1
    simulate(pending)

    result = CampaignResult(
        name or netlist.name, fault_list, n_patterns=len(stimulus)
    )
    packed = not netlist.dffs
    trace = good_trace_for(netlist, stimulus, packed=packed)
    for s in graded:
        verdict = verdicts[s]
        unit = unit_of[s]
        for member in cmap.members(s):
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




# ----------------------------------------------------------- prepared grade


class PreparedGrade:
    """One fault grade, prepared once: the store lookup → collapse →
    engine → prune → slice pipeline behind :func:`grade` and every
    campaign shard.

    Built from ``(netlist, stimulus, fault_list, options)``, where
    ``options`` carries this grade's observability spec and label and
    ``fault_list`` may be ``None`` (the canonical universe, built on
    first use).  The observe plan and the verdict key come first, so
    :meth:`replay` reads a stored record before anything else is built:
    a hit builds no fault list.  An :class:`ObservePlan` in the options
    (what :func:`repro.core.campaign.trace_program` supplies) is used
    as is, after its per-netlist port check, so a repeated grade reuses
    its signature and net projections.  The fault list, the collapse
    map, the engine, the proven-redundant prune set and the universe are
    built lazily, on a miss, and then shared by every slice this object
    grades.
    """

    def __init__(
        self,
        netlist: Netlist,
        stimulus: Stimulus,
        fault_list: FaultList | None,
        options: GradeOptions,
    ):
        self.netlist = netlist
        self.stimulus = stimulus
        if fault_list is not None:
            self.fault_list = fault_list
        self.options = options
        self.name = options.name or netlist.name
        self.plan = ObservePlan.from_spec(
            options.observe, len(stimulus), netlist
        )

    @cached_property
    def fault_list(self) -> FaultList:
        """The fault universe: the one given, else the canonical
        :func:`build_fault_list` universe (which ``FAULT_EPOCH`` in the
        key versions)."""
        return build_fault_list(self.netlist)

    @cached_property
    def key(self) -> str:
        """The store key of this full-universe grade (``""`` uncached).

        ``collapse=True`` and a precomputed map address one record: the
        key carries the collapse and fault-universe epoch tags, not the
        map or the fault list, so the lookup needs neither.
        """
        store = self.options.store
        if store is None:
            return ""
        epoch = ""
        if self.options.collapse_requested:
            from repro.analysis.collapse import COLLAPSE_EPOCH

            epoch = COLLAPSE_EPOCH
        return verdict_key_for(
            store, self.netlist, self.stimulus, self.plan,
            prune_mode=self.options.prune_mode, collapse_epoch=epoch,
        )

    def replay(self) -> CampaignResult | None:
        """The stored verdict record replayed (``cache_hit=True``), if any.

        Without a fault list yet, the replayed result builds its own on
        first per-fault access; this object stays without one.
        """
        store = self.options.store
        if store is None:
            return None
        faults = self.__dict__.get("fault_list")  # given or built already
        if faults is None:
            faults = partial(build_fault_list, self.netlist)
        return store.replay_verdicts(self.key, self.name, faults)

    def save(self, result: CampaignResult) -> None:
        """Write a full-universe ``result`` back to the store (if any)."""
        store = self.options.store
        if store is not None:
            store.save_verdicts(self.key, verdicts_payload(result))

    @cached_property
    def cmap(self) -> CollapseMap | None:
        cmap = self.options.collapse_map
        if cmap is None and self.options.collapse is True:
            # Local import: repro.analysis.collapse imports this
            # package's fault model, so the dependency stays one-way.
            from repro.analysis.collapse import compute_collapse

            cmap = compute_collapse(self.netlist, self.fault_list)
        return cmap

    @cached_property
    def n_units(self) -> int:
        """The classes this grade simulates, which ``"auto"`` weighs:
        the whole universe, or the units of the options' subset.  Every
        slice of one grade therefore picks the same engine."""
        subset = self.options.subset
        if subset is None:
            return len(self.universe)
        cmap = self.cmap
        if cmap is not None:
            return len({cmap.super_of[r] for r in subset if r in cmap.super_of})
        return len(_graded_reps(self.fault_list, subset))

    @cached_property
    def engine(self) -> FaultSimEngine:
        return resolve_engine(
            self.netlist, self.options, self.stimulus, self.n_units
        )

    @property
    def engine_reason(self) -> str:
        """Why ``"auto"`` picked :attr:`engine` (empty for a named one)."""
        if self.options.engine != "auto":
            return ""
        return auto_choice(self.netlist, self.stimulus, self.n_units)[1]

    @cached_property
    def proven(self) -> frozenset[int]:
        """The options' prune set: classes left out of the denominator."""
        return prune_set(
            self.netlist, self.fault_list, self.options.prune_mode
        )

    @cached_property
    def universe(self) -> list[int]:
        """What shard bounds index: base class representatives
        uncollapsed, super-class keys in simulation order collapsed."""
        if self.cmap is not None:
            return self.cmap.simulation_order()
        return self.fault_list.class_representatives()

    def grade(
        self,
        units: Sequence[int] | None = None,
        *,
        subset: Sequence[int] | None = None,
    ) -> CampaignResult:
        """Grade ``units`` — a slice of :attr:`universe`, default all of
        it — or only the class representatives in ``subset`` (the
        ``GradeOptions.subset`` contract)."""
        store = self.options.store
        if store is not None:
            # Load (or build and save) the good trace through the store
            # once; the engines then find it in the in-memory cache.
            good_trace_for(
                self.netlist, self.stimulus,
                packed=not self.netlist.dffs, store=store,
            )
        cmap = self.cmap
        if cmap is not None:
            restrict: frozenset[int] | None = None
            if subset is not None:
                restrict = frozenset(subset)
                wanted = {
                    cmap.super_of[r] for r in restrict if r in cmap.super_of
                }
                units = [s for s in self.universe if s in wanted]
            result = _grade_collapsed(
                self.engine, self.netlist, self.stimulus, self.fault_list,
                self.plan, cmap, name=self.name, supers=units,
                restrict=restrict,
            )
        else:
            only = subset if subset is not None else units
            result = self.engine.grade(
                self.netlist, self.stimulus, self.fault_list, self.plan,
                name=self.name, only=only,
            )
            result.n_simulated = len(_graded_reps(self.fault_list, only))
        result.proven = set(self.proven)
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
        faults: the fault universe (default: the canonical one, built
            and collapsed on a store miss only).
        options: the validated grading options (engine selection,
            observability, pruning, subsetting, collapsing, persistent
            caching, packed-lane width).

    Returns:
        The campaign result; verdicts are engine-invariant.  When
        ``options.cache`` is set and the store holds a record for this
        exact (netlist, stimulus, observability, prune mode, collapse
        epoch) fingerprint, the result is replayed from disk with
        ``cache_hit=True`` and zero simulated classes; a hit builds no
        fault list (unless ``faults`` or a map supplied one), collapse
        map, engine, prune set or good trace (:class:`PreparedGrade`).
        Subset grades are shard-local: they are neither replayed nor
        stored.
    """
    opts = options if options is not None else GradeOptions()
    if not stimulus:
        raise FaultSimError(
            "no cycles to apply" if netlist.dffs else "no patterns to apply"
        )
    cmap = opts.collapse_map
    fault_list = faults
    if cmap is not None:
        if faults is not None and cmap.fault_list is not faults:
            raise FaultSimError(
                "collapse map was computed over a different fault list; "
                "pass the map's own fault_list (or neither)"
            )
        fault_list = cmap.fault_list
    prepared = PreparedGrade(netlist, stimulus, fault_list, opts)
    if opts.subset is not None:
        return prepared.grade(subset=opts.subset)
    cached = prepared.replay()
    if cached is not None:
        return cached
    result = prepared.grade()
    prepared.save(result)
    return result
