"""The component-level fault-grading result.

A campaign grades a component netlist against the stimulus that reaches
it during self-test execution (an unordered pattern set for a
combinational component, the exact traced cycle sequence for a sequential
one) through :func:`repro.faultsim.engine.grade`; :class:`CampaignResult`
is what every engine and the facade return.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import FaultSimError
from repro.faultsim.coverage import ComponentCoverage
from repro.faultsim.differential import Detection
from repro.faultsim.faults import Fault, FaultList


class _FaultListField:
    """``CampaignResult.fault_list``: a :class:`FaultList`, or a
    zero-argument builder that runs on first read.

    A store replay passes a builder, so coverage, Table 5 and the
    per-class detections never build the universe; the first per-fault
    access (``undetected_faults()``, a diagnosis) does, and checks it
    against the record's class count.
    """

    def __get__(
        self, result: CampaignResult | None, owner: type | None = None
    ) -> FaultList:
        if result is None:
            # No class-level default: the dataclass field stays required.
            raise AttributeError("fault_list")
        value = result.__dict__["_fault_list"]
        if isinstance(value, FaultList):
            return value
        fault_list = value()
        if (
            result.n_classes is not None
            and fault_list.n_collapsed != result.n_classes
        ):
            raise FaultSimError(
                f"{result.name}: the rebuilt fault universe has "
                f"{fault_list.n_collapsed} classes but the replayed record "
                f"has {result.n_classes}"
            )
        result.__dict__["_fault_list"] = fault_list
        return fault_list

    def __set__(
        self,
        result: CampaignResult,
        value: FaultList | Callable[[], FaultList],
    ) -> None:
        result.__dict__["_fault_list"] = value


@dataclass
class CampaignResult:
    """Detailed outcome of grading one component.

    Attributes:
        name: campaign label.
        fault_list: the component's fault universe.  A store replay
            builds it on first read (see ``n_classes``).
        detected: representative fault indices that were detected.
        detections: per representative index, the Detection record.
        n_patterns: number of patterns / cycles applied.
        proven: representatives holding a SAT redundancy certificate
            (UNSAT good/faulty miter, :mod:`repro.formal.redundancy`).
            These — and only these — are excluded from the FC
            denominator.  They are still simulated (and never detected);
            empty unless grading ran with ``prune_untestable="proven"``.
        n_simulated: fault classes the engine actually simulated.  With
            structural collapsing (``grade(collapse=...)``) this is the
            super-class sim-unit count; without it, the graded class
            count.  Coverage never depends on it — it is the workload
            accounting the collapse benchmark reports.
        n_inferred: dominator verdicts inferred from a detected child
            instead of simulated (0 without collapsing).
        collapse_hash: digest of the applied
            :class:`~repro.analysis.collapse.CollapseMap` (empty when
            grading ran uncollapsed); recorded in checkpoint
            fingerprints so resumed shards never mix universes.
        cache_hit: True when the whole result was replayed from the
            persistent store (:class:`~repro.faultsim.store.TraceStore`)
            instead of simulated — ``n_simulated`` is 0 in that case.
        n_classes: the class count a replayed record states; ``None``
            otherwise.  Set, it is ``n_faults`` without building the
            fault list, and a lazily built list must match it.
    """

    name: str
    fault_list: _FaultListField = _FaultListField()
    detected: set[int] = field(default_factory=set)
    detections: dict[int, Detection] = field(default_factory=dict)
    n_patterns: int = 0
    proven: set[int] = field(default_factory=set)
    n_simulated: int = 0
    n_inferred: int = 0
    collapse_hash: str = ""
    cache_hit: bool = False
    n_classes: int | None = None

    @property
    def n_faults(self) -> int:
        if self.n_classes is not None:
            return self.n_classes
        return self.fault_list.n_collapsed

    @property
    def n_effective_faults(self) -> int:
        """FC denominator: collapsed classes minus proven-redundant."""
        return self.n_faults - len(self.proven)

    @property
    def n_detected(self) -> int:
        return len(self.detected)

    @property
    def fault_coverage(self) -> float:
        if self.n_effective_faults == 0:
            return 100.0
        return 100.0 * self.n_detected / self.n_effective_faults

    def undetected_faults(self) -> list[Fault]:
        """Representative faults that survived the test (for diagnosis)."""
        return [
            self.fault_list.fault(rep)
            for rep in self.fault_list.class_representatives()
            if rep not in self.detected
        ]

    @property
    def n_never_excited(self) -> int:
        """Undetected faults whose site never took the opposite value.

        These cannot be detected by *any* observability improvement — the
        stimulus never drives them (e.g. high PC/address bits in a small
        test footprint).  The remainder of the undetected set was excited
        but failed to propagate to an observed output.
        """
        return sum(
            1
            for rep, detection in self.detections.items()
            if not detection.detected and not detection.excited
        )

    @property
    def n_proven(self) -> int:
        """Classes excluded from the denominator with a SAT certificate."""
        return len(self.proven)

    @property
    def n_excited_unobserved(self) -> int:
        """Undetected faults that were excited but never observed."""
        return self.n_faults - self.n_detected - self.n_never_excited

    def excitation_report(self) -> str:
        """One-line FC breakdown used by verbose campaigns and analyses."""
        proven = (
            f" ({self.n_proven} proven-redundant, excluded)"
            if self.proven else ""
        )
        return (
            f"{self.name}: FC {self.fault_coverage:.2f}% "
            f"({self.n_detected}/{self.n_effective_faults}); undetected: "
            f"{self.n_never_excited} never excited, "
            f"{self.n_excited_unobserved} excited-but-unobserved{proven}"
        )

    def to_component_coverage(
        self, nand2: int = 0, degraded: bool = False
    ) -> ComponentCoverage:
        return ComponentCoverage(
            name=self.name,
            n_faults=self.n_faults,
            n_detected=self.n_detected,
            nand2=nand2,
            degraded=degraded,
            n_proven=self.n_proven,
        )
