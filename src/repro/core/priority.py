"""Test-priority ordering (paper Section 2.2, Table 1).

Priority is decided by two component characteristics:

1. **class** — functional components first (highest controllability and
   observability through instructions), then control, then hidden;
2. **relative size** — within a class, larger components first, since they
   contribute the most faults to the overall coverage.

Controllability/observability are quantified as the length of the shortest
instruction sequence that applies a pattern to the component
(controllability) or propagates its outputs to the primary outputs
(observability) — Section 2.2's definitions — and the class ordering
follows from those scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.plasma.components import (
    COMPONENTS,
    ComponentClass,
    ComponentInfo,
    component_stats,
)

#: Class rank for test development (lower = earlier), per the paper's
#: Table 1.  Glue is residual and never individually targeted.
CLASS_RANK: dict[ComponentClass, int] = {
    ComponentClass.FUNCTIONAL: 0,
    ComponentClass.CONTROL: 1,
    ComponentClass.HIDDEN: 2,
    ComponentClass.GLUE: 3,
}

#: Shortest instruction sequences for applying a pattern to the component
#: inputs (controllability) and propagating its outputs to the processor
#: outputs (observability), counted on the Plasma ISA.  These are the
#: Section 2.2 metrics behind Table 1's High/Medium/Low entries.
ACCESSIBILITY: dict[str, tuple[int, int]] = {
    # (instructions to control, instructions to observe)
    "RegF": (1, 1),  # any write / sw of any register
    "ALU": (1, 1),  # R-type op on loaded operands / sw of the result
    "BSH": (1, 1),
    "MulD": (1, 2),  # mult strobes it / mflo + sw reads it out
    "MCTRL": (1, 2),  # lb-style access / load into register + sw
    "PCL": (2, 3),  # branch with crafted operands / effect on the flow
    "CTRL": (1, 3),  # any instruction / observable only via its effects
    "BMUX": (1, 2),
    "PLN": (2, 4),  # needs crafted back-to-back sequences
    "GL": (4, 5),  # interrupt paths are barely reachable in user code
}


@dataclass(frozen=True)
class Accessibility:
    """Controllability/observability scores for one component.

    ``control_cost``/``observe_cost`` are the instruction-sequence
    lengths of Section 2.2.  ``scoap_cc``/``scoap_co`` — present when
    computed via :func:`quantitative_accessibility` — are the circuit-
    level counterparts: average SCOAP controllability/observability over
    the component's nets, so the High/Medium/Low judgement is backed by
    a measured number instead of only the hand-derived table.
    """

    name: str
    control_cost: int
    observe_cost: int
    scoap_cc: float | None = None
    scoap_co: float | None = None

    @property
    def grade(self) -> str:
        """Coarse High/Medium/Low grade as printed in the paper's Table 1."""
        total = self.control_cost + self.observe_cost
        if total <= 3:
            return "high"
        if total <= 5:
            return "medium"
        return "low"


def accessibility(name: str) -> Accessibility:
    """Accessibility scores for a component (KeyError if unknown)."""
    control_cost, observe_cost = ACCESSIBILITY[name]
    return Accessibility(name, control_cost, observe_cost)


def quantitative_accessibility(name: str) -> Accessibility:
    """Accessibility with measured SCOAP averages attached.

    Builds the component netlist and averages, over its driven
    non-constant nets, ``max(CC0, CC1)`` (how hard the hardest value is
    to set) and ``CO`` (how hard the net is to observe at the component
    boundary).  Structurally impossible (infinite) terms are excluded
    from the averages — they are reported by the netlist analyzer's
    NL101/NL102 rules instead.
    """
    from repro.analysis.scoap import compute_scoap
    from repro.plasma.components import build_component

    base = accessibility(name)
    netlist = build_component(name)
    analysis = compute_scoap(netlist)
    driven = {g.output for g in netlist.gates}
    driven.update(d.q for d in netlist.dffs)
    driven.update(n for p in netlist.input_ports() for n in p.nets)
    cc_terms = [
        max(analysis.cc0[n], analysis.cc1[n])
        for n in driven
        if max(analysis.cc0[n], analysis.cc1[n]) != float("inf")
    ]
    co_terms = [
        analysis.co[n] for n in driven if analysis.co[n] != float("inf")
    ]
    return Accessibility(
        base.name,
        base.control_cost,
        base.observe_cost,
        scoap_cc=sum(cc_terms) / len(cc_terms) if cc_terms else None,
        scoap_co=sum(co_terms) / len(co_terms) if co_terms else None,
    )


def component_priority(
    info: ComponentInfo, nand2: int
) -> tuple[int, int, int]:
    """Sort key: (class rank, -size, accessibility cost).

    Lower sorts earlier.  The class carries the controllability/
    observability distinction (Table 1); within a class the paper sorts by
    descending size, with accessibility as the tie-breaker.
    """
    scores = accessibility(info.name)
    return (
        CLASS_RANK[info.component_class],
        -nand2,
        scores.control_cost + scores.observe_cost,
    )


def test_development_order(
    components: Sequence[ComponentInfo] | None = None,
    sizes: dict[str, int] | None = None,
) -> list[ComponentInfo]:
    """Order components for test development.

    Args:
        components: registry entries (defaults to the Plasma inventory).
        sizes: known NAND2 gate counts by name; measured from the netlists
            when omitted (the paper's Section 2.2 fallback assumptions —
            register file and multiplier largest — hold either way).

    Returns:
        Components sorted by descending test priority.
    """
    if components is None:
        components = COMPONENTS
    if sizes is None:
        sizes = {c.name: component_stats(c).nand2 for c in components}
    return sorted(
        components, key=lambda c: component_priority(c, sizes.get(c.name, 0))
    )
