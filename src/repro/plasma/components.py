"""Component registry: the Plasma RT-level component inventory.

One entry per row of the paper's Table 2/3, carrying the classification,
the gate-level netlist generator and descriptive metadata.  Everything that
consumes "the set of processor components" (the methodology's
classification/priority steps, the fault-grading campaign, the table
renderers) reads this registry.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

from repro.library import (
    build_alu,
    build_barrel_shifter,
    build_muldiv,
    build_register_file,
)
from repro.netlist.netlist import Netlist
from repro.netlist.stats import NetlistStats, gate_count
from repro.plasma.busmux import build_busmux
from repro.plasma.control_unit import build_control
from repro.plasma.glue import build_glue
from repro.plasma.mctrl import build_mctrl
from repro.plasma.pclogic import build_pclogic
from repro.plasma.pipeline import build_pipeline


class ComponentClass(enum.Enum):
    """The paper's three component classes (Section 2.1)."""

    FUNCTIONAL = "functional"
    CONTROL = "control"
    HIDDEN = "hidden"
    GLUE = "glue"  # residual gates, outside the three named classes


@dataclass(frozen=True)
class ComponentInfo:
    """Registry entry for one processor component.

    Attributes:
        name: short name used across tables (RegF, MulD, ...).
        full_name: descriptive name as printed in the paper's Table 2.
        component_class: functional / control / hidden / glue.
        builder: zero-argument netlist generator.
        sequential: True if the component holds state (graded with a
            cycle-accurate trace instead of an unordered pattern set).
        description: one-line role summary.
    """

    name: str
    full_name: str
    component_class: ComponentClass
    builder: Callable[[], Netlist]
    sequential: bool
    description: str


COMPONENTS: tuple[ComponentInfo, ...] = (
    ComponentInfo(
        "RegF", "Register File", ComponentClass.FUNCTIONAL,
        build_register_file, True,
        "31 writable 32-bit registers, 1 write / 2 read ports",
    ),
    ComponentInfo(
        "MulD", "Multiplier/Divider", ComponentClass.FUNCTIONAL,
        build_muldiv, True,
        "32-cycle shift-add multiplier and restoring divider with HI/LO",
    ),
    ComponentInfo(
        "ALU", "Arithmetic-Logic Unit", ComponentClass.FUNCTIONAL,
        build_alu, False,
        "shared adder/subtractor, bitwise ops, set-less-than",
    ),
    ComponentInfo(
        "BSH", "Barrel Shifter", ComponentClass.FUNCTIONAL,
        build_barrel_shifter, False,
        "5-stage logarithmic shifter, left/right/arithmetic",
    ),
    ComponentInfo(
        "MCTRL", "Memory Control", ComponentClass.CONTROL,
        build_mctrl, True,
        "byte-lane steering, load extraction, bus registers, pause FSM",
    ),
    ComponentInfo(
        "PCL", "Program Counter Logic", ComponentClass.CONTROL,
        build_pclogic, True,
        "PC register, +4 incrementer, branch-condition evaluation",
    ),
    ComponentInfo(
        "CTRL", "Control Logic", ComponentClass.CONTROL,
        build_control, False,
        "opcode/funct decoder producing the control bundle",
    ),
    ComponentInfo(
        "BMUX", "Bus Multiplexer", ComponentClass.CONTROL,
        build_busmux, False,
        "operand-source and write-back bus multiplexers",
    ),
    ComponentInfo(
        "PLN", "Pipeline", ComponentClass.HIDDEN,
        build_pipeline, True,
        "pipeline registers with pause/flush gating",
    ),
    ComponentInfo(
        "GL", "Glue Logic", ComponentClass.GLUE,
        build_glue, True,
        "interrupt synchronisers/mask, reset synchroniser, pause combiner",
    ),
)

_BY_NAME = {c.name: c for c in COMPONENTS}


def component(name: str) -> ComponentInfo:
    """Look a component up by short name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown component {name!r}; have {sorted(_BY_NAME)}"
        ) from None


def build_component(name: str) -> Netlist:
    """Build a fresh netlist for one component."""
    return component(name).builder()


@cache
def component_netlist(info: ComponentInfo) -> Netlist:
    """``info``'s netlist, built once per process and shared read-only.

    The test-development order's area figures, the campaign planner and
    forked pool workers all read this one build, so a campaign builds
    each component once.  Nothing downstream mutates a netlist (grading,
    collapsing and :func:`~repro.netlist.remap.remap_to_nand` only read
    it); callers that want to edit one use :func:`build_component`.
    """
    return info.builder()


@cache
def component_stats(info: ComponentInfo) -> NetlistStats:
    """Gate statistics of ``info``'s netlist as built (Table 3 area),
    measured once per process: the test-development order and every
    campaign read them, and the netlist is deterministic."""
    return gate_count(component_netlist(info))


def component_table() -> list[dict]:
    """Classification + measured gate counts (Tables 2 and 3 in one).

    Returns:
        One dict per component: name, full_name, class, nand2, n_dffs.
    """
    rows = []
    for info in COMPONENTS:
        stats = component_stats(info)
        rows.append(
            {
                "name": info.name,
                "full_name": info.full_name,
                "class": info.component_class.value,
                "nand2": stats.nand2,
                "n_dffs": stats.n_dffs,
                "sequential": info.sequential,
            }
        )
    return rows
