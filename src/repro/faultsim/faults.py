"""Single-stuck-at fault universe and structural equivalence collapsing.

Fault sites follow standard practice:

* a **stem** fault on every net (gate outputs, DFF Q outputs, input-port
  nets) stuck at 0 and stuck at 1;
* a **branch** fault on every gate input pin (and DFF D pin) whose driving
  net fans out to more than one reader — with fanout 1 the branch is the
  stem.

Structural equivalence collapsing merges faults that no test can ever
distinguish (AND input s-a-0 with its output s-a-0, inverter pin inversions,
buffer pass-through), using a union-find over fault sites.  Coverage is
reported over the collapsed classes, which is how fault simulators
conventionally report FC.

Ordering contract.  Everything downstream that materializes the fault
universe — collapse hashes (:mod:`repro.analysis.collapse`), shard plans
(:mod:`repro.runtime.sharding`), checkpoint fingerprints — relies on one
deterministic order: faults sort by :func:`fault_sort_key`, i.e. by net,
then stuck polarity, then kind (stem < branch < DFF-D), then reading
gate/pin.  The key is a pure function of the fault's fields (no id(),
no hash seeding, no insertion order), so the order is identical across
Python versions and processes.  :meth:`FaultList.class_representatives`
returns class representatives in this canonical order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.netlist.gates import GateType
from repro.netlist.netlist import CONST0, CONST1, Netlist


#: Version tag of the fault universe :func:`build_fault_list` produces.
#: The universe is a pure function of the netlist structure, so the
#: structural hash plus this tag fixes every fault, its index and its
#: class: persistent-store verdict keys carry the tag instead of the
#: universe's size, which lets a store hit skip building the list.  Bump
#: it on any change to the faults, their order or their classes
#: (``tests/analysis/test_collapse_epoch.py`` pins all three).
FAULT_EPOCH = "faults-v1"


class FaultKind(enum.Enum):
    STEM = "stem"  # fault on a net (affects all readers)
    BRANCH = "branch"  # fault on one gate input pin
    DFF_D = "dff_d"  # fault on one DFF's D pin


@dataclass(frozen=True)
class Fault:
    """One single-stuck-at fault.

    Attributes:
        kind: stem / branch / DFF-D-pin.
        net: the faulted net (stem) or the net feeding the pin (branch).
        stuck: the stuck value, 0 or 1.
        gate: reading gate index for branch faults (-1 otherwise).
        pin: input pin position within the gate (-1 otherwise); for
            ``DFF_D`` the DFF index is stored in ``gate``.
    """

    kind: FaultKind
    net: int
    stuck: int
    gate: int = -1
    pin: int = -1

    def describe(self, netlist: Netlist) -> str:
        name = netlist.net_names.get(self.net, f"n{self.net}")
        if self.kind is FaultKind.STEM:
            return f"{name} s-a-{self.stuck}"
        if self.kind is FaultKind.DFF_D:
            return f"dff{self.gate}.D({name}) s-a-{self.stuck}"
        return f"g{self.gate}.in{self.pin}({name}) s-a-{self.stuck}"


#: Canonical kind order used by :func:`fault_sort_key`.
_KIND_ORDER: dict[FaultKind, int] = {
    FaultKind.STEM: 0,
    FaultKind.BRANCH: 1,
    FaultKind.DFF_D: 2,
}


def fault_sort_key(fault: Fault) -> tuple[int, int, int, int, int]:
    """The canonical fault ordering key: (net, stuck, kind, gate, pin).

    A pure function of the fault's fields, so sorting by it is stable
    across Python versions, interpreter processes and insertion orders —
    the property collapse hashes and shard plans depend on (see the
    module docstring's ordering contract).
    """
    return (fault.net, fault.stuck, _KIND_ORDER[fault.kind],
            fault.gate, fault.pin)


def fault_token(fault: Fault) -> str:
    """Canonical stable serialization of one fault, for hashing.

    Shared by collapse-map hashing (:mod:`repro.analysis.collapse`) and
    the persistent store's record keys — both need the same token so a
    collapse hash computed in one process addresses the same records in
    another.
    """
    return (
        f"{fault.kind.value}:{fault.net}:{fault.stuck}:"
        f"{fault.gate}:{fault.pin}"
    )


class _UnionFind:
    """Union-find over fault ids for equivalence collapsing."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


#: For each collapsible gate type: (input stuck value, output stuck value)
#: pairs that are structurally equivalent.  A controlling value on any input
#: forces the output; XOR-family gates have no such pairs.
_EQUIVALENCE: dict[GateType, tuple[tuple[int, int], ...]] = {
    GateType.AND: ((0, 0),),
    GateType.NAND: ((0, 1),),
    GateType.OR: ((1, 1),),
    GateType.NOR: ((1, 0),),
    GateType.NOT: ((0, 1), (1, 0)),
    GateType.BUF: ((0, 0), (1, 1)),
}


@dataclass
class FaultList:
    """The fault universe of one netlist.

    Attributes:
        netlist: circuit the faults live in.
        faults: every prime (uncollapsed) fault.
        representative: for each fault index, the index of its equivalence
            class representative.
        classes: representative index -> member indices.
    """

    netlist: Netlist
    faults: list[Fault]
    representative: list[int]
    classes: dict[int, list[int]]

    @property
    def n_prime(self) -> int:
        """Total faults before collapsing."""
        return len(self.faults)

    @property
    def n_collapsed(self) -> int:
        """Number of equivalence classes (the FC denominator)."""
        return len(self.classes)

    def class_representatives(self) -> list[int]:
        """Class representatives in canonical fault order.

        Sorted by :func:`fault_sort_key` of the representative's fault
        (net, stuck polarity, kind, gate, pin) — *not* by raw index — so
        the order every consumer sees (engines, shard planners, collapse
        hashing) is a deterministic function of the circuit alone.
        """
        return sorted(
            self.classes.keys(), key=lambda r: fault_sort_key(self.faults[r])
        )

    def fault(self, index: int) -> Fault:
        return self.faults[index]


def build_fault_list(netlist: Netlist, collapse: bool = True) -> FaultList:
    """Enumerate and (optionally) collapse the stuck-at fault universe.

    Faults are appended in the canonical enumeration order — stems of
    the sorted live nets, then branch pins in gate/pin order, then DFF D
    pins — each site once (nets, ``(gate, pin)`` pairs and DFFs are all
    unique), so the stuck-at-0/1 pair of a site sits at ``i`` and
    ``i + 1``.
    """
    fanout_count: dict[int, int] = {}
    for gate in netlist.gates:
        for net in gate.inputs:
            fanout_count[net] = fanout_count.get(net, 0) + 1
    for dff in netlist.dffs:
        fanout_count[dff.d] = fanout_count.get(dff.d, 0) + 1
    for port in netlist.output_ports():
        for net in port.nets:
            fanout_count[net] = fanout_count.get(net, 0) + 1

    # Stem faults on every real net that is actually part of the circuit
    # (driven and/or read); skip the constant nets.
    live_nets: set[int] = set(fanout_count)
    for gate in netlist.gates:
        live_nets.add(gate.output)
    for dff in netlist.dffs:
        live_nets.add(dff.q)
    for port in netlist.input_ports():
        live_nets.update(port.nets)
    live_nets.discard(CONST0)
    live_nets.discard(CONST1)

    faults: list[Fault] = []
    stem_at: dict[int, int] = {}  # net -> index of its stuck-at-0 stem
    for net in sorted(live_nets):
        stem_at[net] = len(faults)
        faults.append(Fault(FaultKind.STEM, net, 0))
        faults.append(Fault(FaultKind.STEM, net, 1))

    # Branch faults on fanout pins.
    branch_at: dict[tuple[int, int], int] = {}  # (gate, pin) -> s-a-0 index
    for gate in netlist.gates:
        for pin, net in enumerate(gate.inputs):
            if net in (CONST0, CONST1) or fanout_count[net] < 2:
                continue
            branch_at[(gate.index, pin)] = len(faults)
            faults.append(Fault(FaultKind.BRANCH, net, 0, gate.index, pin))
            faults.append(Fault(FaultKind.BRANCH, net, 1, gate.index, pin))
    for dff in netlist.dffs:
        net = dff.d
        if net in (CONST0, CONST1) or fanout_count[net] < 2:
            continue
        faults.append(Fault(FaultKind.DFF_D, net, 0, dff.index))
        faults.append(Fault(FaultKind.DFF_D, net, 1, dff.index))

    uf = _UnionFind(len(faults))
    if collapse:
        _collapse(netlist, stem_at, branch_at, fanout_count, uf)

    representative = [uf.find(i) for i in range(len(faults))]
    classes: dict[int, list[int]] = {}
    for i, rep in enumerate(representative):
        classes.setdefault(rep, []).append(i)
    return FaultList(netlist, faults, representative, classes)


def _collapse(
    netlist: Netlist,
    stem_at: dict[int, int],
    branch_at: dict[tuple[int, int], int],
    fanout_count: dict[int, int],
    uf: _UnionFind,
) -> None:
    """Apply gate-local structural equivalences.

    ``stem_at`` / ``branch_at`` give the index of a site's stuck-at-0
    fault; its stuck-at-1 fault follows it.
    """
    for gate in netlist.gates:
        pairs = _EQUIVALENCE.get(gate.gtype)
        if not pairs:
            continue
        out_at = stem_at.get(gate.output)
        if out_at is None:
            continue
        for in_stuck, out_stuck in pairs:
            out_fault = out_at + out_stuck
            for pin, net in enumerate(gate.inputs):
                if net in (CONST0, CONST1):
                    continue
                if fanout_count[net] > 1:
                    pin_at = branch_at[(gate.index, pin)]
                else:
                    pin_at = stem_at[net]
                uf.union(out_fault, pin_at + in_stuck)
