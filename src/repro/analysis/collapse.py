"""Structural fault collapsing: equivalence classes and a dominance graph.

Classic ATPG flows shrink the fault list *before* any simulation: large
fractions of a gate-level stuck-at universe are structurally equivalent
(no test can distinguish them) or dominated (every test for one fault
necessarily detects another), and both properties are decidable from the
levelized netlist alone.  :func:`build_fault_list` already applies the
textbook gate-local controlling-value merges; this module layers two more
equivalence families and a dominance relation on top of the resulting
classes, producing a :class:`CollapseMap` the whole grading stack can
thread through (``grade(collapse=...)``, shard planning, checkpoint
fingerprints).

Equivalence families added here (both merge *classes* of the base list
into super-classes; coverage denominators stay over the base classes, so
Table 5 is bit-identical with collapsing on or off):

* ``dff-init`` — for a DFF whose init value is ``v``, the D-pin fault
  stuck-at-``v`` and the Q-stem fault stuck-at-``v`` build *identical*
  faulty machines: both hold ``Q == v`` forever (the reset state already
  satisfies it and the stuck value re-establishes it every cycle).  This
  is a temporal argument, so it is *excluded* from the combinational SAT
  spot-check and validated by the simulation property tests instead.
* ``fanin`` — a fanout net whose readers are all pins of one single gate
  (no ports, no DFFs): if forcing those pins to ``v`` makes the gate
  output a constant ``w`` regardless of the remaining pins (ternary
  evaluation), then stem-``v`` on the net and stem-``w`` on the gate
  output differ only on the unobservable fanin net itself.

Dominance.  For a gate with a controlling input value, the output fault
of the forced polarity *dominates* each input-pin fault of the
controlling polarity: whenever the pin fault flips the gate output, the
faulty output equals exactly the dominator's stuck value and the pin
fault touches nothing else — at every detecting lane/cycle of the child
the two faulty machines are identical on all compared nets, so
``detected(child) ⇒ detected(dominator)``.  The grading orchestrator
therefore skips simulating a dominator whenever one of its children is
detected.  In sequential circuits the per-cycle identity argument breaks
once the faults can corrupt state, so dominance edges are only emitted
for gates whose output has **no structural path to any DFF D pin**
(DESIGN.md §13 has the full soundness argument).

Every statically claimed relation is cross-validated on demand against
the SAT layer of :mod:`repro.formal.redundancy`
(:func:`analyze_collapse`): equivalent faults must have an UNSAT
difference miter, dominance must satisfy "child differs from good ⇒
child and dominator agree" at the combinational cut.  Refutations
surface as NL202/NL203 diagnostics — they would indicate a bug in this
module, never an accepted degradation.

This module deliberately stays out of ``repro.analysis.__init__``: it
imports :mod:`repro.faultsim` (and lazily :mod:`repro.formal`), which
sit above the base analysis package in the layering.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random

from repro.analysis.diagnostics import Report
from repro.faultsim.faults import (
    Fault,
    FaultKind,
    FaultList,
    _UnionFind,
    build_fault_list,
    fault_sort_key,
    fault_token,
)
from repro.netlist.gates import GateType
from repro.netlist.hashing import structural_hash
from repro.netlist.levelize import levelize
from repro.netlist.netlist import CONST0, CONST1, Gate, Netlist

#: Dominance table: for each gate type, ``(child pin stuck, output stuck)``
#: pairs such that the output-stem fault dominates every applicable
#: input-pin fault.  The soundness condition encoded here: whenever the
#: pin fault flips the gate output, the flipped output equals the
#: constant ``output stuck`` (the controlling/forced polarity).
_DOMINANCE: dict[GateType, tuple[tuple[int, int], ...]] = {
    GateType.AND: ((1, 1),),
    GateType.NAND: ((1, 0),),
    GateType.OR: ((0, 0),),
    GateType.NOR: ((0, 1),),
    # MUX2 data pins only (a flips out to a's forced value under sel=0,
    # b under sel=1); the select pin's flip direction depends on a and b.
    GateType.MUX2: ((0, 0), (1, 1)),
    # AOI21 = NOT(OR(AND(a, b), c)): any pin pushed towards the OR's
    # controlling side forces the output low, and vice versa.
    GateType.AOI21: ((1, 0), (0, 1)),
}

#: Pins the dominance table applies to, per gate type (None = all pins).
_DOMINANCE_PINS: dict[GateType, tuple[int, ...] | None] = {
    GateType.MUX2: (0, 1),
}

_UNKNOWN = -1

#: Version tag of the collapse code.  :func:`compute_collapse` is a pure
#: function of the netlist structure, so the structural hash plus this tag
#: fixes the whole :class:`CollapseMap`: persistent-store verdict keys
#: carry the tag instead of ``collapse_hash``, which lets a store hit skip
#: building the map.  Bump it on any change to the collapse output or to
#: the fault universe's order (``tests/analysis/test_collapse_epoch.py``
#: pins both), or stored records would replay stale inferred witnesses.
COLLAPSE_EPOCH = "collapse-v1"


def _const_output(gtype: GateType, vals: list[int]) -> int:
    """Ternary gate evaluation: ``vals`` holds 0/1/``_UNKNOWN`` per pin.

    Returns the output value if it is forced regardless of the unknown
    pins, else ``_UNKNOWN``.
    """
    if gtype is GateType.AND or gtype is GateType.NAND:
        if any(v == 0 for v in vals):
            out = 0
        elif all(v == 1 for v in vals):
            out = 1
        else:
            return _UNKNOWN
        return out ^ 1 if gtype is GateType.NAND else out
    if gtype is GateType.OR or gtype is GateType.NOR:
        if any(v == 1 for v in vals):
            out = 1
        elif all(v == 0 for v in vals):
            out = 0
        else:
            return _UNKNOWN
        return out ^ 1 if gtype is GateType.NOR else out
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        if any(v == _UNKNOWN for v in vals):
            return _UNKNOWN
        parity = 0
        for v in vals:
            parity ^= v
        return parity ^ 1 if gtype is GateType.XNOR else parity
    if gtype is GateType.NOT:
        return _UNKNOWN if vals[0] == _UNKNOWN else vals[0] ^ 1
    if gtype is GateType.BUF:
        return vals[0]
    if gtype is GateType.MUX2:
        a, b, sel = vals
        if sel == 0:
            return a
        if sel == 1:
            return b
        return a if a == b and a != _UNKNOWN else _UNKNOWN
    if gtype is GateType.AOI21:
        a, b, sel = vals  # (a, b, c) — reuse the unpack
        c = sel
        t = _const_output(GateType.AND, [a, b])
        u = _const_output(GateType.OR, [t, c]) if t != _UNKNOWN else (
            1 if c == 1 else _UNKNOWN
        )
        return _UNKNOWN if u == _UNKNOWN else u ^ 1
    return _UNKNOWN  # pragma: no cover - all shipped types handled


# Promoted to repro.faultsim.faults so the persistent store shares the
# same canonical serialization; kept as an alias for in-module callers.
_fault_token = fault_token


@dataclass(frozen=True)
class MergeRecord:
    """One equivalence merge this pass added on top of the base classes.

    Attributes:
        a: kept fault index (prime index into ``fault_list.faults``).
        b: merged-in fault index.
        reason: ``"dff-init"`` or ``"fanin"``.  Only ``"fanin"`` merges
            are checkable at the combinational SAT cut; ``"dff-init"``
            is a temporal (multi-cycle) identity.
    """

    a: int
    b: int
    reason: str


@dataclass(frozen=True)
class DominanceEdge:
    """One ``detected(child) ⇒ detected(dominator)`` edge.

    Indices are base-class representatives; ``gate`` is the gate whose
    controlling value creates the implication (-1 for DFF-Q edges, which
    come from a flip-flop, not a gate).  ``temporal`` marks edges whose
    argument is multi-cycle (DFF-Q): they are sound for detection but
    not expressible at the combinational SAT cut, so the spot-check
    skips them and the simulation property tests carry the validation.
    """

    child: int
    dominator: int
    gate: int
    temporal: bool = False


@dataclass
class CollapseMap:
    """The static collapsing result for one netlist.

    Super-classes group base fault classes that are pairwise
    equivalent; the dominance graph points from child super-classes to
    the super-classes whose detection they imply.  All indices are base
    class representatives (keys of ``fault_list.classes``); the member
    of a super-class with the smallest :func:`fault_sort_key` is its
    key.

    Attributes:
        fault_list: the base (gate-local collapsed) fault universe.
        super_of: base class representative -> super-class key.
        groups: super-class key -> members in canonical fault order.
        merges: the extra equivalence merges applied, with reasons.
        children: dominator super-class -> child super-classes whose
            detection implies the dominator's (canonical order).
        edges: the raw dominance edges (for diagnostics / SAT checks).
        demoted: dominator super-classes dropped back to plain
            simulation because the dominance graph unexpectedly cycled
            through them (sound; should be empty on shipped netlists).
        collapse_hash: deterministic digest of the whole map — recorded
            in checkpoint fingerprints so resume never mixes universes.
    """

    fault_list: FaultList
    super_of: dict[int, int]
    groups: dict[int, list[int]]
    merges: list[MergeRecord]
    children: dict[int, tuple[int, ...]]
    edges: list[DominanceEdge]
    demoted: tuple[int, ...] = ()
    collapse_hash: str = ""
    _order: list[int] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------ queries

    @property
    def netlist(self) -> Netlist:
        return self.fault_list.netlist

    @property
    def n_classes(self) -> int:
        """Base class count — the unchanged Table 5 denominator."""
        return self.fault_list.n_collapsed

    @property
    def n_supers(self) -> int:
        """Super-class count: units a collapsed campaign simulates at most."""
        return len(self.groups)

    @property
    def n_dominators(self) -> int:
        return len(self.children)

    @property
    def ratio(self) -> float:
        """Workload shrink factor: base classes per super-class."""
        if not self.groups:
            return 1.0
        return self.n_classes / self.n_supers

    def members(self, super_key: int) -> list[int]:
        """Base class representatives merged into one super-class."""
        return self.groups[super_key]

    def is_dominator(self, super_key: int) -> bool:
        return super_key in self.children

    def dominator_order(self) -> list[int]:
        """Dominators in resolution order (children before parents)."""
        return [s for s in self._order if s in self.children]

    def simulation_order(self) -> list[int]:
        """All super-class keys in the canonical campaign order.

        Dominance-connected clusters are contiguous (so shard slices
        keep most children next to their dominators); within a cluster
        non-dominators come first and dominators follow in topological
        order.  A pure function of the netlist — shard plans and
        checkpoint keys rely on it.
        """
        return list(self._order)

    def summary(self) -> dict[str, object]:
        """JSON-safe summary for reports and bench artifacts."""
        return {
            "component": self.netlist.name,
            "n_prime": self.fault_list.n_prime,
            "n_classes": self.n_classes,
            "n_supers": self.n_supers,
            "n_merges": len(self.merges),
            "n_dominators": self.n_dominators,
            "n_edges": len(self.edges),
            "n_demoted": len(self.demoted),
            "ratio": round(self.ratio, 4),
            "collapse_hash": self.collapse_hash,
        }


# ----------------------------------------------------------- construction


def _reader_map(
    netlist: Netlist,
) -> tuple[dict[int, int], dict[int, list[tuple[int, int]]], set[int]]:
    """``(fanout_count, net -> [(gate, pin)...], nets read outside gates)``.

    ``fanout_count`` matches :func:`build_fault_list` exactly (gate pins
    + DFF D pins + output-port nets); the third set holds nets consumed
    by a DFF or exposed on an output port — nets that are *observable or
    state-coupled* beyond their reader gates.
    """
    fanout_count: dict[int, int] = {}
    gate_readers: dict[int, list[tuple[int, int]]] = {}
    external: set[int] = set()
    for gate in netlist.gates:
        for pin, net in enumerate(gate.inputs):
            fanout_count[net] = fanout_count.get(net, 0) + 1
            gate_readers.setdefault(net, []).append((gate.index, pin))
    for dff in netlist.dffs:
        fanout_count[dff.d] = fanout_count.get(dff.d, 0) + 1
        external.add(dff.d)
    for port in netlist.output_ports():
        for net in port.nets:
            fanout_count[net] = fanout_count.get(net, 0) + 1
            external.add(net)
    return fanout_count, gate_readers, external


def _state_reaching_nets(netlist: Netlist, order: list[Gate]) -> set[int]:
    """Nets with a structural path to some DFF D pin.

    One reversed levelized sweep: a gate whose output reaches state
    pulls all its inputs into the set.
    """
    reach: set[int] = {dff.d for dff in netlist.dffs}
    for gate in reversed(order):
        if gate.output in reach:
            reach.update(gate.inputs)
    return reach


def compute_collapse(
    netlist: Netlist, fault_list: FaultList | None = None
) -> CollapseMap:
    """Run the static collapsing pass over one netlist.

    Pure and deterministic: the result (including ``collapse_hash``) is
    a function of the netlist structure alone.
    """
    if fault_list is None:
        fault_list = build_fault_list(netlist)
    faults = fault_list.faults
    index_of: dict[tuple[FaultKind, int, int, int, int], int] = {
        (f.kind, f.net, f.stuck, f.gate, f.pin): i
        for i, f in enumerate(faults)
    }

    def stem(net: int, stuck: int) -> int | None:
        return index_of.get((FaultKind.STEM, net, stuck, -1, -1))

    fanout_count, gate_readers, external = _reader_map(netlist)
    uf = _UnionFind(len(faults))
    for i, rep in enumerate(fault_list.representative):
        uf.union(rep, i)

    merges: list[MergeRecord] = []

    def merge(a: int | None, b: int | None, reason: str) -> None:
        if a is None or b is None:
            return
        if uf.find(a) != uf.find(b):
            uf.union(a, b)
            merges.append(MergeRecord(a, b, reason))

    # --- dff-init merges: D-pin (or sole-reader D stem) stuck-at-init
    # is machine-identical to Q-stem stuck-at-init.
    for dff in netlist.dffs:
        v = dff.init
        q_fault = stem(dff.q, v)
        if fanout_count.get(dff.d, 0) > 1:
            d_fault = index_of.get(
                (FaultKind.DFF_D, dff.d, v, dff.index, -1)
            )
        elif dff.d not in (CONST0, CONST1):
            # Fanout 1 and the DFF is a reader, so the DFF is the *only*
            # reader: the stem force is invisible outside the register.
            d_fault = stem(dff.d, v)
        else:
            d_fault = None
        merge(q_fault, d_fault, "dff-init")

    # --- fanin merges: a multi-fanout net feeding only pins of one gate.
    for net, count in fanout_count.items():
        if count < 2 or net in external or net in (CONST0, CONST1):
            continue
        readers = gate_readers.get(net, [])
        if len(readers) != count:
            continue  # counted readers not all gate pins (defensive)
        gates_seen = {g for g, _ in readers}
        if len(gates_seen) != 1:
            continue
        gate = netlist.gates[next(iter(gates_seen))]
        fed_pins = {pin for _, pin in readers}
        for v in (0, 1):
            vals = [
                v if pin in fed_pins else _UNKNOWN
                for pin in range(len(gate.inputs))
            ]
            out_val = _const_output(gate.gtype, vals)
            if out_val != _UNKNOWN:
                merge(stem(net, v), stem(gate.output, out_val), "fanin")

    # --- regroup the base classes into super-classes.
    key_of = {i: fault_sort_key(f) for i, f in enumerate(faults)}
    root_members: dict[int, list[int]] = {}
    for rep in fault_list.classes:
        root_members.setdefault(uf.find(rep), []).append(rep)
    groups: dict[int, list[int]] = {}
    super_of: dict[int, int] = {}
    for members in root_members.values():
        members.sort(key=lambda r: key_of[r])
        super_key = members[0]
        groups[super_key] = members
        for rep in members:
            super_of[rep] = super_key

    # --- dominance edges (output stem dominates controlling pin faults).
    order = levelize(netlist)
    state_reach = (
        _state_reaching_nets(netlist, order) if netlist.dffs else set()
    )
    base_rep = fault_list.representative
    edge_set: set[tuple[int, int]] = set()
    edges: list[DominanceEdge] = []

    def add_edge(
        child_fault: int | None, parent_fault: int | None,
        gate_index: int, temporal: bool,
    ) -> None:
        if child_fault is None or parent_fault is None:
            return
        child = super_of[base_rep[child_fault]]
        parent = super_of[base_rep[parent_fault]]
        if child == parent or (child, parent) in edge_set:
            return
        edge_set.add((child, parent))
        edges.append(DominanceEdge(child, parent, gate_index, temporal))

    # DFF-Q dominance: when Q has no structural path back to any D pin,
    # neither fault can corrupt state, and the D-side machine from cycle
    # 1 onward equals the Q-stem machine (both hold Q == v; the D-side
    # copy is still fault-free at cycle 0, so all its detections happen
    # at cycles where the machines coincide).  A temporal argument — the
    # init-matching polarity is the stronger ``dff-init`` equivalence.
    for dff in netlist.dffs:
        if dff.q in state_reach:
            continue
        for v in (0, 1):
            if fanout_count.get(dff.d, 0) > 1:
                d_fault = index_of.get(
                    (FaultKind.DFF_D, dff.d, v, dff.index, -1)
                )
            elif dff.d not in (CONST0, CONST1):
                d_fault = stem(dff.d, v)
            else:
                d_fault = None
            add_edge(d_fault, stem(dff.q, v), -1, True)

    for gate in order:
        pairs = _DOMINANCE.get(gate.gtype)
        if not pairs:
            continue
        if gate.output in state_reach:
            continue  # sequential restriction: see module docstring
        allowed = _DOMINANCE_PINS.get(gate.gtype)
        for child_stuck, out_stuck in pairs:
            parent_fault = stem(gate.output, out_stuck)
            if parent_fault is None:
                continue
            for pin, net in enumerate(gate.inputs):
                if allowed is not None and pin not in allowed:
                    continue
                if net in (CONST0, CONST1):
                    continue
                if fanout_count.get(net, 0) > 1:
                    child_fault = index_of.get(
                        (FaultKind.BRANCH, net, child_stuck,
                         gate.index, pin)
                    )
                else:
                    child_fault = stem(net, child_stuck)
                add_edge(child_fault, parent_fault, gate.index, False)

    # --- topological resolution order over dominators, with demotion of
    # any super caught in an (unexpected) equivalence-induced cycle.
    children_sets: dict[int, set[int]] = {}
    for edge in edges:
        children_sets.setdefault(edge.dominator, set()).add(edge.child)
    demoted: list[int] = []
    while True:
        cyclic = _find_cyclic(children_sets)
        if not cyclic:
            break
        demote = min(cyclic, key=lambda s: key_of[s])
        demoted.append(demote)
        children_sets.pop(demote, None)
    if demoted:
        kept = set(children_sets)
        edges = [e for e in edges if e.dominator in kept]
    children = {
        dom: tuple(sorted(kids, key=lambda s: key_of[s]))
        for dom, kids in children_sets.items()
    }

    cmap = CollapseMap(
        fault_list=fault_list,
        super_of=super_of,
        groups=groups,
        merges=merges,
        children=children,
        edges=edges,
        demoted=tuple(sorted(demoted, key=lambda s: key_of[s])),
    )
    cmap._order = _simulation_order(cmap, key_of)
    cmap.collapse_hash = _collapse_hash(netlist, cmap)
    return cmap


def _find_cyclic(children_sets: dict[int, set[int]]) -> set[int]:
    """Dominators not eliminated by Kahn's algorithm (i.e. on a cycle)."""
    # Dependency: a dominator waits for its children that are dominators.
    indeg = {
        dom: sum(1 for c in kids if c in children_sets)
        for dom, kids in children_sets.items()
    }
    parents_of: dict[int, list[int]] = {}
    for dom, kids in children_sets.items():
        for c in kids:
            if c in children_sets:
                parents_of.setdefault(c, []).append(dom)
    queue = [dom for dom, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for parent in parents_of.get(node, ()):
            indeg[parent] -= 1
            if indeg[parent] == 0:
                queue.append(parent)
    return {dom for dom, d in indeg.items() if d > 0}


def _simulation_order(
    cmap: CollapseMap, key_of: dict[int, tuple[int, int, int, int, int]]
) -> list[int]:
    """Canonical super-class order: dominance clusters contiguous."""
    cluster = _UnionFind(len(cmap.fault_list.faults))
    for edge in cmap.edges:
        cluster.union(edge.child, edge.dominator)
    buckets: dict[int, list[int]] = {}
    for super_key in cmap.groups:
        buckets.setdefault(cluster.find(super_key), []).append(super_key)

    ordered: list[int] = []
    for bucket in sorted(
        buckets.values(), key=lambda b: min(key_of[s] for s in b)
    ):
        plain = sorted(
            (s for s in bucket if s not in cmap.children),
            key=lambda s: key_of[s],
        )
        ordered.extend(plain)
        if len(plain) == len(bucket):
            continue
        # Dominators of this cluster, children-before-parents (Kahn,
        # canonical tie-break).  Construction guarantees acyclicity.
        doms = [s for s in bucket if s in cmap.children]
        indeg = {
            d: sum(1 for c in cmap.children[d] if c in cmap.children)
            for d in doms
        }
        parents_of: dict[int, list[int]] = {}
        for d in doms:
            for c in cmap.children[d]:
                if c in cmap.children:
                    parents_of.setdefault(c, []).append(d)
        ready = sorted(
            (d for d in doms if indeg[d] == 0), key=lambda s: key_of[s]
        )
        while ready:
            node = ready.pop(0)
            ordered.append(node)
            changed = False
            for parent in parents_of.get(node, ()):
                indeg[parent] -= 1
                if indeg[parent] == 0:
                    ready.append(parent)
                    changed = True
            if changed:
                ready.sort(key=lambda s: key_of[s])
    return ordered


def _collapse_hash(netlist: Netlist, cmap: CollapseMap) -> str:
    """BLAKE2b digest pinning the exact collapse result."""
    h = hashlib.blake2b(digest_size=16)
    h.update(COLLAPSE_EPOCH.encode() + b"\0")
    h.update(structural_hash(netlist).encode())
    h.update(
        f"\0{cmap.fault_list.n_prime}:{cmap.fault_list.n_collapsed}\0"
        .encode()
    )
    faults = cmap.fault_list.faults
    for record in sorted(
        cmap.merges,
        key=lambda m: (fault_sort_key(faults[m.a]),
                       fault_sort_key(faults[m.b])),
    ):
        h.update(
            f"m:{_fault_token(faults[record.a])}"
            f"={_fault_token(faults[record.b])}:{record.reason}\0".encode()
        )
    for edge in sorted(
        cmap.edges,
        key=lambda e: (fault_sort_key(faults[e.child]),
                       fault_sort_key(faults[e.dominator])),
    ):
        h.update(
            f"d:{_fault_token(faults[edge.child])}"
            f">{_fault_token(faults[edge.dominator])}\0".encode()
        )
    return h.hexdigest()


# ------------------------------------------------------- SAT cross-check


@dataclass(frozen=True)
class CollapseCheck:
    """Outcome of the SAT spot-check over one component's collapse map.

    Attributes:
        n_equivalence: equivalence pairs checked (base-class pairs plus
            ``fanin`` merges; ``dff-init`` merges are temporal and not
            expressible at the combinational cut).
        n_dominance: dominance edges checked.
        refuted_equivalence: human-readable descriptions of failures.
        refuted_dominance: likewise for dominance edges.
    """

    n_equivalence: int
    n_dominance: int
    refuted_equivalence: tuple[str, ...] = ()
    refuted_dominance: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.refuted_equivalence and not self.refuted_dominance


def sat_spot_check(
    netlist: Netlist, cmap: CollapseMap, samples: int = 8
) -> CollapseCheck:
    """Cross-validate sampled static claims against the SAT layer.

    Sampling is deterministic (seeded from the collapse hash), so CI
    failures reproduce locally.  ``samples`` bounds each family
    independently; pass a large value for an exhaustive check.
    """
    # Local import: repro.formal sits above repro.analysis in the
    # layering, so the dependency must stay lazy (mirrors prune_set).
    from repro.formal.redundancy import FaultMiterSession

    faults = cmap.fault_list.faults
    equiv_pairs: list[tuple[int, int]] = []
    for rep, members in sorted(cmap.fault_list.classes.items()):
        for other in members:
            if other != rep:
                equiv_pairs.append((rep, other))
    for record in cmap.merges:
        if record.reason == "fanin":
            equiv_pairs.append((record.a, record.b))
    dom_pairs = [
        (e.child, e.dominator) for e in cmap.edges if not e.temporal
    ]

    rng = Random(int(cmap.collapse_hash or "0", 16))
    if len(equiv_pairs) > samples:
        equiv_pairs = rng.sample(equiv_pairs, samples)
    if len(dom_pairs) > samples:
        dom_pairs = rng.sample(dom_pairs, samples)
    if not equiv_pairs and not dom_pairs:
        return CollapseCheck(0, 0)

    session = FaultMiterSession(netlist, constrain_constant_state=False)
    refuted_eq: list[str] = []
    for a, b in equiv_pairs:
        if not session.check_equivalent_pair(faults[a], faults[b]):
            refuted_eq.append(
                f"{faults[a].describe(netlist)} vs "
                f"{faults[b].describe(netlist)}"
            )
    refuted_dom: list[str] = []
    for child, dominator in dom_pairs:
        if not session.check_dominance_pair(
            faults[child], faults[dominator]
        ):
            refuted_dom.append(
                f"{faults[child].describe(netlist)} -> "
                f"{faults[dominator].describe(netlist)}"
            )
    return CollapseCheck(
        n_equivalence=len(equiv_pairs),
        n_dominance=len(dom_pairs),
        refuted_equivalence=tuple(refuted_eq),
        refuted_dominance=tuple(refuted_dom),
    )


# ------------------------------------------------------------- analyzer


def analyze_collapse(
    netlist: Netlist, *, sat_samples: int = 8
) -> tuple[Report, CollapseMap, CollapseCheck]:
    """The ``repro analyze collapse`` pass for one component.

    Emits NL201 (INFO, the collapse summary with SAT spot-check stats)
    and, should the spot-check ever refute a static claim, NL202
    (equivalence) / NL203 (dominance) errors.
    """
    report = Report(target=netlist.name, kind="collapse")
    cmap = compute_collapse(netlist)
    check = sat_spot_check(netlist, cmap, samples=sat_samples)
    for description in check.refuted_equivalence:
        report.add(
            "NL202", f"SAT refuted claimed fault equivalence: {description}"
        )
    for description in check.refuted_dominance:
        report.add(
            "NL203", f"SAT refuted claimed fault dominance: {description}"
        )
    report.add(
        "NL201",
        f"{cmap.n_classes} classes -> {cmap.n_supers} super-classes "
        f"(ratio {cmap.ratio:.2f}x), {len(cmap.merges)} merges, "
        f"{len(cmap.edges)} dominance edges over "
        f"{cmap.n_dominators} dominators; SAT spot-check "
        f"{check.n_equivalence} equivalence + {check.n_dominance} "
        f"dominance samples, "
        f"{'all confirmed' if check.ok else 'REFUTATIONS FOUND'}",
    )
    return report, cmap, check
