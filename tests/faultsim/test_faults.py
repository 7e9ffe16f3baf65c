"""Unit tests for fault enumeration and equivalence collapsing."""

from repro.faultsim.faults import FaultKind, build_fault_list
from repro.netlist.builder import NetlistBuilder


def inverter_chain(n=3):
    b = NetlistBuilder("chain")
    x = b.input("x", 1)[0]
    for _ in range(n):
        x = b.not_(x)
    b.output("y", x)
    return b.build()


class TestEnumeration:
    def test_stem_faults_on_every_net(self):
        nl = inverter_chain(3)
        fl = build_fault_list(nl, collapse=False)
        stems = [f for f in fl.faults if f.kind is FaultKind.STEM]
        # Nets: input + 3 gate outputs = 4 nets, 2 polarities each.
        assert len(stems) == 8

    def test_no_branch_faults_without_fanout(self):
        fl = build_fault_list(inverter_chain(), collapse=False)
        assert all(f.kind is FaultKind.STEM for f in fl.faults)

    def test_branch_faults_on_fanout(self):
        b = NetlistBuilder("fan")
        x = b.input("x", 1)[0]
        b.output("y1", b.not_(x))
        b.output("y2", b.not_(x))
        fl = build_fault_list(b.build(), collapse=False)
        branches = [f for f in fl.faults if f.kind is FaultKind.BRANCH]
        assert len(branches) == 4  # 2 pins x 2 polarities

    def test_constants_not_faulted(self):
        b = NetlistBuilder("c")
        x = b.input("x", 1)[0]
        b.output("y", b.and_(x, b.constant(1, 1)[0]))
        fl = build_fault_list(b.build(), collapse=False)
        assert all(f.net > 1 for f in fl.faults)

    def test_dff_d_pin_faults(self):
        b = NetlistBuilder("seq")
        x = b.input("x", 1)[0]
        inv = b.not_(x)
        b.output("q1", b.dff(inv))
        b.output("q2", b.dff(inv))  # inv fans out to two D pins
        fl = build_fault_list(b.build(), collapse=False)
        dffd = [f for f in fl.faults if f.kind is FaultKind.DFF_D]
        assert len(dffd) == 4

    def test_describe_readable(self):
        nl = inverter_chain()
        fl = build_fault_list(nl)
        text = fl.faults[0].describe(nl)
        assert "s-a-" in text


class TestCollapsing:
    def test_inverter_chain_collapses_fully(self):
        # All faults in an inverter chain are pairwise equivalent along the
        # chain: 4 nets x 2 -> exactly 2 classes.
        fl = build_fault_list(inverter_chain(3))
        assert fl.n_prime == 8
        assert fl.n_collapsed == 2

    def test_and_gate_classes(self):
        b = NetlistBuilder("and2")
        x = b.input("x", 2)
        b.output("y", b.and_(x[0], x[1]))
        fl = build_fault_list(b.build())
        # Prime: 3 nets x 2 = 6.  a-sa0 == b-sa0 == y-sa0 -> 4 classes.
        assert fl.n_prime == 6
        assert fl.n_collapsed == 4

    def test_xor_gate_no_collapse(self):
        b = NetlistBuilder("xor2")
        x = b.input("x", 2)
        b.output("y", b.xor(x[0], x[1]))
        fl = build_fault_list(b.build())
        assert fl.n_collapsed == fl.n_prime == 6

    def test_collapse_can_be_disabled(self):
        nl = inverter_chain(2)
        fl = build_fault_list(nl, collapse=False)
        assert fl.n_collapsed == fl.n_prime

    def test_classes_partition_faults(self):
        from repro.library import build_alu

        fl = build_fault_list(build_alu(width=4))
        members = sorted(i for m in fl.classes.values() for i in m)
        assert members == list(range(fl.n_prime))

    def test_representative_self_consistent(self):
        fl = build_fault_list(inverter_chain(4))
        for i, rep in enumerate(fl.representative):
            assert fl.representative[rep] == rep
            assert i in fl.classes[rep]


class TestCanonicalOrdering:
    """The documented fault-ordering contract: net, then polarity.

    ``class_representatives()`` is the order every consumer sees (grading
    engines, shard planners, collapse hashing), so it must be a pure
    function of the circuit — sorted by ``fault_sort_key`` rather than by
    raw enumeration index.
    """

    def test_sort_key_orders_net_then_polarity_then_kind(self):
        from repro.faultsim.faults import Fault, fault_sort_key

        ordered = [
            Fault(FaultKind.STEM, net=2, stuck=0),
            Fault(FaultKind.BRANCH, net=2, stuck=0, gate=1, pin=0),
            Fault(FaultKind.DFF_D, net=2, stuck=0, gate=0),
            Fault(FaultKind.STEM, net=2, stuck=1),
            Fault(FaultKind.STEM, net=3, stuck=0),
        ]
        keys = [fault_sort_key(f) for f in ordered]
        assert keys == sorted(keys)

    def test_representatives_sorted_by_canonical_key(self):
        from repro.faultsim.faults import fault_sort_key
        from repro.library import build_alu

        fl = build_fault_list(build_alu(width=4))
        reps = fl.class_representatives()
        keys = [fault_sort_key(fl.faults[r]) for r in reps]
        assert keys == sorted(keys)
        assert sorted(reps) == sorted(fl.classes)

    def test_order_is_reproducible_across_rebuilds(self):
        from repro.library import build_alu

        one = build_fault_list(build_alu(width=4))
        two = build_fault_list(build_alu(width=4))
        assert one.class_representatives() == two.class_representatives()
        assert [
            (f.kind, f.net, f.stuck, f.gate, f.pin) for f in one.faults
        ] == [(f.kind, f.net, f.stuck, f.gate, f.pin) for f in two.faults]


def _reference_fault_list(netlist, collapse=True):
    """The original enumeration: every fault added through a dedup map.

    Kept verbatim so the direct-append enumeration is compared against
    it; the dedup never fires (stems come from unique nets, branches
    from unique ``(gate, pin)`` pairs, DFF-D faults from one DFF each).
    """
    from repro.faultsim.faults import (
        _EQUIVALENCE, Fault, _UnionFind,
    )
    from repro.netlist.netlist import CONST0, CONST1

    faults = []
    index_of = {}

    def add(fault):
        key = (fault.kind, fault.net, fault.stuck, fault.gate, fault.pin)
        if key in index_of:
            return index_of[key]
        index_of[key] = len(faults)
        faults.append(fault)
        return index_of[key]

    fanout_count = {}
    for gate in netlist.gates:
        for net in gate.inputs:
            fanout_count[net] = fanout_count.get(net, 0) + 1
    for dff in netlist.dffs:
        fanout_count[dff.d] = fanout_count.get(dff.d, 0) + 1
    for port in netlist.output_ports():
        for net in port.nets:
            fanout_count[net] = fanout_count.get(net, 0) + 1
    live_nets = set(fanout_count)
    for gate in netlist.gates:
        live_nets.add(gate.output)
    for dff in netlist.dffs:
        live_nets.add(dff.q)
    for port in netlist.input_ports():
        live_nets.update(port.nets)
    live_nets.discard(CONST0)
    live_nets.discard(CONST1)
    for net in sorted(live_nets):
        for stuck in (0, 1):
            add(Fault(FaultKind.STEM, net, stuck))
    for gate in netlist.gates:
        for pin, net in enumerate(gate.inputs):
            if net in (CONST0, CONST1):
                continue
            if fanout_count.get(net, 0) > 1:
                for stuck in (0, 1):
                    add(Fault(FaultKind.BRANCH, net, stuck,
                              gate=gate.index, pin=pin))
    for dff in netlist.dffs:
        net = dff.d
        if net in (CONST0, CONST1):
            continue
        if fanout_count.get(net, 0) > 1:
            for stuck in (0, 1):
                add(Fault(FaultKind.DFF_D, net, stuck, gate=dff.index))

    uf = _UnionFind(len(faults))
    if collapse:
        def stem(net, stuck):
            return index_of.get((FaultKind.STEM, net, stuck, -1, -1))

        for gate in netlist.gates:
            for in_stuck, out_stuck in _EQUIVALENCE.get(gate.gtype, ()):
                out_fault = stem(gate.output, out_stuck)
                if out_fault is None:
                    continue
                for pin, net in enumerate(gate.inputs):
                    if net in (CONST0, CONST1):
                        continue
                    if fanout_count.get(net, 0) > 1:
                        pin_fault = index_of.get((
                            FaultKind.BRANCH, net, in_stuck, gate.index, pin
                        ))
                    else:
                        pin_fault = stem(net, in_stuck)
                    if pin_fault is not None:
                        uf.union(out_fault, pin_fault)
    representative = [uf.find(i) for i in range(len(faults))]
    classes = {}
    for i, rep in enumerate(representative):
        classes.setdefault(rep, []).append(i)
    return faults, representative, classes


def _random_netlist(seed):
    """Random sequential netlist exercising every enumeration corner.

    Constant-driven pins, one net on several pins of a gate, DFFs whose
    D net fans out (DFF-D faults) or is a constant, output ports that
    expose inputs, register outputs and feedback through state.
    """
    import random

    from repro.netlist.gates import GateType
    from repro.netlist.netlist import CONST0, CONST1, Netlist

    rng = random.Random(seed)
    nl = Netlist(f"enum{seed}")
    nets = nl.add_input("x", 4) + [CONST0, CONST1]
    arity = {GateType.NOT: 1, GateType.BUF: 1, GateType.MUX2: 3,
             GateType.AOI21: 3}
    for _ in range(rng.randrange(5, 40)):
        if rng.random() < 0.15:
            nets.append(nl.add_dff(rng.choice(nets), init=rng.randrange(2)))
            continue
        gtype = rng.choice(list(GateType))
        n_in = arity.get(gtype, rng.choice((2, 3)))
        nets.append(nl.add_gate(gtype, [rng.choice(nets) for _ in range(n_in)]))
    outs = [n for n in nets if rng.random() < 0.3] or [nets[-1]]
    nl.add_output("y", outs)
    return nl


class TestEnumerationMatchesReference:
    def test_random_netlists_match_the_dedup_enumeration(self):
        for seed in range(200):
            nl = _random_netlist(seed)
            for collapse in (True, False):
                faults, representative, classes = _reference_fault_list(
                    nl, collapse
                )
                fl = build_fault_list(nl, collapse=collapse)
                assert fl.faults == faults, seed
                assert fl.representative == representative, seed
                assert fl.classes == classes, seed
