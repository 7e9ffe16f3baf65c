"""The packed engine's cone walk agrees with the differential engine.

The sequential ``packed`` walk evaluates only each batch's fan-out cone
and reads every other net from the good trace
(:mod:`repro.faultsim.packed`).  These tests grade seeded random state
machines through both engines and compare every class record field by
field: detected, excited, first detecting cycle and witness lanes.  The
fault lists add what the canonical universe leaves out (stem faults on
the constant nets, branch faults on constant pins), and every fault is
also graded alone, so that a stem fault on a gate output has its driver
outside the cone.  The stimulus holds its inputs for runs, changes the
observe entry inside them and observes nothing on some cycles.
"""

import dataclasses
import random

import pytest

from repro.faultsim import build_fault_list
from repro.faultsim.engine import DifferentialEngine
from repro.faultsim.faults import Fault, FaultKind, FaultList
from repro.faultsim.lowering import ConeLowering
from repro.faultsim.observe import ObservePlan
from repro.faultsim.packed import PackedEngine
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType
from repro.netlist.netlist import CONST0, CONST1, DFF, Netlist

SEEDS = range(8)

_GATES = (
    GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR,
    GateType.XNOR, GateType.NOT, GateType.BUF, GateType.MUX2,
    GateType.AOI21,
)

#: Observe entries: ``()`` and ``{"z": 0}`` observe nothing.
_OBSERVE_CHOICES = (("y",), ("z",), ("y", "z"), (), {"z": 0}, {"y": 1})

ENGINES = [
    PackedEngine(),
    PackedEngine(lanes=4, repack_threshold=0.95, min_repack_drop=1),
]


def cone_fsm(seed: int, n_gates: int = 30, n_state: int = 6) -> Netlist:
    """Random state machine with constant inputs and dead logic."""
    rng = random.Random(seed)
    b = NetlistBuilder(f"cone_fsm{seed}")
    nets = [*b.input("x", 3), CONST0, CONST1]
    qs = [b.netlist.new_net() for _ in range(n_state)]
    nets.extend(qs)
    logic = []
    for _ in range(n_gates):
        gt = rng.choice(_GATES)
        arity = {GateType.NOT: 1, GateType.BUF: 1, GateType.MUX2: 3,
                 GateType.AOI21: 3}.get(gt, 2)
        out = b.gate(gt, *(rng.choice(nets) for _ in range(arity)))
        nets.append(out)
        logic.append(out)
    for q in qs:
        d = rng.choice(logic)
        if rng.random() < 0.5:
            # Enabled register: holds its value while the enable is 0.
            d = b.gate(GateType.MUX2, q, d, rng.choice(logic))
        b.netlist.dffs.append(
            DFF(len(b.netlist.dffs), d, q, rng.randrange(2))
        )
    b.output("y", logic[-3:])
    b.output("z", [qs[0], rng.choice(logic), rng.choice(qs)])
    # Dead logic: reads live nets, feeds nothing observed.
    for _ in range(3):
        b.gate(GateType.AND, rng.choice(nets), rng.choice(logic))
    return b.build()


def every_fault(netlist: Netlist) -> FaultList:
    """The uncollapsed universe plus constant stems and constant pins,
    each fault its own class."""
    faults = list(build_fault_list(netlist, collapse=False).faults)
    for net in (CONST0, CONST1):
        faults += [Fault(FaultKind.STEM, net, s) for s in (0, 1)]
    for gate in netlist.gates:
        for pin, net in enumerate(gate.inputs):
            if net in (CONST0, CONST1):
                faults += [
                    Fault(FaultKind.BRANCH, net, s, gate.index, pin)
                    for s in (0, 1)
                ]
    return FaultList(
        netlist, faults, list(range(len(faults))),
        {i: [i] for i in range(len(faults))},
    )


def stimulus(seed: int, n_cycles: int = 120):
    """Held runs of 1-12 cycles; observe changes inside them."""
    rng = random.Random(seed)
    cycles = []
    while len(cycles) < n_cycles:
        word = {"x": rng.getrandbits(3)}
        cycles += [word] * rng.randint(1, 12)
    cycles = cycles[:n_cycles]
    observe = []
    entry = rng.choice(_OBSERVE_CHOICES)
    for _ in cycles:
        if rng.random() < 0.3:
            entry = rng.choice(_OBSERVE_CHOICES)
        observe.append(entry)
    return cycles, observe


def _records(result):
    return {
        rep: (d.detected, d.excited, d.cycle, d.lanes)
        for rep, d in result.detections.items()
    }


def _case(seed):
    netlist = cone_fsm(seed)
    cycles, observe = stimulus(seed + 500)
    faults = every_fault(netlist)
    plan = ObservePlan.from_spec(observe, len(cycles), netlist)
    want = DifferentialEngine().grade(netlist, cycles, faults, plan)
    return netlist, cycles, faults, plan, want


@pytest.mark.parametrize("engine", ENGINES, ids=["default", "eager-repack"])
@pytest.mark.parametrize("seed", SEEDS)
def test_whole_universe_matches_differential(seed, engine):
    netlist, cycles, faults, plan, want = _case(seed)
    got = engine.grade(netlist, cycles, faults, plan)
    assert _records(got) == _records(want)
    assert got.detected == want.detected


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_each_fault_alone_matches_differential(seed):
    # A one-fault batch's cone starts at its own site, so a stem fault on
    # a gate output has its driver outside the cone.
    netlist, cycles, faults, plan, want = _case(seed)
    engine = PackedEngine()
    expected = _records(want)
    for rep in faults.class_representatives():
        got = engine.grade(netlist, cycles, faults, plan, only=[rep])
        assert _records(got) == {rep: expected[rep]}, (
            faults.fault(rep).describe(netlist)
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_cases_cover_every_site(seed):
    netlist, cycles, faults, plan, want = _case(seed)
    outputs = {g.output for g in netlist.gates}
    qs = {d.q for d in netlist.dffs}
    inputs = set(netlist.port("x").nets)
    lowering = ConeLowering(
        netlist, netlist.port("y").nets + netlist.port("z").nets
    )
    stems = {
        f.net for f in faults.faults if f.kind is FaultKind.STEM
    }
    assert stems & inputs and stems & qs and stems & outputs
    assert {CONST0, CONST1} <= stems
    kinds = {f.kind for f in faults.faults}
    assert FaultKind.DFF_D in kinds
    assert any(
        f.kind is FaultKind.BRANCH
        and not lowering.reaches((f.kind, f.net, f.gate, f.pin))
        for f in faults.faults
    )
    held = [t for t in range(1, len(cycles)) if cycles[t] is cycles[t - 1]]
    assert held and any(plan.entries[t] != plan.entries[t - 1] for t in held)
    assert any(not entry or entry == (("z", 0),) for entry in plan.entries)
    assert any(d.detected for d in want.detections.values())


def test_dormant_cycles_are_skipped(monkeypatch):
    # A stuck-at-0 fault on an AND of all three input bits is excited
    # only at x == 7.  No cycle is held, so every cycle the walk saves
    # is a dormant one.
    b = NetlistBuilder("dormant")
    x = b.input("x", 3)
    hit = b.gate(GateType.AND, b.gate(GateType.AND, x[0], x[1]), x[2])
    q = b.netlist.new_net()
    b.netlist.dffs.append(DFF(0, hit, q, 0))
    b.output("y", [q])
    netlist = b.build()
    cycles = [{"x": t % 7} for t in range(40)] + [{"x": 7}, {"x": 0}]
    faults = build_fault_list(netlist)
    rep = next(
        r for r in faults.class_representatives()
        if faults.fault(r) == Fault(FaultKind.STEM, hit, 0)
    )
    plan = ObservePlan.everything(len(cycles))

    steps = []
    compile_cone = ConeLowering.compile

    def counting(self, sites, entries):
        kernel = compile_cone(self, sites, entries)

        def make(*masks):
            step = kernel.make(*masks)

            def counted(row, state):
                steps.append(1)
                return step(row, state)

            return counted

        return dataclasses.replace(kernel, make=make)

    monkeypatch.setattr(ConeLowering, "compile", counting)
    got = PackedEngine().grade(netlist, cycles, faults, plan, only=[rep])
    want = DifferentialEngine().grade(netlist, cycles, faults, plan,
                                      only=[rep])
    assert _records(got) == _records(want)
    assert want.detections[rep].cycle == 41
    # The excited cycle and the cycle its state difference is seen.
    assert len(steps) == 2


@pytest.mark.parametrize("engine", ENGINES, ids=["default", "eager-repack"])
def test_held_run_detects_at_two_observe_changes(engine):
    # One held run observes y, then z: the faults convicted at the first
    # change repack the lanes before the second change is checked.
    b = NetlistBuilder("held_twice")
    x = b.input("x", 3)
    q = b.netlist.new_net()
    b.netlist.dffs.append(DFF(0, q, q, 0))  # a state that never moves
    b.output("y", [b.gate(GateType.AND, x[0], x[1]),
                   b.gate(GateType.OR, x[1], x[2]),
                   b.gate(GateType.XOR, x[0], x[2])])
    b.output("z", [b.gate(GateType.NAND, x[0], x[2]),
                   b.gate(GateType.NOR, x[0], x[1]),
                   b.gate(GateType.XNOR, x[1], x[2])])
    netlist = b.build()
    word = {"x": 0b101}
    cycles = [word] * 8
    observe = [(), (), (), ("y",), ("y",), ("z",), ("z",), ("y", "z")]
    faults = every_fault(netlist)
    plan = ObservePlan.from_spec(observe, len(cycles), netlist)
    want = DifferentialEngine().grade(netlist, cycles, faults, plan)
    got = engine.grade(netlist, cycles, faults, plan)
    assert _records(got) == _records(want)
    cycles_seen = {d.cycle for d in want.detections.values() if d.detected}
    assert {3, 5} <= cycles_seen
