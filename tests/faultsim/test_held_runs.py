"""Property tests: the held-run skip never changes a verdict.

Both sequential walks jump over held runs: cycles that repeat the
previous cycle's inputs once the machine state repeats too (see
:mod:`repro.faultsim.held`).  These tests grade random state machines
under stimulus with long held runs and observe entries that change
inside those runs, and compare every class verdict (detected, excited,
first detecting cycle) with a naive per-fault re-simulation written
here from the gate semantics alone.  The packed engine runs with small
repack thresholds so that repacks land in the middle of held runs.
"""

import random

import pytest

from repro.faultsim import build_fault_list
from repro.faultsim.diagnosis import FaultDictionary
from repro.faultsim.differential import DifferentialFaultSimulator
from repro.faultsim.engine import DifferentialEngine, default_engine_name
from repro.faultsim.faults import Fault, FaultKind
from repro.faultsim.held import held_cycles, held_share, segment_ends
from repro.faultsim.observe import ObservePlan
from repro.faultsim.packed import PackedEngine
from repro.faultsim.trace_cache import good_trace_for
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType, eval_gate
from repro.netlist.levelize import levelize
from repro.netlist.netlist import CONST1, DFF, Netlist, PortDirection

SEEDS = range(8)

_GATES = (
    GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR,
    GateType.XNOR, GateType.NOT, GateType.BUF, GateType.MUX2,
    GateType.AOI21,
)

#: Observe entries the stimulus picks from; equal entries recur as
#: fresh objects, so the plan must fold them.
_OBSERVE_CHOICES = (
    ("y",), ("z",), ("y", "z"), (), {"y": 1}, {"z": 0}, {"y": 1, "z": 1},
)


def random_fsm(seed: int, n_gates: int = 28, n_state: int = 5) -> Netlist:
    """Random state machine: feedback through plain and enabled DFFs."""
    rng = random.Random(seed)
    b = NetlistBuilder(f"held_fsm{seed}")
    nets = list(b.input("x", 3))
    qs = [b.netlist.new_net() for _ in range(n_state)]
    nets.extend(qs)
    for _ in range(n_gates):
        gt = rng.choice(_GATES)
        if gt in (GateType.NOT, GateType.BUF):
            ins = [rng.choice(nets)]
        elif gt in (GateType.MUX2, GateType.AOI21):
            ins = [rng.choice(nets) for _ in range(3)]
        else:
            ins = [rng.choice(nets) for _ in range(2)]
        nets.append(b.gate(gt, *ins))
    logic = nets[-n_gates:]
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
    return b.build()


def held_stimulus(seed: int, n_cycles: int = 60):
    """Cycles in held runs of 1-14, with independent observe changes."""
    rng = random.Random(seed)
    cycles = []
    while len(cycles) < n_cycles:
        word = {"x": rng.getrandbits(3)}
        for _ in range(rng.randint(1, 14)):
            # Equal but distinct mappings half of the time.
            cycles.append(word if rng.random() < 0.5 else dict(word))
    cycles = cycles[:n_cycles]
    observe = []
    entry = rng.choice(_OBSERVE_CHOICES)
    for _ in cycles:
        if rng.random() < 0.2:
            entry = rng.choice(_OBSERVE_CHOICES)
        observe.append(dict(entry) if isinstance(entry, dict) else entry)
    return cycles, observe


# ------------------------------------------------------------ naive oracle


def _naive_rows(netlist, cycles, fault=None):
    """Every net's value per cycle, re-simulated from the gate semantics."""
    order = levelize(netlist)
    stem = fault is not None and fault.kind is FaultKind.STEM
    state = [d.init for d in netlist.dffs]
    rows = []
    for cycle in cycles:
        v = [0] * netlist.n_nets
        v[CONST1] = 1
        for port in netlist.ports.values():
            if port.direction is PortDirection.INPUT:
                for j, net in enumerate(port.nets):
                    v[net] = (cycle.get(port.name, 0) >> j) & 1
        for dff, q in zip(netlist.dffs, state, strict=True):
            v[dff.q] = q
        if stem:
            v[fault.net] = fault.stuck
        for gate in order:
            ins = [v[n] for n in gate.inputs]
            if (
                fault is not None
                and fault.kind is FaultKind.BRANCH
                and fault.gate == gate.index
            ):
                ins[fault.pin] = fault.stuck
            v[gate.output] = eval_gate(gate.gtype, ins, 1)
            if stem and gate.output == fault.net:
                v[gate.output] = fault.stuck
        rows.append(v)
        state = [v[d.d] for d in netlist.dffs]
        if fault is not None and fault.kind is FaultKind.DFF_D:
            state[fault.gate] = fault.stuck
    return rows


def _observed_nets(netlist, entry):
    if isinstance(entry, dict):
        names = [name for name, mask in entry.items() if mask & 1]
    else:
        names = list(entry)
    return [net for name in names for net in netlist.port(name).nets]


def naive_verdict(netlist, cycles, observe, fault: Fault, good_rows):
    """``(detected, excited, first cycle, last cycle)`` of one fault."""
    rows = _naive_rows(netlist, cycles, fault)
    hits = [
        t for t, entry in enumerate(observe)
        if any(
            rows[t][n] != good_rows[t][n]
            for n in _observed_nets(netlist, entry)
        )
    ]
    excited = any(row[fault.net] != fault.stuck for row in good_rows)
    if not hits:
        return False, excited, None, None
    return True, True, hits[0], hits[-1]


def _case(seed):
    netlist = random_fsm(seed)
    cycles, observe = held_stimulus(seed + 1000)
    fault_list = build_fault_list(netlist)
    good_rows = _naive_rows(netlist, cycles)
    expected = {
        rep: naive_verdict(
            netlist, cycles, observe, fault_list.fault(rep), good_rows
        )
        for rep in fault_list.class_representatives()
    }
    return netlist, cycles, observe, fault_list, expected


def _verdicts(result):
    return {
        rep: (d.detected, d.excited, d.cycle)
        for rep, d in result.detections.items()
    }


def _first(expected):
    return {rep: v[:3] for rep, v in expected.items()}


# ------------------------------------------------------------------ tests


class TestHeldRunsMatchNaiveSimulation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cases_hold_and_reach_fixed_points(self, seed):
        netlist, cycles, observe, fault_list, expected = _case(seed)
        held = held_cycles(cycles)
        assert held_share(cycles) > 0.5
        trace = good_trace_for(netlist, cycles, packed=False)
        aliased = [
            t for t in range(1, len(cycles))
            if trace.values[t] is trace.values[t - 1]
        ]
        # The good machine settles inside held runs, and the universe
        # has faults that latch a divergent state.
        assert aliased and all(held[t] for t in aliased)
        assert any(
            fault_list.fault(r).kind is FaultKind.DFF_D for r in expected
        )
        assert any(v[0] for v in expected.values())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_differential_matches_naive(self, seed):
        netlist, cycles, observe, fault_list, expected = _case(seed)
        plan = ObservePlan.from_spec(observe, len(cycles), netlist)
        result = DifferentialEngine().grade(netlist, cycles, fault_list, plan)
        assert _verdicts(result) == _first(expected)

    @pytest.mark.parametrize(
        "engine",
        [
            PackedEngine(lanes=4),
            PackedEngine(lanes=4, repack_threshold=0.95, min_repack_drop=1),
        ],
        ids=["default-repack", "eager-repack"],
    )
    @pytest.mark.parametrize("seed", SEEDS)
    def test_packed_matches_naive(self, seed, engine):
        netlist, cycles, observe, fault_list, expected = _case(seed)
        plan = ObservePlan.from_spec(observe, len(cycles), netlist)
        result = engine.grade(netlist, cycles, fault_list, plan)
        assert _verdicts(result) == _first(expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_walk_reports_last_detecting_cycle(self, seed):
        # stop_at_first=False (the diagnosis mode) walks every cycle.
        netlist, cycles, observe, fault_list, expected = _case(seed)
        plan = ObservePlan.from_spec(observe, len(cycles), netlist)
        trace = good_trace_for(netlist, cycles, packed=False)
        sim = DifferentialFaultSimulator(netlist)
        observe_nets = plan.net_masks(netlist, trace.lanes.mask)
        for rep, (detected, excited, _, last) in expected.items():
            det = sim.simulate_fault(
                fault_list.fault(rep), trace, observe_nets,
                stop_at_first=False,
            )
            assert (det.detected, det.excited, det.cycle) == (
                detected, excited, last
            )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_everything_observed(self, seed):
        netlist, cycles, _, fault_list, _ = _case(seed)
        observe = [("y", "z")] * len(cycles)
        good_rows = _naive_rows(netlist, cycles)
        expected = {
            rep: naive_verdict(
                netlist, cycles, observe, fault_list.fault(rep), good_rows
            )[:3]
            for rep in fault_list.class_representatives()
        }
        plan = ObservePlan.everything(len(cycles))
        for engine in (DifferentialEngine(), PackedEngine(lanes=4)):
            result = engine.grade(netlist, cycles, fault_list, plan)
            assert _verdicts(result) == expected


class TestDiagnosisUnchanged:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dictionary_signatures_match_naive(self, seed):
        rng = random.Random(seed)
        b = NetlistBuilder(f"diag{seed}")
        nets = list(b.input("x", 4))
        for _ in range(20):
            gt = rng.choice(_GATES)
            arity = {GateType.NOT: 1, GateType.BUF: 1, GateType.MUX2: 3,
                     GateType.AOI21: 3}.get(gt, 2)
            nets.append(b.gate(gt, *(rng.choice(nets) for _ in range(arity))))
        b.output("y", nets[-4:])
        netlist = b.build()
        patterns = [{"x": rng.getrandbits(4)} for _ in range(10)]
        patterns += [patterns[-1]] * 5  # held patterns
        observe = [["y"]] * len(patterns)
        fd = FaultDictionary(netlist, patterns, observe).build()
        assert fd.fault_list is not None
        good = [_naive_rows(netlist, [p])[0] for p in patterns]
        y = netlist.port("y").nets
        for rep in fd.fault_list.class_representatives():
            fault = fd.fault_list.fault(rep)
            failing = frozenset(
                i for i, p in enumerate(patterns)
                if any(
                    _naive_rows(netlist, [p], fault)[0][n] != good[i][n]
                    for n in y
                )
            )
            assert fd.signatures[rep] == failing


class TestSegments:
    def test_held_cycles_compare_entries(self):
        a = {"x": 1}
        assert held_cycles([a, a, dict(a), {"x": 2}, {"x": 2, "y": 0}]) == [
            False, True, True, False, False,
        ]
        assert held_cycles([]) == []
        assert held_share([]) == 0.0
        assert held_share([a, a, a, a]) == 0.75

    def test_segment_ends(self):
        held = [False, True, True, True, False, True]
        assert segment_ends(held, None) == [4, 4, 4, 4, 6, 6]
        o1, o2 = object(), object()
        observe = [o1, o1, o2, o2, o2, o2]
        assert segment_ends(held, observe) == [2, 2, 4, 4, 6, 6]

    def test_plan_folds_equal_entries(self):
        netlist = random_fsm(0)
        plan = ObservePlan.from_spec(
            [("y",), ["y"], ("z",), ("y",)], 4, netlist
        )
        masks = plan.net_masks(netlist, 1)
        assert masks is not None
        assert masks[0] is masks[1] is masks[3]
        assert masks[2] is not masks[0]

    def test_auto_reads_the_held_share(self):
        # "auto" weighs the simulated classes against the gates times
        # the moving (not held) share of the cycles.
        netlist = random_fsm(1)
        held = [{"x": 1}] * 10
        moving = [{"x": i % 8} for i in range(10)]
        classes = len(netlist.gates) // 2
        assert default_engine_name(netlist, held, classes) == "packed"
        assert default_engine_name(netlist, moving, classes) == "differential"
        assert default_engine_name(
            netlist, moving, len(netlist.gates)
        ) == "packed"
        assert default_engine_name(netlist) == "differential"
