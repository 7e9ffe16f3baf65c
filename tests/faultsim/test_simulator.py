"""Unit tests for the compiled good-machine logic simulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faultsim.simulator import LogicSimulator
from repro.library.adders import incrementer
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType, eval_gate
from repro.netlist.levelize import levelize
from repro.netlist.netlist import CONST0, CONST1, DFF, PortDirection
from repro.utils.lanes import LaneSet

from tests.faultsim.test_collapse_property import random_seq


def all_gates_circuit():
    b = NetlistBuilder("allgates")
    x = b.input("x", 3)
    a, c, s = x
    b.output("and_", b.and_(a, c))
    b.output("nand_", b.nand(a, c))
    b.output("or_", b.or_(a, c))
    b.output("nor_", b.nor(a, c))
    b.output("xor_", b.xor(a, c))
    b.output("xnor_", b.xnor(a, c))
    b.output("not_", b.not_(a))
    b.output("buf_", b.gate(GateType.BUF, a))
    b.output("mux_", b.gate(GateType.MUX2, a, c, s))
    b.output("aoi_", b.gate(GateType.AOI21, a, c, s))
    return b.build()


class TestCombinational:
    def test_all_gate_types_exhaustive(self):
        sim = LogicSimulator(all_gates_circuit())
        pats = [dict(x=v) for v in range(8)]
        out = sim.run_combinational(pats)
        for i, v in enumerate(range(8)):
            a, c, s = v & 1, (v >> 1) & 1, (v >> 2) & 1
            assert out["and_"][i] == (a & c)
            assert out["nand_"][i] == 1 - (a & c)
            assert out["or_"][i] == (a | c)
            assert out["nor_"][i] == 1 - (a | c)
            assert out["xor_"][i] == (a ^ c)
            assert out["xnor_"][i] == 1 - (a ^ c)
            assert out["not_"][i] == 1 - a
            assert out["buf_"][i] == a
            assert out["mux_"][i] == (c if s else a)
            assert out["aoi_"][i] == 1 - ((a & c) | s)

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=200))
    def test_parallel_matches_serial(self, values):
        """Many lanes at once == one lane at a time (the core invariant)."""
        sim = LogicSimulator(all_gates_circuit())
        batch = sim.run_combinational([dict(x=v) for v in values])
        for i, v in enumerate(values):
            single = sim.run_combinational([dict(x=v)])
            for port in batch:
                assert batch[port][i] == single[port][0]

    def test_missing_input_port_rejected(self):
        # pack_inputs defaults missing pattern keys to 0, but evaluate()
        # requires every declared input port to be present.
        sim = LogicSimulator(all_gates_circuit())
        lanes = LaneSet(1)
        with pytest.raises(SimulationError):
            sim.evaluate({}, sim.initial_state(lanes), lanes)

    def test_sequential_circuit_rejected_in_combinational_mode(self):
        b = NetlistBuilder("seq")
        x = b.input("x", 1)
        b.output("q", b.dff(x[0]))
        sim = LogicSimulator(b.build())
        with pytest.raises(SimulationError):
            sim.run_combinational([dict(x=1)])


class TestSequential:
    def _counter(self, bits=3):
        """Free-running counter: q' = q + 1."""
        b = NetlistBuilder("ctr")
        b.input("tick", 1)
        q = [b.netlist.new_net() for _ in range(bits)]
        inc = incrementer(b, q)
        for i in range(bits):
            b.netlist.dffs.append(DFF(i, inc[i], q[i], 0))
        b.output("count", q)
        return LogicSimulator(b.build())

    def test_counter_counts(self):
        sim = self._counter()
        outs, _ = sim.run_sequence([dict(tick=0)] * 10)
        assert [o["count"] for o in outs] == [i % 8 for i in range(10)]

    def test_initial_state_respects_init(self):
        b = NetlistBuilder("init")
        x = b.input("x", 1)
        b.output("q", b.dff(x[0], init=1))
        sim = LogicSimulator(b.build())
        outs, _ = sim.run_sequence([dict(x=0)])
        assert outs[0]["q"] == 1

    def test_record_produces_trace(self):
        sim = self._counter()
        outs, trace = sim.run_sequence([dict(tick=0)] * 4, record=True)
        assert trace is not None
        assert trace.n_cycles == 4
        assert len(trace.states) == 5

    def test_parallel_sessions_lockstep(self):
        b = NetlistBuilder("acc")
        x = b.input("x", 4)
        q = [b.netlist.new_net() for _ in range(4)]
        xor = b.xor_word(list(x), q)
        for i in range(4):
            b.netlist.dffs.append(DFF(i, xor[i], q[i], 0))
        b.output("acc", q)
        sim = LogicSimulator(b.build())
        sessions = [
            [dict(x=1), dict(x=2)],
            [dict(x=15), dict(x=15)],
        ]
        trace = sim.run_parallel_sessions(sessions)
        assert trace.lanes.count == 2
        # Final DFF state per lane must match a serial run of that session.
        for lane, session in enumerate(sessions):
            _, serial = sim.run_sequence(session, record=True)
            assert serial is not None
            for dff_index in range(4):
                parallel_bit = (trace.states[-1].q[dff_index] >> lane) & 1
                assert parallel_bit == serial.states[-1].q[dff_index]

    def test_sessions_must_be_same_length(self):
        sim = self._counter()
        with pytest.raises(SimulationError):
            sim.run_parallel_sessions([[dict(tick=0)], []])

    def test_empty_sessions_rejected(self):
        sim = self._counter()
        with pytest.raises(SimulationError):
            sim.run_parallel_sessions([])


# ------------------------------------------------ compiled-kernel property


def _feedback_netlist(seed: int):
    """Random circuit with enable-DFF feedback, tied constants and logic
    that nothing reads (dead gates must still appear in the trace)."""
    rng = random.Random(seed)
    b = NetlistBuilder(f"fb{seed}")
    nets = list(b.input("x", 3)) + list(b.input("en", 1))
    state = []
    for i in range(16):
        gt = rng.choice(
            (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
             GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
             GateType.MUX2, GateType.AOI21)
        )
        pool = nets + state + [CONST0, CONST1]
        arity = {GateType.NOT: 1, GateType.BUF: 1, GateType.MUX2: 3,
                 GateType.AOI21: 3}.get(gt, rng.choice((2, 3)))
        out = b.gate(gt, *(rng.choice(pool) for _ in range(arity)))
        if i % 3 == 2:
            state.append(b.dff(out, init=rng.randrange(2),
                               enable=rng.choice(nets)))
        nets.append(out)
    b.output("y", nets[-3:] + state[-1:])
    return b.build()


def _circuits():
    return [random_seq(s) for s in (21, 22, 23)] + [
        _feedback_netlist(s) for s in (31, 32, 33)
    ]


def _held_stimulus(rng, n: int, ports: dict[str, int]):
    """Runs of vectors drawn from a small pool: held values and repeats."""
    pool = [
        {p: rng.getrandbits(w) for p, w in ports.items()} for _ in range(4)
    ]
    cycles = []
    while len(cycles) < n:
        cycles.extend([rng.choice(pool)] * rng.randint(1, 5))
    return cycles[:n]


def _naive_run(netlist, cycles):
    """Reference walk: levelized ``eval_gate`` over one lane per cycle."""
    order = levelize(netlist)
    ins = {
        p.name: p.nets for p in netlist.ports.values()
        if p.direction is PortDirection.INPUT
    }
    outs = {
        p.name: p.nets for p in netlist.ports.values()
        if p.direction is PortDirection.OUTPUT
    }
    state = [d.init for d in netlist.dffs]
    values_per_cycle, states, outputs = [], [list(state)], []
    for cycle in cycles:
        values = [0] * netlist.n_nets
        values[CONST1] = 1
        for name, nets in ins.items():
            for j, net in enumerate(nets):
                values[net] = (cycle.get(name, 0) >> j) & 1
        for dff, q in zip(netlist.dffs, state, strict=True):
            values[dff.q] = q
        for gate in order:
            values[gate.output] = eval_gate(
                gate.gtype, [values[n] for n in gate.inputs], 1
            )
        outputs.append({
            name: sum(values[n] << j for j, n in enumerate(nets))
            for name, nets in outs.items()
        })
        values_per_cycle.append(values)
        state = [values[d.d] for d in netlist.dffs]
        states.append(list(state))
    return values_per_cycle, states, outputs


def _widths(netlist):
    return {
        p.name: len(p.nets) for p in netlist.ports.values()
        if p.direction is PortDirection.INPUT
    }


class TestCompiledKernel:
    def test_circuits_have_dead_logic(self):
        for netlist in _circuits():
            read = {n for g in netlist.gates for n in g.inputs}
            read |= {d.d for d in netlist.dffs}
            read |= {n for p in netlist.ports.values() for n in p.nets}
            assert any(g.output not in read for g in netlist.gates)

    @pytest.mark.parametrize("length", [0, 1, 40])
    @pytest.mark.parametrize("index", range(6))
    def test_run_sequence_matches_naive_walk(self, index, length):
        netlist = _circuits()[index]
        cycles = _held_stimulus(
            random.Random(index * 7 + length), length, _widths(netlist)
        )
        outputs, trace = LogicSimulator(netlist).run_sequence(
            cycles, record=True
        )
        values, states, expected_outputs = _naive_run(netlist, cycles)
        assert trace is not None
        assert [list(row) for row in trace.values] == values
        assert [s.q for s in trace.states] == states
        assert outputs == expected_outputs

    @pytest.mark.parametrize("index", range(6))
    def test_trace_sequence_is_the_recorded_walk(self, index):
        netlist = _circuits()[index]
        cycles = _held_stimulus(random.Random(index), 40, _widths(netlist))
        sim = LogicSimulator(netlist)
        trace = sim.trace_sequence(cycles)
        outputs, recorded = sim.run_sequence(cycles, record=True)
        values, states, expected_outputs = _naive_run(netlist, cycles)
        assert recorded is not None
        assert [list(row) for row in trace.values] == values
        assert [s.q for s in trace.states] == states
        assert outputs == expected_outputs
        assert sim.run_sequence(cycles) == (expected_outputs, None)

        def aliasing(rows):
            first = {}
            return [first.setdefault(id(row), t) for t, row in enumerate(rows)]

        assert aliasing(trace.values) == aliasing(recorded.values)
        assert aliasing(trace.states) == aliasing(recorded.states)
        assert len(set(aliasing(trace.values))) < len(cycles)

    @pytest.mark.parametrize("index", range(6))
    def test_parallel_sessions_match_single_lanes(self, index):
        netlist = _circuits()[index]
        rng = random.Random(index)
        sessions = [
            _held_stimulus(rng, 12, _widths(netlist)) for _ in range(5)
        ]
        sim = LogicSimulator(netlist)
        packed = sim.run_parallel_sessions(sessions)
        for lane, session in enumerate(sessions):
            _, single = sim.run_sequence(session, record=True)
            assert single is not None
            for t in range(len(session)):
                assert [
                    (w >> lane) & 1 for w in packed.values[t]
                ] == list(single.values[t])
            assert [
                [(q >> lane) & 1 for q in s.q] for s in packed.states
            ] == [s.q for s in single.states]

    def test_repeated_cycles_share_one_value_list(self):
        netlist = _circuits()[3]
        cycles = [dict(x=1, en=0)] * 6
        _, trace = LogicSimulator(netlist).run_sequence(cycles, record=True)
        assert trace is not None
        assert len({id(v) for v in trace.values}) < len(cycles)

    def test_wrong_port_width_rejected(self):
        sim = LogicSimulator(all_gates_circuit())
        lanes = LaneSet(1)
        with pytest.raises(SimulationError, match="expects 3 bit words"):
            sim.evaluate({"x": [1, 0]}, sim.initial_state(lanes), lanes)
