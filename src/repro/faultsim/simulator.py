"""Compiled good-machine logic simulation.

The simulator evaluates a levelized netlist with one arbitrary-precision
lane word per net: bit *i* of a net's word is the net's value under test
pattern *i* (see :mod:`repro.utils.lanes`).  The gates run through the
generated level functions of :func:`repro.faultsim.lowering.compile_seq`
(every gate output is a root, so dead logic is evaluated too: excitation
reads any fault site), compiled lazily on the first evaluation and shared
process-wide through the lowering program cache.  A combinational pass
therefore costs one generated big-int statement per gate regardless of
how many patterns are applied.

Sequential circuits are stepped cycle by cycle.  In the multi-lane form
(:meth:`LogicSimulator.run_parallel_sessions`, :meth:`LogicSimulator.step`)
lanes are *independent parallel sessions* advancing in lockstep, used to
fault-grade combinational components with hundreds of patterns at once.
The single-lane cycle walk (:meth:`LogicSimulator.trace_sequence`) runs
its own single-lane program (multiplexers branch on their select, see
:func:`repro.faultsim.lowering.gate_expr`) over one working net list,
rewriting only the input bits and Q nets that changed since that list
was last settled.  It memoizes each settled cycle by its ``(DFF state,
input vector)`` pair: in a zero-delay levelized model that pair
determines every net value and the next state, so a repeated pair
reuses the earlier cycle's row and successor state instead of
re-settling the netlist.  Every net is 0 or 1, so a row is one
``bytes`` object, one byte per net.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections.abc import Callable, Mapping, Sequence

from repro.errors import SimulationError
from repro.faultsim.lowering import cached_compile_seq
from repro.netlist.levelize import levels
from repro.netlist.netlist import CONST1, Netlist, PortDirection
from repro.utils.lanes import LaneSet, pack_vectors, unpack_vectors


@dataclass
class SimState:
    """Flip-flop state: one lane word per DFF (indexed like Netlist.dffs)."""

    q: list[int]

    def copy(self) -> "SimState":
        return SimState(list(self.q))


@dataclass
class GoodTrace:
    """Recorded good-machine trajectory used by the differential simulator.

    Attributes:
        lanes: lane configuration of the run.
        values: per cycle, the full net-value row (index = net id).  A
            single-lane trace (:meth:`LogicSimulator.trace_sequence`) holds
            ``bytes`` rows, one 0/1 byte per net; a multi-lane trace
            holds lists of lane words.
        states: per cycle, the DFF state *entering* that cycle; has one
            extra final entry (the state after the last cycle).

    A trace is read-only.  Cycles that repeat a ``(state, inputs)`` pair
    share one row object and one :class:`SimState` object (the
    differential engine's held-run skip relies on that aliasing), and
    cached traces are shared by every engine, so no consumer may write
    into ``values[t]`` or ``states[t].q``.
    """

    lanes: LaneSet
    values: list[bytes] | list[list[int]]
    states: list[SimState]

    @property
    def n_cycles(self) -> int:
        return len(self.values)

    def ever(self, net: int, value: int) -> bool:
        """Whether ``net`` carries ``value`` in some cycle of a
        single-lane trace (the excitation test of a stuck-at fault)."""
        if not self.values:
            return False
        ones, always = self._extremes
        return bool(ones[net]) if value else not always[net]

    @cached_property
    def _extremes(self) -> tuple[bytes, bytes]:
        """Per net, one byte each: 1 if ever 1, and 1 if always 1.

        One OR and one AND over the distinct rows, read as integers.
        """
        rows = {id(row): row for row in self.values}.values()
        width = len(self.values[0])
        ones = 0
        always = (1 << (8 * width)) - 1
        for row in rows:
            word = int.from_bytes(row, "little")
            ones |= word
            always &= word
        return ones.to_bytes(width, "little"), always.to_bytes(width, "little")


#: One generated level function: ``fn(values, mask)`` settles one level.
_LevelFn = Callable[[list[int], int], None]


def _write_bits(
    values: list[int], nets: tuple[int, ...], word: int, changed: int
) -> None:
    """Write the ``changed`` bits of a port ``word`` onto its nets."""
    width = len(nets)
    while changed:
        low = changed & -changed
        j = low.bit_length() - 1
        if j >= width:
            return
        values[nets[j]] = (word >> j) & 1
        changed ^= low


class LogicSimulator:
    """Levelized logic simulator for one netlist (compiled on first use)."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.gate_levels = levels(netlist)
        self._input_nets: dict[str, tuple[int, ...]] = {
            p.name: p.nets
            for p in netlist.ports.values()
            if p.direction is PortDirection.INPUT
        }
        self._output_nets: dict[str, tuple[int, ...]] = {
            p.name: p.nets
            for p in netlist.ports.values()
            if p.direction is PortDirection.OUTPUT
        }
        self._q_nets = tuple(d.q for d in netlist.dffs)
        self._level_fns: dict[bool, tuple[_LevelFn, ...]] = {}

    # ---------------------------------------------------------- plumbing

    def _settle_fns(self, single_lane: bool = False) -> tuple[_LevelFn, ...]:
        """The generated per-level gate functions, compiled on first use.

        ``single_lane`` programs are only valid for one-lane values.
        """
        fns = self._level_fns.get(single_lane)
        if fns is None:
            prog = cached_compile_seq(
                self.netlist, [g.output for g in self.netlist.gates],
                single_lane,
            )
            fns = self._level_fns[single_lane] = prog.level_fns[1:]
        return fns

    def initial_state(self, lanes: LaneSet) -> SimState:
        """Reset state: every DFF holds its init value in every lane."""
        return SimState([lanes.broadcast(d.init) for d in self.netlist.dffs])

    def pack_inputs(
        self, patterns: Sequence[Mapping[str, int]], lanes: LaneSet
    ) -> dict[str, list[int]]:
        """Transpose per-pattern port values into per-bit lane words.

        Args:
            patterns: one ``{port: value}`` mapping per pattern (lane).
            lanes: lane configuration (``lanes.count == len(patterns)``).

        Returns:
            ``{port: [lane word per bit, LSB first]}``.
        """
        if lanes.count != len(patterns):
            raise SimulationError(
                f"{len(patterns)} patterns but {lanes.count} lanes"
            )
        packed: dict[str, list[int]] = {}
        for name, nets in self._input_nets.items():
            values = [p.get(name, 0) for p in patterns]
            packed[name] = pack_vectors(values, len(nets))
        return packed

    # -------------------------------------------------------- evaluation

    def evaluate(
        self,
        inputs: Mapping[str, Sequence[int]],
        state: SimState,
        lanes: LaneSet,
    ) -> list[int]:
        """One combinational settle: compute every net's lane word.

        Args:
            inputs: per input port, lane words per bit (LSB first).
            state: current DFF state.
            lanes: lane configuration.

        Returns:
            Net-value array indexed by net id.
        """
        mask = lanes.mask
        values = [0] * self.netlist.n_nets
        values[CONST1] = mask

        for name, nets in self._input_nets.items():
            words = inputs.get(name)
            if words is None:
                raise SimulationError(f"missing input port {name!r}")
            if len(words) != len(nets):
                raise SimulationError(
                    f"port {name!r} expects {len(nets)} bit words, "
                    f"got {len(words)}"
                )
            for net, word in zip(nets, words, strict=True):
                values[net] = word & mask

        for net, q_word in zip(self._q_nets, state.q, strict=True):
            values[net] = q_word & mask

        for fn in self._settle_fns():
            fn(values, mask)
        return values

    def next_state(self, values: list[int], lanes: LaneSet) -> SimState:
        """Latch DFF inputs from a settled net-value array."""
        return SimState([values[d.d] & lanes.mask for d in self.netlist.dffs])

    def step(
        self,
        inputs: Mapping[str, Sequence[int]],
        state: SimState,
        lanes: LaneSet,
    ) -> tuple[list[int], SimState]:
        """Settle combinational logic, then clock the DFFs."""
        values = self.evaluate(inputs, state, lanes)
        return values, self.next_state(values, lanes)

    # ------------------------------------------------------- conveniences

    def outputs_from_values(
        self, values: list[int], lanes: LaneSet, count: int
    ) -> dict[str, list[int]]:
        """Extract per-pattern output port values from a net-value array."""
        result: dict[str, list[int]] = {}
        for name, nets in self._output_nets.items():
            words = [values[n] for n in nets]
            result[name] = unpack_vectors(words, count)
        return result

    def run_combinational(
        self, patterns: Sequence[Mapping[str, int]]
    ) -> dict[str, list[int]]:
        """Evaluate a combinational netlist over many patterns at once.

        Raises:
            SimulationError: if the netlist has flip-flops.
        """
        if self.netlist.dffs:
            raise SimulationError(
                f"{self.netlist.name!r} is sequential; use run_sequence"
            )
        lanes = LaneSet(len(patterns))
        inputs = self.pack_inputs(patterns, lanes)
        values = self.evaluate(inputs, self.initial_state(lanes), lanes)
        return self.outputs_from_values(values, lanes, len(patterns))

    def run_sequence(
        self,
        cycle_inputs: Sequence[Mapping[str, int]],
        record: bool = False,
    ) -> tuple[list[dict[str, int]], GoodTrace | None]:
        """Single-lane sequential run over a list of per-cycle input values.

        The walk is :meth:`trace_sequence`; each cycle's output values
        are read from its recorded row (once per distinct row).

        Args:
            cycle_inputs: per cycle, ``{port: value}``.
            record: also return the full :class:`GoodTrace` (needed for
                differential fault simulation), with ``bytes`` rows.

        Returns:
            ``(per-cycle output values, trace-or-None)``.
        """
        trace = self.trace_sequence(cycle_inputs)
        out_nets = tuple(self._output_nets.items())
        by_row: dict[int, dict[str, int]] = {}  # row identity -> outputs
        outputs: list[dict[str, int]] = []
        for row in trace.values:
            out = by_row.get(id(row))
            if out is None:
                out = by_row[id(row)] = {
                    name: sum(row[net] << j for j, net in enumerate(nets))
                    for name, nets in out_nets
                }
            outputs.append(dict(out))
        return outputs, trace if record else None

    def trace_sequence(
        self, cycle_inputs: Sequence[Mapping[str, int]]
    ) -> GoodTrace:
        """The single-lane good trace of a per-cycle input sequence.

        A cycle whose ``(DFF state, input vector)`` pair was already
        settled reuses that cycle's row and next state (see the module
        doc), so the trace aliases those rows.
        """
        fns = self._settle_fns(single_lane=True)
        names = tuple(self._input_nets)
        in_nets = tuple(self._input_nets.values())
        q_nets = self._q_nets
        d_nets = tuple(d.d for d in self.netlist.dffs)

        lanes = LaneSet(1)
        state = self.initial_state(lanes)
        # State key: one byte per DFF (single-lane Q words are 0 or 1).
        state_key = bytes(state.q)
        states = {state_key: state}
        seen: dict[
            tuple[bytes, tuple[int, ...]], tuple[bytes, bytes, SimState]
        ] = {}
        # One working net list, settled in place on every miss.  It
        # remembers the sources it was last settled from, so a miss
        # rewrites only the sources that changed since (every gate
        # output is recomputed anyway).
        work = [0] * self.netlist.n_nets
        work[CONST1] = 1
        for net, q in zip(q_nets, state.q, strict=True):
            work[net] = q
        work_key = (state_key, (0,) * len(names))
        trace_values: list[bytes] = []
        trace_states: list[SimState] = [state]
        for cycle in cycle_inputs:
            vector = tuple(cycle.get(name, 0) for name in names)
            key = (state_key, vector)
            hit = seen.get(key)
            if hit is None:
                for nets, word, old in zip(
                    in_nets, vector, work_key[1], strict=True
                ):
                    _write_bits(work, nets, word, word ^ old)
                changed = int.from_bytes(state_key, "little") ^ int.from_bytes(
                    work_key[0], "little"
                )
                while changed:
                    low = changed & -changed
                    i = (low.bit_length() - 1) >> 3
                    work[q_nets[i]] = state_key[i]
                    changed ^= low
                for fn in fns:
                    fn(work, 1)
                work_key = key
                next_key = bytes(map(work.__getitem__, d_nets))
                next_state = states.get(next_key)
                if next_state is None:
                    next_state = states[next_key] = SimState(list(next_key))
                hit = seen[key] = (bytes(work), next_key, next_state)
            row, state_key, state = hit
            trace_values.append(row)
            trace_states.append(state)
        return GoodTrace(lanes, trace_values, trace_states)

    def run_parallel_sessions(
        self, sessions: Sequence[Sequence[Mapping[str, int]]]
    ) -> GoodTrace:
        """Run many equal-length input sequences in parallel lanes.

        All sessions must have the same cycle count; lane *i* carries
        session *i*.  Used to fault-grade sequential components under many
        independent pattern sessions at once.
        """
        if not sessions:
            raise SimulationError("no sessions given")
        length = len(sessions[0])
        if any(len(s) != length for s in sessions):
            raise SimulationError("sessions must have equal length")
        lanes = LaneSet(len(sessions))
        state = self.initial_state(lanes)
        trace_values: list[list[int]] = []
        trace_states: list[SimState] = [state.copy()]
        for t in range(length):
            packed = self.pack_inputs([s[t] for s in sessions], lanes)
            values, state = self.step(packed, state, lanes)
            trace_values.append(values)
            trace_states.append(state.copy())
        return GoodTrace(lanes, trace_values, trace_states)
