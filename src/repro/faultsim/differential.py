"""Per-fault event-driven differential fault simulation.

Given the recorded good-machine trajectory (:class:`GoodTrace`), each fault
is simulated by propagating only the *differences* it causes: the fault site
is forced, reader gates are re-evaluated in level order, and propagation
stops as soon as the difference front dies out or reaches an observed
output.  Most faults are either detected within a few events (and dropped)
or never excite any activity, so the cost per fault is far below a full
re-simulation.

Lanes are inherited from the good trace: with a pattern-parallel trace every
fault is graded against all patterns at once; with a single-lane sequential
trace the events walk the traced cycles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.faultsim.faults import Fault, FaultKind
from repro.faultsim.held import held_rows, segment_ends
from repro.faultsim.simulator import GoodTrace, LogicSimulator
from repro.netlist.gates import GateType
from repro.netlist.netlist import Gate, Netlist, PortDirection


@dataclass(frozen=True)
class Detection:
    """Outcome of simulating one fault.

    Attributes:
        detected: True if any observed output differed in any lane.
        cycle: first detecting cycle index (None if undetected).
        lanes: lane word of the detecting lanes at that cycle (0 if none).
        excited: True if the stuck value ever differed from the good value
            at the fault site (a fault that is never excited cannot be
            detected by *any* observability — the stimulus simply never
            drives the site to the opposite value).
    """

    detected: bool
    cycle: int | None = None
    lanes: int = 0
    excited: bool = False


class DifferentialFaultSimulator:
    """Event-driven single-fault propagation against a good trace."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.sim = LogicSimulator(netlist)
        self._gate_level = self.sim.gate_levels
        # net -> tuple of reader gate indices
        readers: dict[int, list[int]] = {}
        for gate in netlist.gates:
            for net in gate.inputs:
                readers.setdefault(net, []).append(gate.index)
        self._readers: dict[int, tuple[int, ...]] = {
            net: tuple(g) for net, g in readers.items()
        }
        # net -> tuple of DFF indices latching it
        dff_readers: dict[int, list[int]] = {}
        for dff in netlist.dffs:
            dff_readers.setdefault(dff.d, []).append(dff.index)
        self._dff_readers: dict[int, tuple[int, ...]] = {
            net: tuple(d) for net, d in dff_readers.items()
        }
        self._gates = netlist.gates
        self._dffs = netlist.dffs
        self._eval_stamp = [0] * len(netlist.gates)
        self._version = 0
        self._segment_memo: tuple[
            GoodTrace, list[dict[int, int]] | None, list[bool], list[int]
        ] | None = None
        #: All output-port nets (used when observe spec is None).
        self._all_output_nets: tuple[int, ...] = tuple(
            net
            for p in netlist.ports.values()
            if p.direction is PortDirection.OUTPUT
            for net in p.nets
        )

    # ----------------------------------------------------------- helpers

    def observe_nets_for(
        self, observe: Sequence[Mapping[str, int]] | None, n_cycles: int, mask: int
    ) -> list[dict[int, int]] | None:
        """Precompute per-cycle ``{net: observed-lane-mask}`` maps.

        Args:
            observe: per cycle, ``{port name: lane mask}`` of observed
                ports (missing port = unobserved that cycle).  ``None``
                means every output port observed in every lane each cycle.
            n_cycles: trace length (for validation).
            mask: all-lanes mask.

        Returns:
            One dict per cycle, or None to mean "everything, always".
        """
        if observe is None:
            return None
        if len(observe) != n_cycles:
            raise ValueError(
                f"observe has {len(observe)} entries for {n_cycles} cycles"
            )
        per_cycle: list[dict[int, int]] = []
        for entry in observe:
            nets: dict[int, int] = {}
            for port_name, lane_mask in entry.items():
                port = self.netlist.port(port_name)
                m = lane_mask & mask
                if not m:
                    continue
                for net in port.nets:
                    nets[net] = nets.get(net, 0) | m
            per_cycle.append(nets)
        return per_cycle

    # ------------------------------------------------------------- engine

    def simulate_fault(
        self,
        fault: Fault,
        trace: GoodTrace,
        observe_nets: list[dict[int, int]] | None = None,
        stop_at_first: bool = True,
    ) -> Detection:
        """Grade one fault against the recorded good trace.

        Args:
            fault: the stuck-at fault to inject.
            trace: good-machine trajectory from
                :meth:`LogicSimulator.trace_sequence` /
                :meth:`run_parallel_sessions`.
            observe_nets: per-cycle ``{net: lane mask}`` observability maps
                from :meth:`observe_nets_for` (None = all outputs, always).
            stop_at_first: return at the first detecting cycle.

        Returns:
            Detection record.
        """
        lanes = trace.lanes
        mask = lanes.mask
        forced = mask if fault.stuck else 0
        site = fault.net
        kind = fault.kind
        gates = self._gates
        dffs = self._dffs
        gate_level = self._gate_level
        readers = self._readers
        dff_readers = self._dff_readers
        stem_site = site if kind is FaultKind.STEM else -1

        faulty_q: dict[int, int] = {}
        detected_cycle: int | None = None
        detected_lanes = 0
        excited = False

        rows = trace.values
        n_cycles = len(rows)
        # Held-run skip (see repro.faultsim.held): a cycle whose good row
        # is the previous cycle's and whose entering faulty state is the
        # previous one's repeats that cycle's diff.  Exact only when the
        # walk stops at the first detection, because a full walk reports
        # the last detecting cycle.
        held, ends = self._segments(trace, observe_nets)
        last_q: dict[int, int] | None = None
        diff: dict[int, int] = {}
        # Drained by every cycle's propagation loop, so shared by all.
        heap: list[tuple[int, int]] = []

        def schedule_readers(net: int) -> None:
            for g in readers.get(net, ()):
                heapq.heappush(heap, (gate_level[g], g))

        t = 0
        while t < n_cycles:
            good = rows[t]

            # Fast skip: fault currently invisible and no state divergence.
            if not faulty_q and good[site] == forced:
                last_q = None
                t += 1
                continue
            excited = True

            if stop_at_first and held[t] and faulty_q == last_q:
                # Cycle t repeats cycle t - 1, and so does every cycle up
                # to the next input change; a new observe entry inside
                # that run only needs the detection check.
                while True:
                    if (
                        observe_nets is not None
                        and observe_nets[t] is not observe_nets[t - 1]
                    ):
                        bad = self._observed(diff, good, observe_nets[t], mask)
                        if bad:
                            return Detection(True, t, bad, excited=True)
                    t = ends[t]
                    if t == n_cycles or not held[t]:
                        break
                continue
            last_q = faulty_q

            self._version += 1
            version = self._version
            stamp = self._eval_stamp
            diff = {}

            # Seed: diverged flip-flop state.
            for dff_idx, q_word in faulty_q.items():
                q_net = dffs[dff_idx].q
                if q_word != good[q_net]:
                    diff[q_net] = q_word
                    schedule_readers(q_net)

            # Seed: fault injection.
            if kind is FaultKind.STEM:
                if diff.get(site, good[site]) != forced:
                    diff[site] = forced
                    if forced == good[site]:
                        del diff[site]
                    else:
                        schedule_readers(site)
                elif site in diff:
                    schedule_readers(site)
            elif kind is FaultKind.BRANCH:
                heapq.heappush(heap, (gate_level[fault.gate], fault.gate))
            # DFF_D faults act at latch time only.

            # Level-ordered propagation; each gate evaluated once per cycle.
            while heap:
                _, g_idx = heapq.heappop(heap)
                if stamp[g_idx] == version:
                    continue
                stamp[g_idx] = version
                gate = gates[g_idx]
                out_net = gate.output

                if out_net == stem_site:
                    out = forced
                else:
                    out = self._eval_faulty(gate, diff, good, mask, fault)

                old = diff.get(out_net, good[out_net])
                if out != old:
                    if out == good[out_net]:
                        del diff[out_net]
                    else:
                        diff[out_net] = out
                    schedule_readers(out_net)

            # Detection check at observed outputs.
            obs = None if observe_nets is None else observe_nets[t]
            if diff and (obs is None or obs):
                bad = self._observed(diff, good, obs, mask)
                if bad:
                    detected_lanes |= bad
                    detected_cycle = t
                    if stop_at_first:
                        return Detection(
                            True, detected_cycle, detected_lanes,
                            excited=True,
                        )

            # Latch faulty next state.
            new_faulty_q: dict[int, int] = {}
            good_next = trace.states[t + 1]
            if diff:
                for net in diff:
                    for dff_idx in dff_readers.get(net, ()):
                        d_val = diff[net]
                        if d_val != good_next.q[dff_idx]:
                            new_faulty_q[dff_idx] = d_val
            if kind is FaultKind.DFF_D:
                # The D-pin force wins over whatever the net carries.
                if forced != good_next.q[fault.gate]:
                    new_faulty_q[fault.gate] = forced
                else:
                    new_faulty_q.pop(fault.gate, None)
            faulty_q = new_faulty_q
            t += 1

        if detected_cycle is not None:
            return Detection(True, detected_cycle, detected_lanes,
                             excited=True)
        return Detection(False, excited=excited)

    def _segments(
        self,
        trace: GoodTrace,
        observe_nets: list[dict[int, int]] | None,
    ) -> tuple[list[bool], list[int]]:
        """Held flags and segment ends of one (trace, observe) pair.

        Held cycles come from row aliasing (:func:`held_rows`).
        Memoized on the last pair, since a grade walks every fault over
        the same one.
        """
        memo = self._segment_memo
        if memo is not None and memo[0] is trace and memo[1] is observe_nets:
            return memo[2], memo[3]
        held = held_rows(trace.values)
        ends = segment_ends(held, observe_nets)
        self._segment_memo = (trace, observe_nets, held, ends)
        return held, ends

    def _observed(
        self,
        diff: dict[int, int],
        good: Sequence[int],
        obs: dict[int, int] | None,
        mask: int,
    ) -> int:
        """Lanes on which ``diff`` reaches an observed net.

        ``obs`` is one cycle's ``{net: lane mask}`` map, or ``None`` for
        every output port on every lane.
        """
        bad = 0
        if obs is None:
            for net in self._all_output_nets:
                d = diff.get(net)
                if d is not None:
                    bad |= (d ^ good[net]) & mask
            return bad
        if len(diff) < len(obs):
            items = ((net, obs.get(net, 0)) for net in diff)
        else:
            items = ((net, m) for net, m in obs.items())
        for net, m in items:
            if not m:
                continue
            d = diff.get(net)
            if d is not None:
                bad |= (d ^ good[net]) & m
        return bad

    def _eval_faulty(
        self,
        gate: Gate,
        diff: dict[int, int],
        good: Sequence[int],
        mask: int,
        fault: Fault,
    ) -> int:
        """Evaluate one gate under the current difference front."""
        ins = gate.inputs
        vals = [diff.get(n, good[n]) for n in ins]
        if (
            fault.kind is FaultKind.BRANCH
            and fault.gate == gate.index
        ):
            vals[fault.pin] = mask if fault.stuck else 0
        gt = gate.gtype
        if gt is GateType.MUX2:
            a, b, sel = vals
            return ((a & ~sel) | (b & sel)) & mask
        if gt is GateType.AND:
            out = vals[0]
            for v in vals[1:]:
                out &= v
            return out & mask
        if gt is GateType.XOR:
            out = vals[0]
            for v in vals[1:]:
                out ^= v
            return out & mask
        if gt is GateType.NOT:
            return mask & ~vals[0]
        if gt is GateType.OR:
            out = vals[0]
            for v in vals[1:]:
                out |= v
            return out & mask
        if gt is GateType.NAND:
            out = vals[0]
            for v in vals[1:]:
                out &= v
            return mask & ~out
        if gt is GateType.NOR:
            out = vals[0]
            for v in vals[1:]:
                out |= v
            return mask & ~out
        if gt is GateType.XNOR:
            out = vals[0]
            for v in vals[1:]:
                out ^= v
            return mask & ~out
        if gt is GateType.BUF:
            return vals[0] & mask
        if gt is GateType.AOI21:
            return mask & ~((vals[0] & vals[1]) | vals[2])
        raise ValueError(f"unhandled gate type {gt}")  # pragma: no cover
