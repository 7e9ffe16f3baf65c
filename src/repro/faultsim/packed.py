"""Fault-parallel bit-packed grading: the ``packed`` engine.

The classic parallel-fault trick over generated level kernels
(:func:`repro.faultsim.lowering.compile_seq`): up to ``lanes - 1`` fault
classes are packed into one Python big-int next to the good machine, so
each kernel evaluation serves a whole group of faults at once and the
per-gate interpreter overhead is amortized across the group.  Combinational
words are additionally *pattern*-parallel — every fault group carries a
whole chunk of patterns.

Data layout (combinational).  One word carries ``G`` *lane groups* of
``W`` pattern lanes each — group 0 is the good machine, group ``i >= 1``
is one fault class::

    word = sum(group_value[i] << (i * W) for i in range(G))

The good chunk value of net ``n`` is broadcast into every group by one
multiplication with the replication constant
``R = sum(1 << i*W for i in range(G))``; faults are injected between
levelized kernel evaluations with set/clear masks spanning their group;
detection is one XOR against the replicated good value masked by the
replicated observe mask — a non-zero sub-word in group ``i`` convicts
fault ``i`` on exactly the differing patterns.

Lane repacking.  Detected faults leave the pending list after every
pattern chunk, and the next chunk re-packs the survivors densely into
fresh groups — wider chunks only ever carry the stubborn faults.

Cone fusion.  Unlike the differential engine this one preserves the
*caller's* ``only`` order instead of re-canonicalising: collapsed grading
passes super-class sim units in :meth:`CollapseMap.simulation_order`,
which keeps dominance clusters (shared fanout cones) contiguous — so the
members of one cone land in the same word and one kernel evaluation
serves the whole super-class group.  Verdicts are order-independent, so
this is purely a locality win.

Sequential netlists run a batched cycle walk with the good machine
packed into lane 0 — the detection reference is read out of the word
itself instead of the recorded trace.  Detected faults leave the live
mask at once, and the batch is repacked onto fewer lanes when occupancy
falls below ``repack_threshold`` (smaller words make every big-int op
cheaper); an emptied batch exits the cycle walk early.  A held cycle
(same inputs as the cycle before) entered with the previous cycle's
state in every lane repeats that cycle exactly, so the walk jumps to
the end of its held run and only re-checks detection where the observe
entry changes (:mod:`repro.faultsim.held`).

Verdicts are bit-identical to the ``differential`` reference engine (the
cross-engine equivalence suite and ``benchmarks/bench_packed.py`` gate
this): ``detected``, ``excited`` and the first detecting cycle agree;
``Detection.lanes`` remains a partial witness as documented in
:mod:`repro.faultsim.engine`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.errors import FaultSimError
from repro.faultsim.differential import Detection
from repro.faultsim.engine import (
    Stimulus,
    _excited_sequence,
    _graded_reps,
)
from repro.faultsim.faults import FaultKind, FaultList
from repro.faultsim.harness import CampaignResult
from repro.faultsim.held import held_cycles, segment_ends
from repro.faultsim.lowering import CompiledSeq, cached_compile_seq
from repro.faultsim.observe import ObservePlan
from repro.faultsim.options import DEFAULT_LANES
from repro.faultsim.trace_cache import good_trace_for
from repro.netlist.gates import eval_gate
from repro.netlist.netlist import (
    CONST0,
    CONST1,
    DFF,
    Gate,
    Netlist,
    PortDirection,
)

#: Pending combinational fault: (rep, stuck, inject level, net, gate, pin);
#: ``gate`` is -1 for stem faults.
_PackedEntry = tuple[int, int, int, int, int, int]

#: Pattern widths per combinational pass.  Narrow on purpose: every
#: per-chunk cost — good value replication, kernel evaluation, injection
#: masks — scales with ``lane groups x width`` bits, and the vast majority
#: of faults are detected within the first few dozen patterns, so starting
#: narrow and growing geometrically lets the cheap passes kill the easy
#: faults before any wide word is ever built.
PACKED_CHUNK_SCHEDULE = (32, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def _packed_spans(n_lanes: int) -> Iterable[tuple[int, int]]:
    """Yield ``(base, width)`` pattern spans with byte-aligned widths.

    The final span is padded up to a multiple of 8 so detection words can
    be carved out of the accumulator with one ``int.to_bytes`` pass; the
    padding lanes read zeros from the good trace and carry no observe
    mask bits, so they can never convict a fault.
    """
    base = 0
    schedule = iter(PACKED_CHUNK_SCHEDULE)
    rest = PACKED_CHUNK_SCHEDULE[-1]
    while base < n_lanes:
        width = min(next(schedule, rest), n_lanes - base)
        yield base, (width + 7) // 8 * 8
        base += width


def _replicate(value: int, width: int, n_groups: int, full: int) -> int:
    """Broadcast a ``width``-bit chunk value into every lane group.

    Doubling (shift-or) instead of multiplying by the replication
    constant: the multiply costs ``digits(value) * digits(constant)``
    limb operations per net, the doubling ladder only ``O(groups *
    width)`` bits total — an order of magnitude cheaper on wide chunks.
    """
    rep = value
    g = 1
    while g < n_groups:
        rep |= rep << (g * width)
        g *= 2
    return rep & full


def _output_nets(netlist: Netlist) -> tuple[int, ...]:
    return tuple(
        net
        for p in netlist.ports.values()
        if p.direction is PortDirection.OUTPUT
        for net in p.nets
    )


def _observed(
    values: Sequence[int], obs_nets: Sequence[int], mask: int, live: int
) -> int:
    """Live fault lanes whose value differs from lane 0 on an observed net.

    Lane 0 carries the good value: its bit is replicated as the
    reference instead of reading the recorded trace.
    """
    diff = 0
    for net in obs_nets:
        word = values[net]
        diff |= (word ^ (mask if word & 1 else 0)) & live
        if diff == live:
            break
    return diff


def _convict(
    diff: int,
    cycle: int,
    lane_reps: Sequence[int | None],
    detections: dict[int, Detection],
    detected: set[int],
) -> None:
    """Record a detection at ``cycle`` for every lane set in ``diff``."""
    while diff:
        bit = diff & -diff
        diff ^= bit
        rep = lane_reps[bit.bit_length() - 1]
        assert rep is not None
        detections[rep] = Detection(True, cycle, bit, excited=True)
        detected.add(rep)


def _repack_word(survivors: list[int]) -> Callable[[int], int]:
    """Compaction closure: move surviving lanes down to a dense prefix."""

    def repack(word: int) -> int:
        out = 0
        for new_lane, old_lane in enumerate(survivors):
            out |= ((word >> old_lane) & 1) << new_lane
        return out

    return repack


class PackedEngine:
    """Fault-parallel bit-packed grading over generated level kernels."""

    name = "packed"

    def __init__(
        self,
        lanes: int = DEFAULT_LANES,
        repack_threshold: float = 0.5,
        min_repack_drop: int = 8,
    ):
        if lanes < 2:
            raise FaultSimError("packed engine needs at least 2 lane groups")
        self.lanes = lanes
        self.repack_threshold = repack_threshold
        self.min_repack_drop = min_repack_drop

    # ------------------------------------------------------------- facade

    def grade(
        self,
        netlist: Netlist,
        stimulus: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        *,
        name: str = "",
        skip: frozenset[int] = frozenset(),
        only: Sequence[int] | None = None,
    ) -> CampaignResult:
        result = CampaignResult(
            name or netlist.name, fault_list,
            n_patterns=len(stimulus), pruned=set(skip),
        )
        reps = self._ordered_reps(fault_list, skip, only)
        if netlist.dffs:
            self._grade_sequential(
                netlist, stimulus, fault_list, plan, result, reps
            )
        else:
            self._grade_combinational(
                netlist, stimulus, fault_list, plan, result, reps
            )
        return result

    @staticmethod
    def _ordered_reps(
        fault_list: FaultList,
        skip: frozenset[int],
        only: Sequence[int] | None,
    ) -> list[int]:
        if only is None:
            return _graded_reps(fault_list, skip)
        # Preserve the caller's order (cone fusion, see module docstring).
        classes = fault_list.classes
        seen: set[int] = set()
        reps = []
        for r in only:
            if r in classes and r not in skip and r not in seen:
                seen.add(r)
                reps.append(r)
        return reps

    # ---------------------------------------------------- combinational

    def _grade_combinational(
        self,
        netlist: Netlist,
        patterns: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        result: CampaignResult,
        reps: Sequence[int],
    ) -> None:
        trace = good_trace_for(netlist, patterns, packed=True)
        good = trace.values[0]
        full_mask = trace.lanes.mask

        obs_masks = plan.packed_net_masks(netlist)
        if obs_masks is None:
            obs_masks = {net: full_mask for net in _output_nets(netlist)}
        obs_masks = {n: m for n, m in obs_masks.items() if m}
        prog = cached_compile_seq(netlist, sorted(obs_masks))
        level_fns = prog.level_fns
        driven_at = prog.driven_at
        gate_level = prog.gate_level
        keep = prog.keep
        max_level = prog.max_level
        gates = netlist.gates
        detections = result.detections
        detected = result.detected

        # Every net the kernels or the detection compare read: kept-gate
        # inputs plus observed nets.  Only these need good-value
        # replication; grouped by driving level for eval_from preloads.
        needed: set[int] = set(obs_masks)
        for g in gates:
            if g.index in keep:
                needed.update(g.inputs)
        needed.discard(CONST0)
        needed.discard(CONST1)
        by_level: dict[int, list[int]] = {}
        for n in sorted(needed):
            by_level.setdefault(driven_at.get(n, 0), []).append(n)

        # Full-width excitation screen (a site the stimulus never drives
        # to the opposite value), then dead-cone screen (an effect no
        # kernel reads and no entry observes): neither can be detected.
        pending: list[_PackedEntry] = []
        for rep in reps:
            fault = fault_list.fault(rep)
            if good[fault.net] == (full_mask if fault.stuck else 0):
                detections[rep] = Detection(False, excited=False)
                continue
            if fault.kind is FaultKind.STEM:
                if fault.net not in needed and fault.net not in obs_masks:
                    detections[rep] = Detection(False, excited=True)
                    continue
                entry = (
                    rep, fault.stuck, driven_at.get(fault.net, 0),
                    fault.net, -1, 0,
                )
            else:  # BRANCH (combinational netlists have no DFF_D)
                if fault.gate not in keep:
                    detections[rep] = Detection(False, excited=True)
                    continue
                entry = (
                    rep, fault.stuck, gate_level[fault.gate],
                    fault.net, fault.gate, fault.pin,
                )
            pending.append(entry)

        # Stable level sort: batches become injection-level homogeneous,
        # so the shared preload skips the most kernels per batch, while
        # same-level cone clusters (the caller's ``only`` order) stay
        # adjacent inside one word.
        pending.sort(key=lambda e: e[2])

        capacity = self.lanes - 1
        n_groups = capacity + 1
        obs_items = sorted(obs_masks.items())
        source_nets = by_level.get(0, [])

        for base, width in _packed_spans(trace.lanes.count):
            if not pending:
                break
            chunk_mask = (1 << width) - 1
            full = (1 << (n_groups * width)) - 1
            spans = [chunk_mask << (gi * width) for gi in range(n_groups)]
            # The replicated good chunk of every preloaded net is shared
            # by all batches in the chunk.  With many batches the full
            # preload pays for itself (each batch skips every kernel
            # below its injection level); once the survivors fit a
            # couple of words, replicate only the source nets and
            # evaluate from level 1 instead.
            heavy = len(pending) > capacity * 2
            preload = needed if heavy else source_nets
            good_rep: dict[int, int] = {
                n: _replicate((good[n] >> base) & chunk_mask,
                              width, n_groups, full)
                for n in preload
            }
            for n in obs_masks:
                if n not in good_rep:
                    good_rep[n] = _replicate(
                        (good[n] >> base) & chunk_mask, width, n_groups, full
                    )
            obs_pack = []
            for n, m in obs_items:
                om = (m >> base) & chunk_mask
                if om:
                    obs_pack.append((
                        n, good_rep[n],
                        _replicate(om, width, n_groups, full),
                    ))
            still: list[_PackedEntry] = []
            for at in range(0, len(pending), capacity):
                batch = pending[at : at + capacity]
                survivors = self._run_comb_batch(
                    batch, good_rep, obs_pack, by_level, level_fns,
                    gates, netlist.n_nets, max_level, width, base,
                    full, spans, heavy, detections, detected,
                )
                still.extend(survivors)
            pending = still

        for entry in pending:
            # Survived every chunk despite being excited somewhere.
            detections[entry[0]] = Detection(False, excited=True)

    def _run_comb_batch(
        self,
        batch: list[_PackedEntry],
        good_rep: dict[int, int],
        obs_pack: list[tuple[int, int, int]],
        by_level: dict[int, list[int]],
        level_fns: Sequence[Callable[[list[int], int], None]],
        gates: Sequence[Gate],
        n_nets: int,
        max_level: int,
        width: int,
        base: int,
        full: int,
        spans: Sequence[int],
        heavy: bool,
        detections: dict[int, Detection],
        detected: set[int],
    ) -> list[_PackedEntry]:
        """One word, one chunk: good machine + ``len(batch)`` faults."""
        # Injection tables: span masks per group, applied between levels
        # exactly like the sequential walk.
        net_fix: dict[int, dict[int, list[int]]] = {}
        pin_fix: dict[int, dict[int, dict[int, list[int]]]] = {}
        min_level = max_level
        for gi, (_rep, stuck, level, net, gate, pin) in enumerate(
            batch, start=1
        ):
            span = spans[gi]
            if level < min_level:
                min_level = level
            slot = 0 if stuck else 1
            if gate < 0:
                entry = net_fix.setdefault(level, {}).setdefault(
                    net, [0, 0]
                )
            else:
                entry = (
                    pin_fix.setdefault(level, {})
                    .setdefault(gate, {})
                    .setdefault(pin, [0, 0])
                )
            entry[slot] |= span

        # Levels below the earliest injection carry pure good values in
        # every group: with the full (heavy) preload they come straight
        # from the shared replicated good word instead of being
        # evaluated; the light preload only covers the source nets, so
        # evaluation must start at level 1.
        eval_from = min_level + 1 if heavy else 1
        v = [0] * n_nets
        v[CONST1] = full
        for level, nets in by_level.items():
            if level < eval_from:
                for n in nets:
                    v[n] = good_rep[n]

        for level in sorted(set(net_fix) | set(pin_fix)):
            if level >= eval_from:
                break
            self._apply_fixes(
                v, pin_fix.get(level), net_fix.get(level), gates, full
            )

        for level in range(eval_from, max_level + 1):
            level_fns[level](v, full)
            if level in pin_fix or level in net_fix:
                self._apply_fixes(
                    v, pin_fix.get(level), net_fix.get(level), gates, full
                )

        acc = 0
        for net, ref, obs_word in obs_pack:
            acc |= (v[net] ^ ref) & obs_word

        if not acc:
            return batch
        # One linear to_bytes pass replaces a quadratic ladder of
        # ``acc >> gi*width`` big-int shifts (widths are byte-aligned).
        lane_bytes = width // 8
        acc_bytes = acc.to_bytes((len(batch) + 1) * lane_bytes, "little")
        survivors: list[_PackedEntry] = []
        for gi, entry in enumerate(batch, start=1):
            det = int.from_bytes(
                acc_bytes[gi * lane_bytes : (gi + 1) * lane_bytes], "little"
            )
            if det:
                detections[entry[0]] = Detection(
                    True, 0, det << base, excited=True
                )
                detected.add(entry[0])
            else:
                survivors.append(entry)
        return survivors

    @staticmethod
    def _apply_fixes(
        v: list[int],
        gate_fixes: dict[int, dict[int, list[int]]] | None,
        fixes: dict[int, list[int]] | None,
        gates: Sequence[Gate],
        full: int,
    ) -> None:
        if gate_fixes:
            for gate_index, pins in gate_fixes.items():
                gate = gates[gate_index]
                vals = [v[n] for n in gate.inputs]
                for pin, (f_set, f_clear) in pins.items():
                    vals[pin] = (vals[pin] & ~f_clear) | f_set
                v[gate.output] = eval_gate(gate.gtype, vals, full)
        if fixes:
            for net, (f_set, f_clear) in fixes.items():
                v[net] = (v[net] & ~f_clear) | f_set

    # -------------------------------------------------------- sequential

    def _grade_sequential(
        self,
        netlist: Netlist,
        cycles: Stimulus,
        fault_list: FaultList,
        plan: ObservePlan,
        result: CampaignResult,
        reps: Sequence[int],
    ) -> None:
        dffs = netlist.dffs
        n_nets = netlist.n_nets

        all_obs = _output_nets(netlist)
        obs_per_cycle: list[tuple[int, ...]] | None = None
        net_masks = plan.net_masks(netlist, 1)
        if net_masks is not None:
            # Identical observe entries share one dict (and so one
            # tuple), which the segment pass compares by identity.
            as_tuple: dict[int, tuple[int, ...]] = {}
            obs_per_cycle = []
            for nets in net_masks:
                nets_tuple = as_tuple.get(id(nets))
                if nets_tuple is None:
                    nets_tuple = as_tuple[id(nets)] = tuple(nets)
                obs_per_cycle.append(nets_tuple)
        held = held_cycles(cycles)
        ends = segment_ends(held, obs_per_cycle)
        roots = set(all_obs if obs_per_cycle is None else
                    (n for nets in obs_per_cycle for n in nets))
        roots.update(d.d for d in dffs)
        prog = cached_compile_seq(netlist, sorted(roots))

        input_ports = [
            (p.name, p.nets)
            for p in netlist.ports.values()
            if p.direction is PortDirection.INPUT
        ]
        detections = result.detections
        detected = result.detected

        # Sequential words carry no pattern lanes, so narrow words would
        # just multiply the number of cycle walks: never go below 255
        # faults per word.
        capacity = max(self.lanes - 1, 255)
        for start in range(0, len(reps), capacity):
            batch = reps[start : start + capacity]
            self._run_seq_batch(
                batch, fault_list, cycles, dffs, n_nets, input_ports,
                prog, netlist.gates, obs_per_cycle, all_obs, held, ends,
                detections, detected,
            )
        undetected = [r for r in reps if r not in detected]
        if undetected:
            trace = good_trace_for(netlist, cycles, packed=False)
            for rep in undetected:
                excited = _excited_sequence(fault_list.fault(rep), trace)
                detections[rep] = Detection(False, excited=excited)

    def _run_seq_batch(
        self,
        batch: Sequence[int],
        fault_list: FaultList,
        cycles: Stimulus,
        dffs: Sequence[DFF],
        n_nets: int,
        input_ports: list[tuple[str, tuple[int, ...]]],
        prog: CompiledSeq,
        gates: Sequence[Gate],
        obs_per_cycle: list[tuple[int, ...]] | None,
        all_obs: tuple[int, ...],
        held: Sequence[bool],
        ends: Sequence[int],
        detections: dict[int, Detection],
        detected: set[int],
    ) -> None:
        """Batched cycle walk with the good machine in lane 0.

        Lane ``i + 1`` carries fault ``batch[i]``; lane 0 gets no
        injection, so its trajectory *is* the good machine and the
        detection reference is read out of the word (bit 0) instead of
        the recorded trace.  Every lane is one exact faulty machine, so
        first detecting cycles match the differential engine's.

        ``held`` and ``ends`` are the stimulus' held flags and segment
        ends (:mod:`repro.faultsim.held`): a held cycle entered with the
        previous cycle's state repeats it, so the walk jumps to the
        segment's end.
        """
        level_fns = prog.level_fns
        driven_at = prog.driven_at
        gate_level = prog.gate_level
        keep = prog.keep
        max_level = prog.max_level

        n_lanes = len(batch) + 1
        mask = (1 << n_lanes) - 1
        lane_reps: list[int | None] = [None, *batch]

        net_fix: dict[int, dict[int, list[int]]] = {}
        pin_fix: dict[int, dict[int, dict[int, list[int]]]] = {}
        dff_fix: dict[int, list[int]] = {}
        for lane, rep in enumerate(lane_reps):
            if rep is None:
                continue
            fault = fault_list.fault(rep)
            bit = 1 << lane
            slot = 0 if fault.stuck else 1
            if fault.kind is FaultKind.STEM:
                level = driven_at.get(fault.net, 0)
                entry = net_fix.setdefault(level, {}).setdefault(
                    fault.net, [0, 0]
                )
                entry[slot] |= bit
            elif fault.kind is FaultKind.BRANCH:
                if fault.gate not in keep:
                    continue  # unobservable cone: cannot be detected
                level = gate_level[fault.gate]
                entry = (
                    pin_fix.setdefault(level, {})
                    .setdefault(fault.gate, {})
                    .setdefault(fault.pin, [0, 0])
                )
                entry[slot] |= bit
            else:  # DFF_D
                entry = dff_fix.setdefault(fault.gate, [0, 0])
                entry[slot] |= bit

        state = [mask if d.init else 0 for d in dffs]
        live = mask & ~1  # lane 0 is the reference, never "detected"
        alive = n_lanes - 1
        # The state entering the previous cycle, or None after a repack
        # (the lane layout changed, so the states do not compare).
        entering: list[int] | None = None
        values: list[int] = []

        n_cycles = len(cycles)
        t = 0
        while t < n_cycles:
            if held[t] and state == entering:
                # Same inputs and same state as cycle t - 1 in every lane:
                # the whole word repeats up to the next input change.  A
                # new observe entry inside the run only re-checks
                # detection on the cached values.
                while True:
                    if (
                        obs_per_cycle is not None
                        and obs_per_cycle[t] is not obs_per_cycle[t - 1]
                    ):
                        diff = _observed(values, obs_per_cycle[t], mask, live)
                        if diff:
                            _convict(diff, t, lane_reps, detections, detected)
                            live &= ~diff
                            alive = bin(live).count("1")
                            if not live:
                                return
                    t = ends[t]
                    if t == n_cycles or not held[t]:
                        break
                continue

            cycle = cycles[t]
            values = [0] * n_nets
            values[CONST1] = mask
            for port_name, nets in input_ports:
                word = cycle.get(port_name, 0)
                for j, net in enumerate(nets):
                    values[net] = mask if (word >> j) & 1 else 0
            for dff, q_word in zip(dffs, state, strict=True):
                values[dff.q] = q_word

            source_fix = net_fix.get(0)
            if source_fix:
                for net, (f_set, f_clear) in source_fix.items():
                    values[net] = (values[net] & ~f_clear) | f_set

            for level in range(1, max_level + 1):
                level_fns[level](values, mask)
                gate_fixes = pin_fix.get(level)
                if gate_fixes:
                    for gate_index, pins in gate_fixes.items():
                        gate = gates[gate_index]
                        vals = [values[n] for n in gate.inputs]
                        for pin, (f_set, f_clear) in pins.items():
                            vals[pin] = (vals[pin] & ~f_clear) | f_set
                        values[gate.output] = eval_gate(
                            gate.gtype, vals, mask
                        )
                fixes = net_fix.get(level)
                if fixes:
                    for net, (f_set, f_clear) in fixes.items():
                        values[net] = (values[net] & ~f_clear) | f_set

            diff = _observed(
                values,
                all_obs if obs_per_cycle is None else obs_per_cycle[t],
                mask, live,
            )
            if diff:
                _convict(diff, t, lane_reps, detections, detected)
                live &= ~diff
                alive = bin(live).count("1")
                if not live:
                    return  # every fault lane detected: drop out early

            new_state = [values[d.d] for d in dffs]
            for dff_index, (f_set, f_clear) in dff_fix.items():
                new_state[dff_index] = (
                    (new_state[dff_index] & ~f_clear) | f_set
                )
            entering = state
            state = new_state
            t += 1

            if (
                alive <= (n_lanes - 1) * self.repack_threshold
                and (n_lanes - 1) - alive >= self.min_repack_drop
            ):
                survivors = [0] + [
                    lane for lane in range(1, n_lanes) if (live >> lane) & 1
                ]
                repack = _repack_word(survivors)
                state = [repack(w) for w in state]
                entering = None
                for fixes in net_fix.values():
                    for entry in fixes.values():
                        entry[0] = repack(entry[0])
                        entry[1] = repack(entry[1])
                for gate_fixes in pin_fix.values():
                    for pins in gate_fixes.values():
                        for entry in pins.values():
                            entry[0] = repack(entry[0])
                            entry[1] = repack(entry[1])
                for entry in dff_fix.values():
                    entry[0] = repack(entry[0])
                    entry[1] = repack(entry[1])
                lane_reps = [lane_reps[lane] for lane in survivors]
                n_lanes = len(survivors)
                mask = (1 << n_lanes) - 1
                live = mask & ~1
                alive = n_lanes - 1
