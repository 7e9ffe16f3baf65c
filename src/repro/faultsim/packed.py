"""Fault-parallel bit-packed grading: the ``packed`` engine.

The classic parallel-fault trick over generated kernels: a group of
fault classes is packed into one Python big-int, so each kernel
evaluation serves the whole group at once and the per-gate interpreter
overhead is amortized across it.  Combinational words carry up to
``lanes - 1`` fault groups next to the good machine and are additionally
*pattern*-parallel — every fault group carries a whole chunk of patterns
(level kernels of :func:`repro.faultsim.lowering.compile_seq`).
Sequential words carry one fault per lane and no good machine (see
below).

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

Sequential netlists run one cone walk per batch of at least 255 classes
(after PROOFS: Niermann, Cheng & Patel, IEEE TCAD 1992).  The batch's
fan-out cone — closed over gates and through DFFs, cut to logic that can
reach an observed net — is lowered to one generated function
(:class:`repro.faultsim.lowering.ConeLowering`).  It evaluates only the
cone's gates; every other net is read from the recorded good trace, so
good side inputs become branches.  Stem, pin and D-pin faults are
applied inline through per-slot set and keep masks.  The state is kept
as the lanes in which each cone DFF differs from the good machine.  The
walk skips two kinds of cycle: a held cycle (its good row aliases the
previous one) entered with the previous cycle's state repeats that
cycle, so the walk jumps to the end of its segment and only re-checks
detection where the observe entry changes (:mod:`repro.faultsim.held`);
and a dormant cycle, entered with no lane's state differing while no
live lane's fault site is excited, leaves every lane on the good
machine.  A detected lane stops injecting at once and falls back to the
good machine; the batch is repacked onto fewer lanes when occupancy
falls below ``repack_threshold`` (smaller words make every big-int op
cheaper), and an emptied batch exits the cycle walk early.

Verdicts are bit-identical to the ``differential`` reference engine (the
cross-engine equivalence suite and ``benchmarks/bench_packed.py`` gate
this): ``detected``, ``excited`` and the first detecting cycle agree,
and on sequential netlists so does ``Detection.lanes`` (one stimulus
lane, one witness).  On combinational netlists ``lanes`` remains a
partial witness as documented in :mod:`repro.faultsim.engine`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.errors import FaultSimError
from repro.faultsim.differential import Detection
from repro.faultsim.engine import Stimulus, _excited_sequence
from repro.faultsim.faults import Fault, FaultKind, FaultList
from repro.faultsim.harness import CampaignResult
from repro.faultsim.held import held_rows, segment_ends
from repro.faultsim.lowering import ConeLowering, Site, cached_compile_seq
from repro.faultsim.observe import ObservePlan
from repro.faultsim.options import DEFAULT_LANES
from repro.faultsim.simulator import GoodTrace
from repro.faultsim.trace_cache import good_trace_for
from repro.netlist.gates import eval_gate
from repro.netlist.netlist import (
    CONST0,
    CONST1,
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


class PackedEngine:
    """Fault-parallel bit-packed grading over generated kernels."""

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
        only: Sequence[int] | None = None,
    ) -> CampaignResult:
        result = CampaignResult(
            name or netlist.name, fault_list, n_patterns=len(stimulus)
        )
        reps = self._ordered_reps(fault_list, only)
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
        fault_list: FaultList, only: Sequence[int] | None
    ) -> list[int]:
        if only is None:
            return fault_list.class_representatives()
        # Preserve the caller's order (cone fusion, see module docstring).
        classes = fault_list.classes
        seen: set[int] = set()
        reps = []
        for r in only:
            if r in classes and r not in seen:
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
        trace = good_trace_for(netlist, cycles, packed=False)
        walk = _SeqWalk(netlist, trace, plan, result)
        lanes = []
        for rep in reps:
            fault = fault_list.fault(rep)
            if walk.lowering.reaches(_site(fault)):
                lanes.append((rep, fault))
        # Sequential words carry no pattern lanes, so narrow words would
        # just multiply the number of cycle walks: never go below 255
        # faults per word.
        capacity = max(self.lanes - 1, 255)
        for start in range(0, len(lanes), capacity):
            self._run_seq_batch(walk, lanes[start : start + capacity])
        detections = result.detections
        for rep in reps:
            if rep not in detections:
                excited = _excited_sequence(fault_list.fault(rep), trace)
                detections[rep] = Detection(False, excited=excited)

    def _run_seq_batch(
        self, walk: _SeqWalk, lanes: list[tuple[int, Fault]]
    ) -> None:
        """One batch's cycle walk over its fan-out cone.

        Lane ``i`` carries fault ``lanes[i]``.  The state holds, per cone
        DFF, the lanes whose state differs from the good machine's, so
        the good machine never rides in the word: the kernel reads it
        from the trace row.  Two kinds of cycle are skipped:

        * a *held* cycle entered with the previous cycle's state repeats
          that cycle, so the walk jumps to its segment's end
          (:mod:`repro.faultsim.held`), re-checking detection only where
          the observe entry changes;
        * a *dormant* cycle, entered with the good state in every lane
          while no lane's fault site is excited, leaves every lane on
          the good machine.
        """
        rows, row_bits, entry_of, held, ends = (
            walk.trace.values, walk.row_bits, walk.entry_of, walk.held,
            walk.ends,
        )
        n_cycles = len(rows)
        batch = _Batch(
            walk, lanes, self.repack_threshold, self.min_repack_drop
        )
        step, ones, zeros = batch.step, batch.ones, batch.zeros
        state: tuple[int, ...] = (0,) * len(batch.kernel.dffs)
        quiet = True
        no_diffs = (0,) * len(walk.entries)
        diffs = no_diffs
        # The state entering the last cycle walked, or None after lanes
        # changed (the states no longer compare).
        entering: tuple[int, ...] | None = None
        t = 0
        while t < n_cycles:
            if held[t] and state == entering:
                while True:
                    if entry_of[t] != entry_of[t - 1]:
                        hit = diffs[entry_of[t]] & batch.live
                        if hit:
                            state, diffs = batch.detect(hit, t, state, diffs)
                            if not batch.live:
                                return
                            step, ones, zeros = (
                                batch.step, batch.ones, batch.zeros
                            )
                            quiet = not any(state)
                    t = ends[t]
                    if t == n_cycles or not held[t]:
                        break
                continue
            entering = state
            if quiet:
                # Dormant unless some lane's site is excited: a stuck-at-0
                # site at 1 or a stuck-at-1 site at 0.
                bits = row_bits[t]
                if not bits & ones and bits & zeros == zeros:
                    diffs = no_diffs
                    t += 1
                    continue
            state, diffs = step(rows[t], state)
            hit = diffs[entry_of[t]] & batch.live
            t += 1
            if hit:
                state, diffs = batch.detect(hit, t - 1, state, diffs)
                if not batch.live:
                    return  # every lane detected: drop out early
                step, ones, zeros = batch.step, batch.ones, batch.zeros
                entering = None
            quiet = not any(state)


#: Maps a single-lane row's 0/1 bytes to binary digits.
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _site(fault: Fault) -> Site:
    return (fault.kind, fault.net, fault.gate, fault.pin)


def _repack_word(live: int) -> Callable[[int], int]:
    """Compaction closure: move the ``live`` lanes down to a dense prefix."""
    new_lane = {}
    rest = live
    while rest:
        low = rest & -rest
        new_lane[low.bit_length() - 1] = len(new_lane)
        rest ^= low

    def repack(word: int) -> int:
        out = 0
        word &= live
        while word:
            low = word & -word
            out |= 1 << new_lane[low.bit_length() - 1]
            word ^= low
        return out

    return repack


class _SeqWalk:
    """What every batch of one sequential grade shares."""

    def __init__(
        self,
        netlist: Netlist,
        trace: GoodTrace,
        plan: ObservePlan,
        result: CampaignResult,
    ):
        self.trace = trace
        rows = trace.values
        net_masks = plan.net_masks(netlist, 1)
        # One index per distinct observe entry (equal entries share one
        # dict, see ObservePlan.net_masks).
        self.entries: list[tuple[int, ...]] = []
        if net_masks is None:
            self.entries.append(_output_nets(netlist))
            self.entry_of = [0] * len(rows)
        else:
            index: dict[int, int] = {}
            self.entry_of = []
            for nets in net_masks:
                at = index.get(id(nets))
                if at is None:
                    at = index[id(nets)] = len(self.entries)
                    self.entries.append(tuple(nets))
                self.entry_of.append(at)
        self.held = held_rows(rows)
        self.ends = segment_ends(self.held, net_masks)
        self.lowering = ConeLowering(
            netlist, {n for e in self.entries for n in e}
        )
        # Each row as one integer, net ``n`` at bit ``n``, converted once
        # per distinct row: the dormant-cycle test is two ANDs.
        bits_of: dict[int, int] = {}
        self.row_bits: list[int] = []
        for row in rows:
            bits = bits_of.get(id(row))
            if bits is None:
                bits = int(row[::-1].translate(_BINARY_DIGITS), 2)
                bits_of[id(row)] = bits
            self.row_bits.append(bits)
        self.detections = result.detections
        self.detected = result.detected


class _Batch:
    """One batch's lanes bound to its cone kernel.

    Lane ``i`` carries ``lanes[i]``; ``live`` holds the lanes not yet
    detected.  A detected lane stops injecting its fault, so it falls
    back to the good machine and no longer holds the batch out of
    dormancy.  ``step`` is the kernel bound to the live lanes' masks;
    ``ones`` and ``zeros`` are the excitation masks over
    :attr:`_SeqWalk.row_bits`: the live stuck-at-0 sites (excited at 1)
    and stuck-at-1 sites (excited at 0).
    """

    def __init__(
        self,
        walk: _SeqWalk,
        lanes: list[tuple[int, Fault]],
        repack_threshold: float,
        min_repack_drop: int,
    ):
        self.walk = walk
        self.repack_threshold = repack_threshold
        self.min_repack_drop = min_repack_drop
        slots: dict[Site, int] = {}
        for _rep, fault in lanes:
            slots.setdefault(_site(fault), len(slots))
        self.slots = slots
        self.kernel = walk.lowering.compile(list(slots), walk.entries)
        self._load(lanes)

    def _load(self, lanes: list[tuple[int, Fault]]) -> None:
        self.lanes = lanes
        self.live = full = (1 << len(lanes)) - 1
        # Per slot: the set mask (its stuck-at-1 lanes), then the keep
        # mask (every lane but its stuck-at-0 ones).
        self.masks = [0, full] * len(self.slots)
        # (net, stuck) -> live lanes with that excitation condition
        self.excitable: dict[tuple[int, int], int] = {}
        self.ones = self.zeros = 0
        for lane, (_rep, fault) in enumerate(lanes):
            at = 2 * self.slots[_site(fault)] + (0 if fault.stuck else 1)
            self.masks[at] ^= 1 << lane
            key = (fault.net, fault.stuck)
            self.excitable[key] = self.excitable.get(key, 0) + 1
            if fault.stuck:
                self.zeros |= 1 << fault.net
            else:
                self.ones |= 1 << fault.net
        self._bind()

    def _bind(self) -> None:
        self.step = self.kernel.make((1 << len(self.lanes)) - 1, *self.masks)

    def detect(
        self,
        hit: int,
        cycle: int,
        state: tuple[int, ...],
        diffs: tuple[int, ...],
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Record the ``hit`` lanes as detected at ``cycle`` and rebind.

        A single-lane stimulus has one witness lane, so every detection
        reports ``lanes=1``, as the differential engine does.  Returns
        the state and the diffs with the detected lanes cleared, or with
        the live lanes packed down to a dense prefix once occupancy
        falls to the repack threshold.
        """
        detections, detected = self.walk.detections, self.walk.detected
        rest = hit
        while rest:
            low = rest & -rest
            rest ^= low
            rep, fault = self.lanes[low.bit_length() - 1]
            detections[rep] = Detection(True, cycle, 1, excited=True)
            detected.add(rep)
            at = 2 * self.slots[_site(fault)] + (0 if fault.stuck else 1)
            self.masks[at] ^= low
            key = (fault.net, fault.stuck)
            self.excitable[key] -= 1
            if not self.excitable[key]:
                if fault.stuck:
                    self.zeros &= ~(1 << fault.net)
                else:
                    self.ones &= ~(1 << fault.net)
        self.live = live = self.live & ~hit
        if not live:
            return state, diffs
        alive = live.bit_count()
        if (
            alive <= len(self.lanes) * self.repack_threshold
            and len(self.lanes) - alive >= self.min_repack_drop
        ):
            repack = _repack_word(live)
            self._load([lane for i, lane in enumerate(self.lanes)
                        if live >> i & 1])
            return (
                tuple(repack(w) if w else 0 for w in state),
                tuple(repack(w) if w else 0 for w in diffs),
            )
        self._bind()
        return (
            tuple(w & live for w in state), tuple(w & live for w in diffs)
        )
