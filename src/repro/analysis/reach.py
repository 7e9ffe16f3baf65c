"""Program-aware static detectability: the unexercised-fault analysis.

Given one assembled SBST program and one component netlist, this module
decides — *before any fault simulation* — which stuck-at fault classes
the program can possibly excite.  The pipeline:

1. :func:`repro.analysis.absint.interpret_program` produces abstract
   facts covering every dynamic execution of every instruction;
2. :func:`derive_patterns` turns those facts into **abstract stimulus
   patterns**: per component, one ternary word (known-bits mask, value)
   per input port, derived so that *every* concrete input vector the
   component tracer records during the good-machine run is covered by
   some derived pattern (the derivation mirrors
   :class:`repro.plasma.tracer.ComponentTracer` call sites one-to-one);
3. :func:`build_reach_report` evaluates the netlist over all patterns at
   once — one big-int bit-lane per pattern, three-valued logic per gate
   — runs the DFF state ternary to a fixpoint, and classifies every
   fault class:

   * ``unexercised-proven`` — the faulted net is proven constant at the
     fault's stuck value across every pattern and every reachable state;
   * ``exercised`` — some pattern provably drives the net to the
     opposite value (advisory: derived patterns may over-approximate);
   * ``unknown`` — neither proof succeeded.

**Soundness argument** (DESIGN.md §15) — why an ``unexercised-proven``
claim can be trusted: fault grading replays the trace of the one
concrete good-machine run.  A faulty machine first diverges
from the good machine at a cycle where the fault site's good value
differs from the stuck value — before that cycle the two machines carry
identical state, so the fault site reads the good value.  The abstract
state fixpoint starts at the reset state and is closed under every
derived pattern, hence it covers every state the good machine reaches;
if the net is proven equal to the stuck value under all of them, the
faulty machine *never* diverges: every engine grades the fault exactly
``Detection(False, excited=False)``.  The report is an analysis only:
grading always simulates every class, and the proven set tells a test
author which faults the program cannot touch.  A ``degraded`` report
(or any imprecision) only ever moves classes to ``unknown`` — the
analysis proves less, never wrong.

:func:`reach_spot_check` cross-validates sampled constant-net claims
against the SAT layer: the good circuit is Tseitin-encoded once, the
pattern's known bits and the fixpoint's known state bits become solver
assumptions, and "the net takes the opposite value" must come back
UNSAT.  Any disagreement is a hard RC302 failure.

Like :mod:`repro.analysis.collapse`, this module is deliberately *not*
exported from ``repro.analysis`` — it imports ``repro.faultsim``, which
sits above the analyzers in the layering.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from collections.abc import Mapping, Sequence

from repro.analysis.absint import (
    InstrFacts,
    ProgramAbstraction,
    interpret_program,
)
from repro.analysis.absword import MASK32, AbstractWord, const
from repro.analysis.diagnostics import Report
from repro.faultsim.faults import FaultList, fault_token
from repro.isa.program import Program
from repro.netlist.gates import GateType
from repro.netlist.hashing import structural_hash
from repro.netlist.levelize import levelize
from repro.netlist.netlist import CONST0, CONST1, Netlist

#: Fault-class status tags.
EXERCISED = "exercised"
UNEXERCISED_PROVEN = "unexercised-proven"
UNKNOWN = "unknown"

#: Pattern-count cap per component: beyond it, the overflow patterns are
#: joined into one (sound — a join only loses precision, never claims).
MAX_PATTERNS = 4096

#: Unknown-class ratio above which ``analyze_reach`` emits RC303.
UNKNOWN_WARN_RATIO = 0.9

#: One ternary word: (known-bits mask, value); bit i is proven equal to
#: ``value>>i & 1`` wherever ``mask>>i & 1`` is set.
Tern = tuple[int, int]

#: One abstract stimulus pattern: input-port name -> ternary word.
Pattern = dict[str, Tern]

_TOP_T: Tern = (0, 0)


def _tw(word: AbstractWord) -> Tern:
    """Ternary view of an abstract word."""
    return word.bits()


def _tc(value: int) -> Tern:
    """Ternary view of a constant."""
    return (MASK32, value & MASK32)


# ------------------------------------------------------ pattern derivation


def _join_tern(a: Tern, b: Tern) -> Tern:
    mask = a[0] & b[0] & ~(a[1] ^ b[1]) & MASK32
    return (mask, a[1] & mask)


def _join_pattern(a: Pattern, b: Pattern) -> Pattern:
    zero = _tc(0)  # an absent port is applied as constant 0
    return {
        key: _join_tern(a.get(key, zero), b.get(key, zero))
        for key in a.keys() | b.keys()
    }


def _dedupe_cap(patterns: list[Pattern], cap: int = MAX_PATTERNS) -> list[Pattern]:
    """Drop duplicates (first occurrence wins); join any overflow."""
    seen: set[tuple[tuple[str, Tern], ...]] = set()
    out: list[Pattern] = []
    for pattern in patterns:
        key = tuple(sorted(pattern.items()))
        if key not in seen:
            seen.add(key)
            out.append(pattern)
    if len(out) > cap:
        joined = out[cap - 1]
        for pattern in out[cap:]:
            joined = _join_pattern(joined, pattern)
        out = out[: cap - 1] + [joined]
    return out


def derive_patterns(
    abstraction: ProgramAbstraction,
) -> dict[str, list[Pattern]]:
    """Abstract stimulus patterns per component, covering the traced run.

    Every ``trace_*`` call site in :class:`~repro.plasma.cpu.PlasmaCPU`
    has a mirror here; the abstract facts cover the concrete values it
    records, so every traced stimulus entry is covered by some derived
    pattern.  Returns ``{}`` for a degraded (or empty) abstraction —
    callers must then build degraded reports that prove nothing.
    """
    if abstraction.degraded or not abstraction.facts:
        return {}

    alu: list[Pattern] = []
    bsh: list[Pattern] = []
    ctrl: list[Pattern] = []
    bmux: list[Pattern] = []
    regf: list[Pattern] = []

    # Sequential components: the reset/stall cycles come first (matching
    # _emit_reset_cycles / _emit_stall_cycle), then per-issue cycles.
    muld: list[Pattern] = [{"a": _tc(0), "b": _tc(0), "op": _tc(0)}]
    pcl: list[Pattern] = [
        {
            "rs_data": _tc(0), "rt_data": _tc(0), "branch_type": _tc(0),
            "branch_target": _tc(0), "pause": _tc(1),
        },
        {
            "rs_data": _tc(0), "rt_data": _tc(0), "branch_type": _tc(0),
            "branch_target": _tc(0), "pause": _tc(0),
        },
    ]
    pln: list[Pattern] = [
        {
            "instr_in": _tc(abstraction.entry_word),
            "pc_snapshot_in": _tc(abstraction.entry),
            "wb_value_in": _tc(0), "wb_dest_in": _tc(0), "ctrl_in": _tc(0),
            "pause": _tc(0), "flush": _tc(flush),
        }
        for flush in (1, 0)
    ]
    gl_base = {
        "irq": _tc(0), "irq_mask_data": _tc(0), "irq_mask_we": _tc(0),
        "pause_mem": _tc(0), "pause_muldiv": _tc(0), "branch_taken": _tc(0),
    }
    gl: list[Pattern] = [dict(gl_base)]
    any_mem = any(f.has_mem_access for f in abstraction.facts.values())
    any_muldiv = any(f.needs_muldiv for f in abstraction.facts.values())
    if any_mem:
        gl.append(dict(gl_base, pause_mem=_tc(1)))
    if any_muldiv:
        gl.append(dict(gl_base, pause_muldiv=_tc(1)))
    mctrl: list[Pattern] = []

    for addr in sorted(abstraction.facts):
        facts: InstrFacts = abstraction.facts[addr]
        bundle = facts.bundle
        decoded = facts.instr.decoded
        assert decoded is not None  # facts only exist for decodable words

        ctrl.append({"instr": _tc(facts.instr.word)})

        if facts.uses_alu_result:
            alu.append(
                {
                    "a": _tw(facts.a_bus),
                    "b": _tw(facts.b_bus),
                    "func": _tc(int(bundle.alu_func)),
                }
            )

        if facts.uses_shifter:
            if bundle.shift_variable:
                shamt = _tw(facts.rs_val.band(const(31)))
            else:
                shamt = _tc(decoded.shamt)
            bsh.append(
                {
                    "value": _tw(facts.rt_val),
                    "shamt": shamt,
                    "left": _tc(int(bundle.shift_left)),
                    "arith": _tc(int(bundle.shift_arith)),
                }
            )

        bmux.append(
            {
                "rs_data": _tw(facts.rs_val),
                "rt_data": _tw(facts.rt_val),
                "imm": _tc(decoded.imm),
                "pc_plus4": _tc(facts.pc_plus4),
                "alu_result": _tw(facts.alu_result),
                "shift_result": _tw(facts.shift_result),
                "mem_data": _tw(facts.mem_value),
                "lo": _tw(facts.lo),
                "hi": _tw(facts.hi),
                "a_source": _tc(int(bundle.a_source)),
                "b_source": _tc(int(bundle.b_source)),
                "wb_source": _tc(int(bundle.wb_source)),
            }
        )

        regf.append(
            {
                "rd_addr_a": _tc(decoded.rs),
                "rd_addr_b": _tc(decoded.rt),
                "wr_addr": _tc(facts.wb_dest),
                "wr_data": _tw(facts.wb_value),
                "wr_en": _tc(int(bundle.reg_write)),
            }
        )

        if facts.is_muldiv_write:
            muld.append(
                {
                    "a": _tw(facts.rs_val),
                    "b": _tw(facts.rt_val),
                    "op": _tc(int(bundle.muldiv_op)),
                }
            )

        if facts.is_branch:
            # The branch decision is presented to the PC logic (and the
            # global pause logic) during the delay-slot issue cycle.
            pcl.append(
                {
                    "rs_data": _tw(facts.rs_val),
                    "rt_data": _tw(facts.rt_val),
                    "branch_type": _tc(int(bundle.branch_type)),
                    "branch_target": _tw(facts.branch_target),
                    "pause": _tc(0),
                }
            )
            gl.append(dict(gl_base, branch_taken=_tw(facts.branch_taken)))

        ctrl8 = (
            int(bundle.alu_func)
            | (int(bundle.reg_write) << 4)
            | (int(bundle.mem_read) << 5)
            | (int(bundle.mem_write) << 6)
            | (int(bundle.use_shifter) << 7)
        )
        pln.append(
            {
                "instr_in": _tc(facts.instr.word),
                "pc_snapshot_in": _tc(addr),
                "wb_value_in": _tw(facts.wb_value),
                "wb_dest_in": _tc(facts.wb_dest),
                "ctrl_in": _tc(ctrl8),
                "pause": _tc(0), "flush": _tc(0),
            }
        )
        if facts.has_mem_access or facts.needs_muldiv:
            pln.append(
                {
                    "instr_in": _tc(0), "pc_snapshot_in": _tc(addr),
                    "wb_value_in": _tc(0), "wb_dest_in": _tc(0),
                    "ctrl_in": _tc(0), "pause": _tc(1), "flush": _tc(0),
                }
            )

        if facts.has_mem_access:
            request = {
                "addr": _tw(facts.alu_result),
                "size": _tc(int(bundle.mem_size)),
                "signed": _tc(int(bundle.mem_signed)),
                "re": _tc(int(bundle.mem_read)),
                "we": _tc(int(bundle.mem_write)),
                "wr_data": (
                    _tw(facts.mem_steered) if bundle.mem_write else _tc(0)
                ),
                "mem_rdata": _tc(0),
            }
            mctrl.append(request)
            mctrl.append(dict(request, mem_rdata=_tw(facts.mem_word)))

    derived = {
        "ALU": alu, "BSH": bsh, "CTRL": ctrl, "BMUX": bmux, "RegF": regf,
        "MulD": muld, "PCL": pcl, "PLN": pln, "GL": gl, "MCTRL": mctrl,
    }
    return {name: _dedupe_cap(pats) for name, pats in derived.items()}


# ------------------------------------------------- packed ternary evaluator


def _gate_tern(
    gtype: GateType, ins: list[Tern], full: int
) -> Tern:
    """Three-valued gate evaluation, one bit-lane per pattern.

    Each operand is ``(known, value)`` big-ints over the pattern lanes
    with the invariant ``value & ~known == 0``.
    """
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.NOT:
        k, v = ins[0]
        return (k, k & ~v & full)
    if gtype in (GateType.AND, GateType.NAND):
        known1, known0 = full, 0
        for k, v in ins:
            known1 &= k & v
            known0 |= k & ~v
        known0 &= full
        known = known0 | known1
        return (known, known0 if gtype is GateType.NAND else known1)
    if gtype in (GateType.OR, GateType.NOR):
        known1, known0 = 0, full
        for k, v in ins:
            known1 |= k & v
            known0 &= k & ~v
        known0 &= full
        known = known0 | known1
        return (known, known0 if gtype is GateType.NOR else known1)
    if gtype in (GateType.XOR, GateType.XNOR):
        known, value = full, 0
        for k, v in ins:
            known &= k
            value ^= v
        if gtype is GateType.XNOR:
            value = ~value
        return (known, value & known)
    if gtype is GateType.MUX2:  # out = sel ? b : a
        (ka, va), (kb, vb), (ks, vs) = ins
        sel1 = ks & vs
        sel0 = ks & ~vs & full
        agree = ka & kb & ~(va ^ vb) & full
        known = (sel1 & kb) | (sel0 & ka) | agree
        value = known & ((sel1 & vb) | (sel0 & va) | (va & vb))
        return (known, value)
    if gtype is GateType.AOI21:  # ~((a & b) | c)
        ab = _gate_tern(GateType.AND, ins[:2], full)
        orred = _gate_tern(GateType.OR, [ab, ins[2]], full)
        return _gate_tern(GateType.NOT, [orred], full)
    raise ValueError(f"unhandled gate type {gtype}")  # pragma: no cover


def _input_lanes(
    netlist: Netlist, patterns: Sequence[Mapping[str, Tern]]
) -> tuple[dict[int, int], dict[int, int]]:
    """Per-input-net (known, value) lane words from the pattern set."""
    known: dict[int, int] = {}
    value: dict[int, int] = {}
    for port in netlist.input_ports():
        terns = [p.get(port.name, (MASK32, 0)) for p in patterns]
        for i, net in enumerate(port.nets):
            k = v = 0
            for lane, (mask, val) in enumerate(terns):
                if (mask >> i) & 1:
                    k |= 1 << lane
                    if (val >> i) & 1:
                        v |= 1 << lane
            known[net] = k
            value[net] = v
    return known, value


def _eval_ternary(
    netlist: Netlist,
    order: Sequence[object],
    in_known: Mapping[int, int],
    in_value: Mapping[int, int],
    state_known: Sequence[int],
    state_value: Sequence[int],
    full: int,
) -> tuple[list[int], list[int]]:
    """One combinational sweep; returns per-net (known, value) lanes."""
    known = [0] * netlist.n_nets
    value = [0] * netlist.n_nets
    known[CONST0] = full
    known[CONST1] = full
    value[CONST1] = full
    for net, k in in_known.items():
        known[net] = k
    for net, v in in_value.items():
        value[net] = v
    for i, dff in enumerate(netlist.dffs):
        if state_known[i]:
            known[dff.q] = full
            value[dff.q] = full if state_value[i] else 0
    for gate in order:
        ins = [(known[n], value[n]) for n in gate.inputs]  # type: ignore[attr-defined]
        k, v = _gate_tern(gate.gtype, ins, full)  # type: ignore[attr-defined]
        known[gate.output] = k  # type: ignore[attr-defined]
        value[gate.output] = v  # type: ignore[attr-defined]
    return known, value


# ----------------------------------------------------------- reach report


@dataclass(frozen=True)
class ReachCheck:
    """Outcome of the SAT spot-check over one component's reach report.

    Attributes:
        n_checked: (net, pattern) constant claims queried.
        refuted: human-readable descriptions of refuted claims — any
            entry is a soundness bug and a hard RC302 failure.
    """

    n_checked: int
    refuted: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.refuted


@dataclass(frozen=True)
class ReachReport:
    """Sound per-(program, component) fault-class reachability verdicts.

    Attributes:
        component: component name the netlist belongs to.
        structural_hash: the netlist's structural hash (identity).
        program_digest: the analyzed program's content digest.
        n_patterns: derived abstract patterns after dedupe/cap.
        status: class-representative fault index -> status tag
            (``exercised`` / ``unexercised-proven`` / ``unknown``).
        proven: representatives tagged ``unexercised-proven``.
        net_consts: net id -> proven constant value (the provenance of
            every proof; empty for vacuous zero-pattern proofs).
        patterns: canonical pattern tuples (for the SAT cross-check).
        state_known / state_value: per-DFF fixpoint state ternary.
        degraded: True when the abstraction could not certify the
            program — every class is ``unknown`` and nothing is proven.
        reach_hash: content hash (identity + deterministic sampling).
    """

    component: str
    structural_hash: str
    program_digest: str
    n_patterns: int
    status: dict[int, str]
    proven: frozenset[int]
    net_consts: dict[int, int]
    patterns: tuple[tuple[tuple[str, Tern], ...], ...]
    state_known: tuple[int, ...]
    state_value: tuple[int, ...]
    degraded: bool = False
    degrade_reason: str = ""
    reach_hash: str = ""

    @property
    def n_classes(self) -> int:
        return len(self.status)

    @property
    def n_proven(self) -> int:
        return len(self.proven)

    @property
    def n_exercised(self) -> int:
        return sum(1 for s in self.status.values() if s == EXERCISED)

    @property
    def n_unknown(self) -> int:
        return sum(1 for s in self.status.values() if s == UNKNOWN)

    def summary(self) -> str:
        if self.degraded:
            return (
                f"{self.component}: degraded ({self.degrade_reason}); "
                f"{self.n_classes} classes unknown"
            )
        return (
            f"{self.component}: {self.n_proven}/{self.n_classes} classes "
            f"unexercised-proven, {self.n_exercised} exercised, "
            f"{self.n_unknown} unknown ({self.n_patterns} abstract "
            f"pattern(s), {len(self.net_consts)} constant net(s))"
        )


def _reach_hash(
    shash: str,
    program_digest: str,
    n_patterns: int,
    net_consts: Mapping[int, int],
    proven: frozenset[int],
    fault_list: FaultList,
    state_known: Sequence[int],
    state_value: Sequence[int],
    degraded: bool,
) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(b"reach-v1\0")
    h.update(f"{shash}:{program_digest}:{n_patterns}:{int(degraded)}\0".encode())
    for net in sorted(net_consts):
        h.update(f"n:{net}:{net_consts[net]}\0".encode())
    for rep in sorted(proven):
        h.update(f"p:{fault_token(fault_list.faults[rep])}\0".encode())
    sk = sum(bit << i for i, bit in enumerate(state_known))
    sv = sum(bit << i for i, bit in enumerate(state_value))
    h.update(f"s:{sk:x}:{sv:x}".encode())
    return h.hexdigest()


def build_reach_report(
    netlist: Netlist,
    fault_list: FaultList,
    patterns: Sequence[Mapping[str, Tern]],
    *,
    component: str = "",
    program_digest: str = "",
    degraded: bool = False,
    degrade_reason: str = "",
) -> ReachReport:
    """Evaluate the pattern set over the netlist and classify every class.

    This is the screen's core and is component-agnostic: property tests
    drive it with random netlists and random abstract patterns.  A
    sequential netlist with an *empty* pattern set degrades (its reset
    cycles always trace, so an empty derivation is a caller bug); a
    combinational netlist with no patterns is vacuously unexercised.
    """
    reps = fault_list.class_representatives()
    canonical = tuple(
        tuple(sorted((name, (mask & MASK32, value & mask & MASK32))
                     for name, (mask, value) in pattern.items()))
        for pattern in patterns
    )
    shash = structural_hash(netlist)

    if not degraded and not patterns and netlist.dffs:
        degraded = True
        degrade_reason = (
            "no abstract patterns derived for a sequential component"
        )

    if degraded:
        status = {rep: UNKNOWN for rep in reps}
        return ReachReport(
            component=component,
            structural_hash=shash,
            program_digest=program_digest,
            n_patterns=len(canonical),
            status=status,
            proven=frozenset(),
            net_consts={},
            patterns=canonical,
            state_known=(),
            state_value=(),
            degraded=True,
            degrade_reason=degrade_reason,
            reach_hash=_reach_hash(
                shash, program_digest, len(canonical), {}, frozenset(),
                fault_list, (), (), True,
            ),
        )

    if not patterns:
        # A combinational component the program never applies: no fault
        # in it can be excited, every class is vacuously unexercised.
        status = {rep: UNEXERCISED_PROVEN for rep in reps}
        proven = frozenset(reps)
        return ReachReport(
            component=component,
            structural_hash=shash,
            program_digest=program_digest,
            n_patterns=0,
            status=status,
            proven=proven,
            net_consts={},
            patterns=(),
            state_known=(),
            state_value=(),
            reach_hash=_reach_hash(
                shash, program_digest, 0, {}, proven, fault_list, (), (),
                False,
            ),
        )

    n_lanes = len(patterns)
    full = (1 << n_lanes) - 1
    order = levelize(netlist)
    in_known, in_value = _input_lanes(netlist, patterns)

    state_known = [1] * len(netlist.dffs)
    state_value = [dff.init & 1 for dff in netlist.dffs]
    while True:
        known, value = _eval_ternary(
            netlist, order, in_known, in_value, state_known, state_value,
            full,
        )
        changed = False
        for i, dff in enumerate(netlist.dffs):
            if not state_known[i]:
                continue
            dk, dv = known[dff.d], value[dff.d]
            if dk == full and dv == 0:
                cand = 0
            elif dk == full and dv == full:
                cand = 1
            else:
                cand = -1  # some lane (or state) leaves the next D unknown
            if cand != state_value[i]:
                state_known[i] = 0
                state_value[i] = 0
                changed = True
        if not changed:
            break

    net_consts: dict[int, int] = {}
    for net in range(netlist.n_nets):
        if known[net] == full:
            if value[net] == 0:
                net_consts[net] = 0
            elif value[net] == full:
                net_consts[net] = 1

    status = {}
    proven_set: set[int] = set()
    for rep in reps:
        fault = fault_list.faults[rep]
        const_value = net_consts.get(fault.net)
        if const_value is not None and const_value == fault.stuck:
            status[rep] = UNEXERCISED_PROVEN
            proven_set.add(rep)
            continue
        stuck_lanes = full if fault.stuck else 0
        excited = known[fault.net] & (value[fault.net] ^ stuck_lanes)
        status[rep] = EXERCISED if excited else UNKNOWN

    proven = frozenset(proven_set)
    return ReachReport(
        component=component,
        structural_hash=shash,
        program_digest=program_digest,
        n_patterns=n_lanes,
        status=status,
        proven=proven,
        net_consts=net_consts,
        patterns=canonical,
        state_known=tuple(state_known),
        state_value=tuple(state_value),
        reach_hash=_reach_hash(
            shash, program_digest, n_lanes, net_consts, proven, fault_list,
            state_known, state_value, False,
        ),
    )


# ------------------------------------------------------- SAT cross-check


def reach_spot_check(
    netlist: Netlist, report: ReachReport, samples: int = 8
) -> ReachCheck:
    """Cross-validate sampled constant-net claims against the SAT layer.

    The good circuit is encoded once (free inputs, free state); for each
    sampled (net, constant) claim and sampled pattern, the pattern's
    known input bits and the fixpoint's known state bits become solver
    assumptions and "the net takes the opposite value" must be UNSAT.
    Sampling is deterministic (seeded from the reach hash), so CI
    failures reproduce locally; pass a large ``samples`` for an
    exhaustive check.
    """
    if report.degraded or not report.net_consts or not report.patterns:
        return ReachCheck(0)
    # Local import: repro.formal sits above repro.analysis in the
    # layering, so the dependency must stay lazy (mirrors collapse.py).
    from repro.formal.encode import LogicEncoder, encode_circuit
    from repro.formal.sat import SatSolver

    rng = Random(int(report.reach_hash or "0", 16))
    targets = sorted(report.net_consts.items())
    if len(targets) > samples:
        targets = sorted(rng.sample(targets, samples))
    lanes = list(range(len(report.patterns)))
    if len(lanes) > samples:
        lanes = sorted(rng.sample(lanes, samples))

    solver = SatSolver()
    logic = LogicEncoder(solver)
    good = encode_circuit(logic, netlist, order=levelize(netlist))

    state_assumptions: list[int] = []
    state_lits = good.state_lits()
    for i in range(len(netlist.dffs)):
        if report.state_known[i]:
            lit = state_lits[i]
            state_assumptions.append(lit if report.state_value[i] else -lit)

    n_checked = 0
    refuted: list[str] = []
    for lane in lanes:
        pattern = dict(report.patterns[lane])
        assumptions = list(state_assumptions)
        for port in netlist.input_ports():
            mask, value = pattern.get(port.name, (MASK32, 0))
            for i, lit in enumerate(good.input_lits(port.name)):
                if (mask >> i) & 1:
                    assumptions.append(lit if (value >> i) & 1 else -lit)
        for net, const_value in targets:
            n_checked += 1
            net_lit = good.lit(net)
            bad = -net_lit if const_value else net_lit
            if solver.solve(assumptions + [bad]):
                refuted.append(
                    f"net {net} claimed constant {const_value} can take "
                    f"value {1 - const_value} under pattern {lane}"
                )
    return ReachCheck(n_checked, tuple(refuted))


# ------------------------------------------------------------ entry point


def analyze_reach(
    program: Program,
    *,
    components: Sequence[str] | None = None,
    sat_samples: int = 8,
    target: str = "program",
) -> tuple[Report, dict[str, ReachReport], dict[str, ReachCheck]]:
    """Run the reach analysis for one program over component netlists.

    Emits RC302 errors for SAT-refuted constant claims, RC303 warnings
    for components where the screen decided almost nothing, then one
    RC301 summary per component.
    """
    from repro.faultsim.faults import build_fault_list
    from repro.plasma.components import COMPONENTS, build_component

    abstraction = interpret_program(program)
    patterns_by = derive_patterns(abstraction)
    names = (
        [info.name for info in COMPONENTS]
        if components is None else list(components)
    )

    report = Report(target=target, kind="reach")
    by_component: dict[str, ReachReport] = {}
    checks: dict[str, ReachCheck] = {}
    for name in names:
        netlist = build_component(name)
        fault_list = build_fault_list(netlist)
        if abstraction.degraded or name not in patterns_by:
            reason = (
                abstraction.degrade_reason
                or "program has no reachable instructions"
            )
            reach = build_reach_report(
                netlist, fault_list, (), component=name,
                program_digest=abstraction.digest,
                degraded=True, degrade_reason=reason,
            )
        else:
            reach = build_reach_report(
                netlist, fault_list, patterns_by[name], component=name,
                program_digest=abstraction.digest,
            )
        check = reach_spot_check(netlist, reach, samples=sat_samples)
        by_component[name] = reach
        checks[name] = check

        for message in check.refuted:
            report.add("RC302", f"{name}: {message}")
        n_classes = reach.n_classes
        if n_classes and reach.n_unknown / n_classes > UNKNOWN_WARN_RATIO:
            why = (
                f"analysis degraded: {reach.degrade_reason}"
                if reach.degraded
                else f"{reach.n_unknown}/{n_classes} classes unknown"
            )
            report.add(
                "RC303",
                f"{name}: the reach screen decided almost nothing ({why})",
            )
        report.add(
            "RC301",
            f"{reach.summary()}; SAT spot-check: "
            f"{check.n_checked} claim(s), {len(check.refuted)} refuted",
        )
    return report, by_component, checks
