"""Unit tests for the program-aware reach analysis.

Covers the abstract word domain (soundness of every transfer function
against concrete sampling), the program interpreter (small assembled
programs, degrade policies), pattern derivation, report classification
and the SAT cross-check — including a forged-claim refutation.  The
engine-level soundness property (every proven class grades undetected
and unexcited) lives in ``tests/faultsim/test_reach_property.py``.
"""

import dataclasses
import random

import pytest

from repro.analysis import absword
from repro.analysis.absint import interpret_program, observe_stores
from repro.analysis.absword import MASK32, TOP, const, from_bits, from_range
from repro.analysis.reach import (
    EXERCISED,
    UNEXERCISED_PROVEN,
    UNKNOWN,
    ReachReport,
    analyze_reach,
    build_reach_report,
    derive_patterns,
    reach_spot_check,
)
from repro.faultsim.faults import build_fault_list
from repro.isa.assembler import assemble
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType


# ----------------------------------------------------------- abstract words


def _sample(rng, word, n=16):
    """Concrete members of a word's concretisation (rejection sampling)."""
    out = []
    for _ in range(200):
        v = rng.getrandbits(32)
        v = (v & ~word.mask) | word.value
        if word.covers(v):
            out.append(v)
            if len(out) >= n:
                break
    return out


class TestAbstractWord:
    def test_const_roundtrip(self):
        w = const(0xDEADBEEF)
        assert w.is_const and w.as_const() == 0xDEADBEEF
        assert w.covers(0xDEADBEEF) and not w.covers(0xDEADBEEE)

    def test_top_covers_everything(self):
        assert TOP.covers(0) and TOP.covers(MASK32)
        assert TOP.as_const() is None

    def test_make_normalises_prefix_and_bit_bounds(self):
        w = from_range(0x100, 0x1FF)
        # Common prefix of the bounds becomes known high bits.
        assert w.bit(8) == 1
        assert all(w.bit(i) == 0 for i in range(9, 32))

    def test_join_covers_both_operands(self):
        a, b = const(5), const(9)
        j = a.join(b)
        assert j.covers(5) and j.covers(9)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_binary_transfer_soundness(self, seed):
        rng = random.Random(seed)
        ops = [
            ("add", lambda x, y: (x + y) & MASK32),
            ("sub", lambda x, y: (x - y) & MASK32),
            ("band", lambda x, y: x & y),
            ("bor", lambda x, y: x | y),
            ("bxor", lambda x, y: x ^ y),
            ("bnor", lambda x, y: ~(x | y) & MASK32),
            ("sltu", lambda x, y: int(x < y)),
            ("slt", lambda x, y: int(absword._signed(x) < absword._signed(y))),
        ]
        for _ in range(25):
            a = from_bits(rng.getrandbits(32), rng.getrandbits(32))
            b = from_bits(rng.getrandbits(32), rng.getrandbits(32))
            for name, ref in ops:
                out = getattr(a, name)(b)
                for x in _sample(rng, a, 4):
                    for y in _sample(rng, b, 4):
                        assert out.covers(ref(x, y)), (name, x, y)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_shift_and_extend_soundness(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            a = from_bits(rng.getrandbits(32), rng.getrandbits(32))
            sh = rng.randrange(32)
            cases = [
                (a.shl(sh), lambda x: (x << sh) & MASK32),
                (a.shr(sh), lambda x: x >> sh),
                (a.sar(sh), lambda x: (absword._signed(x) >> sh) & MASK32),
                (a.bnot(), lambda x: ~x & MASK32),
                (
                    a.extract_byte(sh & 3, True),
                    lambda x: (
                        absword._signed(
                            ((x >> (8 * (sh & 3))) & 0xFF) << 24
                        ) >> 24
                    ) & MASK32,
                ),
            ]
            for out, ref in cases:
                for x in _sample(rng, a, 6):
                    assert out.covers(ref(x))

    def test_decide_eq(self):
        assert const(3).decide_eq(const(3)) is True
        assert const(3).decide_eq(const(4)) is False
        assert const(3).decide_eq(TOP) is None
        # A provably-differing known bit decides inequality.
        assert from_bits(1, 1).decide_eq(from_bits(1, 0)) is False

    def test_widen_reaches_fixpoint_fast(self):
        # An incrementing loop counter must converge in O(32) *changes*:
        # unstable interval bounds jump to their bit-implied extremes
        # instead of walking the chain one value at a time.
        w = const(0)
        changes = 0
        for i in range(1, 400):
            new = w.widen(const(i))
            if new != w:
                changes += 1
                w = new
        assert changes <= 64
        assert w.covers(0) and w.covers(150)


# ------------------------------------------------------------- interpreter


HALT = """
.text
    li $t0, 0x1234
    la $t1, out
    sw $t0, 0($t1)
halt: j halt
    nop
.data
out: .word 0
"""

SELF_MODIFYING = """
.text
    la $t1, halt
    sw $zero, 0($t1)
halt: j halt
    nop
"""

LOOP = """
.text
    li $t0, 10
    li $t1, 0
loop:
    addiu $t1, $t1, 3
    addiu $t0, $t0, -1
    bne $t0, $zero, loop
    nop
halt: j halt
    nop
"""


class TestInterpretProgram:
    def test_straight_line_facts_are_exact(self):
        abstraction = interpret_program(assemble(HALT))
        assert not abstraction.degraded
        assert abstraction.facts
        stores = [
            f for f in abstraction.facts.values() if f.bundle.mem_write
        ]
        assert len(stores) == 1
        assert stores[0].rt_val.as_const() == 0x1234

    def test_self_modifying_store_degrades(self):
        abstraction = interpret_program(assemble(SELF_MODIFYING))
        assert abstraction.degraded
        assert "code segment" in abstraction.degrade_reason

    def test_observe_stores_stops_at_first_code_store(self):
        # The store overwrites the `j halt` word; the run must end there
        # rather than spin through the instruction budget.
        program = assemble(SELF_MODIFYING)
        halt = program.symbols["halt"]
        assert observe_stores(program) == frozenset({halt})

    def test_loop_converges_and_loses_counter_precision(self):
        abstraction = interpret_program(assemble(LOOP))
        assert not abstraction.degraded
        adds = [
            f for f in abstraction.facts.values()
            if f.instr.decoded is not None
            and f.instr.decoded.mnemonic == "addiu"
            and f.instr.decoded.imm == 3
        ]
        assert adds, "loop body not reachable"
        # The accumulator takes several values across iterations; the
        # fixpoint fact must cover at least the first two.
        acc = adds[0].rs_val.join(adds[0].wb_value)
        assert acc.covers(0) or adds[0].wb_value.covers(3)

    def test_observe_stores_matches_run(self):
        program = assemble(HALT)
        written = observe_stores(program)
        assert written is not None
        data_base = next(s.base for s in program.segments if not s.is_code)
        assert data_base in written


class TestDerivePatterns:
    def test_phase_program_covers_all_components(self):
        from repro.core.methodology import SelfTestMethodology

        program = SelfTestMethodology().build_program("A").program
        patterns = derive_patterns(interpret_program(program))
        assert set(patterns) == {
            "ALU", "BSH", "CTRL", "BMUX", "RegF", "MulD", "PCL", "PLN",
            "GL", "MCTRL",
        }
        assert all(patterns.values())

    def test_degraded_abstraction_derives_nothing(self):
        abstraction = interpret_program(assemble(SELF_MODIFYING))
        assert derive_patterns(abstraction) == {}


# ------------------------------------------------------------- the report


def _and_netlist():
    b = NetlistBuilder("reach_and")
    a, c = b.input("a", 1)[0], b.input("b", 1)[0]
    b.output("y", b.gate(GateType.AND, a, c))
    return b.build()


def _seq_netlist():
    b = NetlistBuilder("reach_seq")
    a = b.input("a", 1)[0]
    q = b.dff(a, init=0)
    b.output("y", b.gate(GateType.OR, a, q))
    return b.build()


class TestBuildReachReport:
    def test_constant_inputs_prove_stuck_at_same_value(self):
        netlist = _and_netlist()
        fault_list = build_fault_list(netlist)
        # a=0 pins every net in the AND cone to 0: all stuck-at-0
        # classes on those nets are unexercised-proven.
        report = build_reach_report(
            netlist, fault_list, [{"a": (1, 0), "b": (1, 1)}]
        )
        assert not report.degraded
        statuses = {
            fault_list.faults[rep].stuck: report.status[rep]
            for rep in report.status
            if fault_list.faults[rep].net
            in {netlist.output_ports()[0].nets[0]}
        }
        assert statuses[0] == UNEXERCISED_PROVEN
        assert statuses[1] == EXERCISED

    def test_free_inputs_prove_nothing(self):
        netlist = _and_netlist()
        fault_list = build_fault_list(netlist)
        report = build_reach_report(netlist, fault_list, [{}])
        # Ports absent from a pattern default to constant 0 (engine
        # semantics), so use explicitly-unknown terns instead.
        report = build_reach_report(
            netlist, fault_list, [{"a": (0, 0), "b": (0, 0)}]
        )
        assert not report.proven
        assert all(s == UNKNOWN for s in report.status.values())

    def test_empty_patterns_combinational_is_vacuous_proof(self):
        netlist = _and_netlist()
        fault_list = build_fault_list(netlist)
        report = build_reach_report(netlist, fault_list, ())
        assert not report.degraded
        assert report.proven == frozenset(
            fault_list.class_representatives()
        )

    def test_empty_patterns_sequential_degrades(self):
        netlist = _seq_netlist()
        fault_list = build_fault_list(netlist)
        report = build_reach_report(netlist, fault_list, ())
        assert report.degraded
        assert not report.proven
        assert all(s == UNKNOWN for s in report.status.values())

    def test_sequential_fixpoint_tracks_state(self):
        netlist = _seq_netlist()
        fault_list = build_fault_list(netlist)
        # a pinned to 0: the DFF stays at its init value 0 forever, so
        # the OR output is proven constant 0.
        report = build_reach_report(netlist, fault_list, [{"a": (1, 0)}])
        y = netlist.output_ports()[0].nets[0]
        assert report.net_consts.get(y) == 0
        # a free: the state becomes unknown and the output undecided.
        free = build_reach_report(netlist, fault_list, [{"a": (0, 0)}])
        assert y not in free.net_consts

    def test_reach_hash_is_content_addressed(self):
        netlist = _and_netlist()
        fault_list = build_fault_list(netlist)
        one = build_reach_report(
            netlist, fault_list, [{"a": (1, 0), "b": (1, 1)}]
        )
        same = build_reach_report(
            netlist, fault_list, [{"a": (1, 0), "b": (1, 1)}]
        )
        other = build_reach_report(
            netlist, fault_list, [{"a": (1, 1), "b": (1, 1)}]
        )
        assert one.reach_hash == same.reach_hash
        assert one.reach_hash != other.reach_hash


class TestSpotCheck:
    def test_confirms_true_claims(self):
        netlist = _seq_netlist()
        fault_list = build_fault_list(netlist)
        report = build_reach_report(netlist, fault_list, [{"a": (1, 0)}])
        check = reach_spot_check(netlist, report, samples=64)
        assert check.ok and check.n_checked > 0

    def test_refutes_forged_claim(self):
        netlist = _and_netlist()
        fault_list = build_fault_list(netlist)
        report = build_reach_report(
            netlist, fault_list, [{"a": (0, 0), "b": (0, 0)}]
        )
        # Forge: claim the output constant 0 even though both inputs are
        # free — SAT must find the a=b=1 witness and refute it.
        y = netlist.output_ports()[0].nets[0]
        forged = dataclasses.replace(report, net_consts={y: 0})
        check = reach_spot_check(netlist, forged, samples=8)
        assert not check.ok
        assert any("constant 0" in msg for msg in check.refuted)


class TestAnalyzeReach:
    def test_phase_a_emits_summaries_and_passes(self):
        from repro.core.methodology import SelfTestMethodology

        program = SelfTestMethodology().build_program("A").program
        report, reports, checks = analyze_reach(
            program, components=["GL", "CTRL"], sat_samples=2,
        )
        assert report.ok
        rules = [d.rule_id for d in report.diagnostics]
        assert rules.count("RC301") == 2
        assert all(checks[name].ok for name in checks)
        assert reports["GL"].n_proven > 0

    def test_degraded_program_warns_and_proves_nothing(self):
        report, reports, _checks = analyze_reach(
            assemble(SELF_MODIFYING), components=["GL"], sat_samples=2,
        )
        assert report.ok  # degradation warns (RC303), never errors
        assert "RC303" in [d.rule_id for d in report.diagnostics]
        assert reports["GL"].degraded
        assert not reports["GL"].proven
