"""Packed-engine specifics: lane layout, repacking, lane-width knob.

Cross-engine verdict equivalence over the real Plasma components lives
in :mod:`tests.faultsim.test_engines` (``ENGINES`` includes
``"packed"``); this module pins the packed-only machinery — the pattern
span schedule, the replication ladder, odd lane widths, the
``GradeOptions.lanes`` plumbing — and equivalence at extreme configs the
shared matrix doesn't reach.
"""

import random

import pytest

from repro.errors import FaultSimError
from repro.faultsim import GradeOptions, build_fault_list, grade
from repro.faultsim.engine import resolve_engine
from repro.faultsim.observe import ObservePlan
from repro.faultsim.packed import (
    PACKED_CHUNK_SCHEDULE,
    PackedEngine,
    _packed_spans,
    _replicate,
)
from repro.library import build_alu, build_register_file
from repro.netlist.builder import NetlistBuilder
from repro.plasma.components import build_component


def _adder4():
    b = NetlistBuilder("adder4")
    a = b.input("a", 4)
    x = b.input("x", 4)
    cin = b.input("cin", 1)[0]
    from repro.library.adders import ripple_carry_adder

    total, cout = ripple_carry_adder(b, a, x, cin)
    b.output("sum", total)
    b.output("cout", cout)
    return b.build()


def _adder_patterns(n=300, seed=13):
    rng = random.Random(seed)
    return [
        dict(a=rng.getrandbits(4), x=rng.getrandbits(4),
             cin=rng.randrange(2))
        for _ in range(n)
    ]


def _regfile_cycles(n=40, seed=22):
    rng = random.Random(seed)
    return [
        dict(
            wr_addr=rng.randrange(4), wr_data=rng.getrandbits(4),
            wr_en=rng.randrange(2), rd_addr_a=rng.randrange(4),
            rd_addr_b=rng.randrange(4),
        )
        for _ in range(n)
    ]


class TestSpans:
    @pytest.mark.parametrize("n_lanes", (1, 7, 8, 31, 32, 100, 5000, 20000))
    def test_spans_cover_exactly_and_stay_byte_aligned(self, n_lanes):
        spans = list(_packed_spans(n_lanes))
        covered = 0
        for base, width in spans:
            assert base == covered
            assert width % 8 == 0
            # Padding never exceeds the byte-rounding of the real span.
            real = min(width, n_lanes - base)
            assert width - real < 8
            covered += real
        assert covered == n_lanes

    def test_schedule_starts_narrow_and_grows(self):
        exact = sum(PACKED_CHUNK_SCHEDULE) + PACKED_CHUNK_SCHEDULE[-1]
        widths = [w for _base, w in _packed_spans(exact)]
        assert widths[0] == PACKED_CHUNK_SCHEDULE[0]
        assert max(widths) == PACKED_CHUNK_SCHEDULE[-1]
        # Non-decreasing: narrow passes first, wide passes only for the
        # stubborn tail (the final span of a ragged count may truncate).
        assert widths == sorted(widths)


class TestReplicate:
    @pytest.mark.parametrize("width,n_groups", [
        (8, 1), (8, 2), (8, 3), (16, 7), (32, 64), (24, 5),
    ])
    def test_matches_multiplication_by_replication_constant(
        self, width, n_groups
    ):
        rng = random.Random(width * 100 + n_groups)
        constant = sum(1 << (g * width) for g in range(n_groups))
        full = (1 << (n_groups * width)) - 1
        for _ in range(20):
            value = rng.getrandbits(width)
            assert _replicate(value, width, n_groups, full) == (
                value * constant
            ) & full


class TestLaneWidths:
    @pytest.mark.parametrize("lanes", (2, 3, 17, 64, 256))
    def test_combinational_verdicts_lane_invariant(self, lanes):
        netlist = _adder4()
        patterns = _adder_patterns()
        want = grade(netlist, patterns,
                     options=GradeOptions(engine="differential"))
        got = grade(netlist, patterns,
                    options=GradeOptions(engine="packed", lanes=lanes))
        assert got.detected == want.detected
        assert {r: (d.detected, d.excited)
                for r, d in got.detections.items()} == {
            r: (d.detected, d.excited)
            for r, d in want.detections.items()
        }

    @pytest.mark.parametrize("lanes", (2, 64))
    def test_sequential_verdicts_and_cycles_lane_invariant(self, lanes):
        netlist = build_register_file(n_registers=4, width=4)
        cycles = _regfile_cycles()
        want = grade(netlist, cycles,
                     options=GradeOptions(engine="differential"))
        got = grade(netlist, cycles,
                    options=GradeOptions(engine="packed", lanes=lanes))
        assert got.detected == want.detected
        for rep, d in want.detections.items():
            g = got.detections[rep]
            assert (g.detected, g.excited) == (d.detected, d.excited)
            if d.detected:
                assert g.cycle == d.cycle

    def test_options_lanes_reaches_the_engine(self):
        engine = resolve_engine(
            build_alu(width=4), GradeOptions(engine="packed", lanes=32)
        )
        assert isinstance(engine, PackedEngine)
        assert engine.lanes == 32
        # "auto" hands the lane count on wherever it picks packed.
        engine = resolve_engine(build_component("ALU"), GradeOptions(lanes=8))
        assert isinstance(engine, PackedEngine)
        assert engine.lanes == 8

    def test_too_few_lanes_rejected(self):
        with pytest.raises(FaultSimError, match="lane groups"):
            PackedEngine(lanes=1)


class TestOrderPreservation:
    def test_only_order_is_preserved_not_recanonicalised(self):
        # Cone fusion feeds `only` in simulation order; the packed engine
        # must grade exactly that order (verdicts are order-invariant,
        # locality is not).
        netlist = build_alu(width=4)
        fault_list = build_fault_list(netlist)
        reps = list(fault_list.class_representatives())
        shuffled = list(reps)
        random.Random(3).shuffle(shuffled)
        patterns = [
            dict(a=a, b=15 - a, func=a % 16) for a in range(24)
        ]
        plan = ObservePlan.from_spec(None, len(patterns), netlist)
        engine = PackedEngine(lanes=16)
        forward = engine.grade(
            netlist, patterns, fault_list, plan, only=reps
        )
        scrambled = engine.grade(
            netlist, patterns, fault_list, plan, only=shuffled
        )
        assert scrambled.detected == forward.detected
        assert set(scrambled.detections) == set(forward.detections)


class TestCollapsedPacked:
    def test_collapse_on_equals_off(self):
        netlist = build_alu(width=4)
        patterns = [
            dict(a=a * 5 % 16, b=a * 3 % 16, func=a % 16) for a in range(30)
        ]
        plain = grade(netlist, patterns,
                      options=GradeOptions(engine="packed"))
        collapsed = grade(
            netlist, patterns,
            options=GradeOptions(engine="packed", collapse=True),
        )
        assert collapsed.detected == plain.detected
        assert collapsed.fault_coverage == plain.fault_coverage
        assert collapsed.n_simulated <= plain.n_simulated
        assert collapsed.collapse_hash
