"""Property tests: a reach proof is never contradicted by fault grading.

:func:`repro.analysis.reach.build_reach_report` claims some fault classes
are *unexercised-proven*: the stimulus never drives the fault site to the
opposite of its stuck value, so the faulty machine never diverges from
the good one.  The load-bearing check is soundness against a plain
:func:`repro.faultsim.grade` of the same stimulus: every proven class is
graded exactly ``Detection(False, excited=False)`` and is absent from the
detected set.  It is driven here with random netlists (combinational and
sequential), abstract patterns generalised from the concrete stimulus,
both engines, collapse on and off, and one real phase-A component graded
from the traced campaign.
"""

import random

import pytest

from repro.analysis.collapse import compute_collapse
from repro.analysis.reach import build_reach_report
from repro.faultsim import GradeOptions, build_fault_list, grade
from repro.faultsim.differential import Detection

from tests.faultsim.test_collapse_property import (
    _cycles,
    _patterns,
    random_comb,
    random_seq,
)

ENGINES = ("differential", "packed")

MASK32 = 0xFFFF_FFFF

UNEXERCISED = Detection(False, excited=False)


def pin_inputs(rng, stimulus, width, n_pinned=2):
    """Hold ``n_pinned`` random input bits constant across ``stimulus``.

    A self-test program leaves most component inputs partly constant;
    pinning bits is what gives the analysis something to prove.
    Returns the rewritten stimulus and the pinned-bit mask.
    """
    pinned = 0
    for bit in rng.sample(range(width), n_pinned):
        pinned |= 1 << bit
    value = rng.getrandbits(width) & pinned
    return [{"x": (e["x"] & ~pinned) | value} for e in stimulus], pinned


def abstract_cover(rng, stimulus, width, keep=0, loosen=0.4):
    """One abstract pattern per stimulus entry, each covering its entry.

    Random input bits outside ``keep`` are forgotten (mask cleared), so
    the pattern set over-approximates the concrete run exactly the way
    derived program patterns over-approximate the traced one.
    """
    patterns = []
    for entry in stimulus:
        mask = MASK32
        for bit in range(width):
            if not keep >> bit & 1 and rng.random() < loosen:
                mask &= ~(1 << bit)
        patterns.append({"x": (mask, entry["x"] & mask)})
    return patterns


def pinned_case(rng, stimulus, width):
    """A pinned stimulus and its abstract cover."""
    stimulus, pinned = pin_inputs(rng, stimulus, width)
    return stimulus, abstract_cover(rng, stimulus, width, keep=pinned)


def assert_sound(report, result):
    """Every proven class grades undetected and unexcited."""
    assert report.n_proven > 0  # a vacuous report would prove nothing
    for rep in report.proven:
        assert result.detections[rep] == UNEXERCISED, rep
        assert rep not in result.detected


class TestReachSoundness:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_combinational(self, engine, seed):
        netlist = random_comb(seed)
        fault_list = build_fault_list(netlist)
        rng = random.Random(seed + 500)
        stimulus, cover = pinned_case(rng, _patterns(rng, 12), 5)
        report = build_reach_report(netlist, fault_list, cover)
        result = grade(netlist, stimulus, fault_list,
                       GradeOptions(engine=engine))
        assert_sound(report, result)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_sequential(self, engine, seed):
        netlist = random_seq(seed)
        fault_list = build_fault_list(netlist)
        rng = random.Random(seed + 600)
        stimulus, cover = pinned_case(rng, _cycles(rng, 20), 4)
        report = build_reach_report(netlist, fault_list, cover)
        result = grade(netlist, stimulus, fault_list,
                       GradeOptions(engine=engine))
        assert_sound(report, result)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [21, 22])
    def test_with_collapse(self, engine, seed):
        netlist = random_comb(seed, n_gates=30)
        fault_list = build_fault_list(netlist)
        cmap = compute_collapse(netlist, fault_list)
        rng = random.Random(seed + 700)
        stimulus, cover = pinned_case(rng, _patterns(rng, 10), 5)
        report = build_reach_report(netlist, fault_list, cover)
        result = grade(netlist, stimulus, fault_list,
                       GradeOptions(engine=engine, collapse=cmap))
        assert_sound(report, result)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sequential_with_collapse(self, engine):
        netlist = random_seq(61)
        fault_list = build_fault_list(netlist)
        rng = random.Random(961)
        stimulus, cover = pinned_case(rng, _cycles(rng, 16), 4)
        report = build_reach_report(netlist, fault_list, cover)
        result = grade(netlist, stimulus, fault_list,
                       GradeOptions(engine=engine, collapse=True))
        assert_sound(report, result)

    def test_constant_pinned_inputs_prove_a_lot(self):
        # Every input pinned: most of the circuit is constant.
        netlist = random_comb(41)
        fault_list = build_fault_list(netlist)
        report = build_reach_report(
            netlist, fault_list, [{"x": (MASK32, 0)}]
        )
        result = grade(netlist, [{"x": 0}], fault_list, GradeOptions())
        assert_sound(report, result)


def test_phase_a_component_from_traced_campaign():
    """GL's proven classes grade undetected in the real phase-A run."""
    from repro.analysis.absint import interpret_program
    from repro.analysis.reach import derive_patterns
    from repro.core.campaign import execute_self_test, grade_traced
    from repro.core.methodology import SelfTestMethodology
    from repro.plasma.components import component

    self_test = SelfTestMethodology().build_program("A")
    cpu_result, tracer, _memory = execute_self_test(self_test)
    outcome = grade_traced(
        self_test, cpu_result, tracer.finalize(), components=["GL"],
        options=GradeOptions(collapse=True),
    )
    result = outcome.results["GL"]
    patterns = derive_patterns(interpret_program(self_test.program))
    netlist = component("GL").builder()
    report = build_reach_report(
        netlist, result.fault_list, patterns["GL"], component="GL"
    )
    assert_sound(report, result)


def test_grade_options_has_no_reach_field():
    with pytest.raises(TypeError, match="reach"):
        GradeOptions(reach=True)
