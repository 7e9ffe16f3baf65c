"""Cross-engine equivalence and facade tests for the grade() API.

Every shipped Plasma component is graded with its traced phase-A stimulus
(truncated to keep tier-1 fast) through both engines; verdicts must agree
fault by fault and the Table 5 rows must be bit-identical.  The packed
engine's fault dropping and lane repacking are additionally stress-tested
against the differential reference engine with deliberately narrow words
and aggressive repack settings.
"""

import random

import pytest

from repro.core.campaign import execute_self_test
from repro.core.methodology import SelfTestMethodology
from repro.errors import FaultSimError
from repro.faultsim import GradeOptions, build_fault_list, grade
from repro.faultsim.engine import (
    AUTO_MIN_CLASSES_PER_MOVING_GATE,
    AUTO_MIN_DEPTH,
    auto_choice,
    default_engine_name,
    engine_names,
    get_engine,
    resolve_engine,
)
from repro.faultsim.held import held_share
from repro.faultsim.lowering import clear_program_cache
from repro.faultsim.observe import ObservePlan
from repro.faultsim.packed import PackedEngine
from repro.faultsim.trace_cache import global_trace_cache
from repro.library import build_register_file
from repro.netlist.builder import NetlistBuilder
from repro.netlist.levelize import depth
from repro.plasma.components import COMPONENTS, build_component

ENGINES = ("differential", "packed")

#: Stimulus truncation per component (cycles for sequential components,
#: patterns for combinational ones) — full traces make tier-1 too slow.
STIMULUS_CAP = {
    "RegF": 100, "MulD": 120, "MCTRL": 150, "PCL": 200, "PLN": 150,
    "GL": 300, "ALU": 150, "BSH": 200, "CTRL": 300, "BMUX": 300,
}

#: Fault-class sampling for the two largest components (the differential
#: engine is too slow for their full universes here).
FAULT_SAMPLE = {"RegF": 350, "MulD": 400}


@pytest.fixture(scope="session")
def phase_a_specs():
    self_test = SelfTestMethodology().build_program("A")
    _, tracer, _ = execute_self_test(self_test)
    return tracer.finalize()


def _sample_only(fault_list, sample):
    """Every ``stride``-th class representative in canonical order
    (``None``: grade them all)."""
    reps = fault_list.class_representatives()
    if sample is None or len(reps) <= sample:
        return None
    stride = len(reps) // sample
    return reps[::stride][:sample]


def adder4():
    b = NetlistBuilder("adder4")
    a = b.input("a", 4)
    x = b.input("x", 4)
    cin = b.input("cin", 1)[0]
    from repro.library.adders import ripple_carry_adder

    total, cout = ripple_carry_adder(b, a, x, cin)
    b.output("sum", total)
    b.output("cout", cout)
    return b.build()


def regfile_cycles(n=40, seed=22):
    rng = random.Random(seed)
    return [
        dict(
            wr_addr=rng.randrange(4), wr_data=rng.getrandbits(4),
            wr_en=rng.randrange(2), rd_addr_a=rng.randrange(4),
            rd_addr_b=rng.randrange(4),
        )
        for _ in range(n)
    ]


class TestCrossEngineEquivalence:
    """Every component, every engine, identical verdicts and Table 5."""

    @pytest.mark.parametrize("name", [c.name for c in COMPONENTS])
    def test_engines_agree_on_component(self, name, phase_a_specs):
        stimulus, observe = phase_a_specs[name]
        cap = STIMULUS_CAP[name]
        stimulus = list(stimulus[:cap])
        if observe is not None:
            observe = list(observe[:cap])
        netlist = build_component(name)
        fault_list = build_fault_list(netlist)
        only = _sample_only(fault_list, FAULT_SAMPLE.get(name))
        plan = ObservePlan.from_spec(observe, len(stimulus), netlist)

        results = {
            engine: get_engine(engine).grade(
                netlist, stimulus, fault_list, plan, name=name, only=only
            )
            for engine in ENGINES
        }
        want = results["differential"]
        sequential = bool(netlist.dffs)
        for engine in ENGINES[1:]:
            got = results[engine]
            assert set(got.detections) == set(want.detections), engine
            for rep, d in want.detections.items():
                g = got.detections[rep]
                assert (g.detected, g.excited) == (d.detected, d.excited), (
                    engine, fault_list.fault(rep).describe(netlist)
                )
                if sequential and d.detected:
                    # One stimulus lane: the cycle and the witness lane
                    # are the whole record.
                    assert (g.cycle, g.lanes) == (d.cycle, d.lanes), (
                        engine, rep
                    )
            assert got.detected == want.detected, engine
            assert got.fault_coverage == want.fault_coverage, engine
            # Bit-identical Table 5 row.
            assert got.to_component_coverage() == want.to_component_coverage()


class TestTraceCacheTransparency:
    def test_warm_regrade_bit_identical(self, phase_a_specs):
        stimulus, observe = phase_a_specs["BSH"]
        stimulus = list(stimulus[:200])
        observe = list(observe[:200]) if observe is not None else None
        netlist = build_component("BSH")
        cache = global_trace_cache()
        cache.clear()
        clear_program_cache()
        cache.reset_stats()

        opts = GradeOptions(engine="packed", observe=observe)
        cold = grade(netlist, stimulus, options=opts)
        hits_after_cold = cache.stats.hits
        warm = grade(netlist, stimulus, options=opts)

        assert cache.stats.hits > hits_after_cold
        assert warm.detected == cold.detected
        assert warm.fault_coverage == cold.fault_coverage
        for rep, d in cold.detections.items():
            g = warm.detections[rep]
            assert (g.detected, g.cycle, g.lanes, g.excited) == (
                d.detected, d.cycle, d.lanes, d.excited
            )

    def test_rebuilt_netlist_shares_cache_entry(self):
        cycles = regfile_cycles()
        cache = global_trace_cache()
        cache.clear()
        opts = GradeOptions(engine="packed")
        grade(build_register_file(n_registers=4, width=4), cycles,
              options=opts)
        misses = cache.stats.misses
        # A structurally identical netlist built from scratch must hit.
        grade(build_register_file(n_registers=4, width=4), cycles,
              options=opts)
        assert cache.stats.misses == misses
        assert cache.stats.hits >= 1


class TestDroppingAndRepacking:
    """Fault dropping and lane repacking never change verdicts."""

    def test_sequential_repack_verdicts_stable(self):
        netlist = build_register_file(n_registers=4, width=4)
        cycles = regfile_cycles()
        fault_list = build_fault_list(netlist)
        plan = ObservePlan.from_spec(None, len(cycles), netlist)
        want = get_engine("differential").grade(
            netlist, cycles, fault_list, plan
        )
        # Sequential words hold at least 255 faults, so the narrow
        # setting still splits the universe over several cycle walks.
        assert fault_list.n_collapsed > 255
        for lanes, threshold, min_drop in (
            (2, 1.0, 1), (64, 0.9, 2), (1024, 0.5, 8),
        ):
            engine = PackedEngine(
                lanes=lanes,
                repack_threshold=threshold,
                min_repack_drop=min_drop,
            )
            got = engine.grade(netlist, cycles, fault_list, plan)
            assert set(got.detections) == set(want.detections)
            for rep, d in want.detections.items():
                g = got.detections[rep]
                assert (g.detected, g.cycle if d.detected else None,
                        g.excited) == (
                    d.detected, d.cycle if d.detected else None, d.excited
                ), (lanes, threshold, min_drop, rep)

    def test_combinational_chunked_dropping_matches_differential(self):
        # 512 exhaustive patterns span several pattern chunks, so faults
        # detected in the first chunk are dropped before later ones; four
        # lane groups per word split every chunk into many words.
        netlist = adder4()
        patterns = [dict(a=a, x=x, cin=c)
                    for a in range(16) for x in range(16) for c in (0, 1)]
        fault_list = build_fault_list(netlist)
        plan = ObservePlan.from_spec(None, len(patterns), netlist)
        want = get_engine("differential").grade(
            netlist, patterns, fault_list, plan
        )
        for engine in (PackedEngine(lanes=4), get_engine("packed")):
            got = engine.grade(netlist, patterns, fault_list, plan)
            assert got.detected == want.detected, engine.lanes
            assert {r: (d.detected, d.excited)
                    for r, d in got.detections.items()} == {
                r: (d.detected, d.excited)
                for r, d in want.detections.items()
            }, engine.lanes


class TestFacade:
    def test_registry_lists_shipped_engines(self):
        assert engine_names() == ENGINES

    @pytest.mark.parametrize("name", ["batch", "compiled"])
    def test_removed_engines_rejected(self, name):
        with pytest.raises(
            FaultSimError, match="choose from auto, differential, packed"
        ):
            GradeOptions(engine=name)
        with pytest.raises(FaultSimError, match=f"unknown engine '{name}'"):
            get_engine(name)

    def test_unknown_engine_rejected(self):
        with pytest.raises(FaultSimError, match="unknown engine"):
            get_engine("flextest")
        with pytest.raises(FaultSimError, match="unknown engine"):
            GradeOptions(engine="flextest")

    def test_auto_picks_differential_for_shallow_or_sequential(self):
        assert default_engine_name(build_component("BMUX")) == "differential"
        assert default_engine_name(build_component("RegF")) == "differential"
        assert depth(build_component("BMUX")) < AUTO_MIN_DEPTH

    def test_auto_picks_packed_for_deep_combinational(self):
        assert default_engine_name(build_component("ALU")) == "packed"
        assert depth(build_component("ALU")) >= AUTO_MIN_DEPTH

    #: ``expected`` is the pick for a sparse grade: one class in 40, the
    #: density of the benchmark's cold sample.  Every whole universe
    #: goes to the packed engine.
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("MulD", "packed"),
            ("RegF", "differential"),
            ("PCL", "differential"),
            ("MCTRL", "differential"),
            ("GL", "differential"),
            ("PLN", "differential"),
        ],
    )
    def test_auto_reads_the_sequential_held_share(
        self, phase_a_specs, name, expected
    ):
        stimulus, _ = phase_a_specs[name]
        netlist = build_component(name)
        assert netlist.dffs
        universe = build_fault_list(netlist).n_collapsed
        sparse = universe // 40
        moving = 1 - held_share(stimulus)
        bar = AUTO_MIN_CLASSES_PER_MOVING_GATE * len(netlist.gates) * moving
        assert (sparse >= bar) == (expected == "packed")
        assert default_engine_name(netlist, stimulus, sparse) == expected
        options = GradeOptions()
        assert resolve_engine(
            netlist, options, stimulus, sparse
        ).name == expected
        # The whole universe (the default count) is dense everywhere.
        assert default_engine_name(netlist, stimulus) == "packed"
        picked, reason = auto_choice(netlist, stimulus, universe)
        assert picked == "packed"
        assert reason.startswith(f"{universe:,} classes ≥ ")
        assert reason.endswith(f"gates × {moving:.0%} moving")
        # Without a stimulus, sequential netlists stay differential.
        assert default_engine_name(netlist) == "differential"

    def test_empty_stimulus_messages(self):
        with pytest.raises(FaultSimError, match="no patterns to apply"):
            grade(adder4(), [])
        with pytest.raises(FaultSimError, match="no cycles to apply"):
            grade(build_register_file(n_registers=4, width=4), [])

    def test_facade_matches_direct_engine(self):
        netlist = adder4()
        patterns = [dict(a=a, x=15 - a, cin=a & 1) for a in range(16)]
        fault_list = build_fault_list(netlist)
        via_facade = grade(netlist, patterns, fault_list,
                           GradeOptions(engine="differential"))
        plan = ObservePlan.from_spec(None, len(patterns), netlist)
        direct = get_engine("differential").grade(
            netlist, patterns, fault_list, plan
        )
        assert via_facade.detected == direct.detected
        assert via_facade.fault_coverage == direct.fault_coverage
        assert via_facade.detections == direct.detections
