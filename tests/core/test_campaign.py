"""Integration tests for the fault-grading campaign (fast subset).

The full ten-component campaign is exercised by the benchmarks; here we
grade the cheap components to validate the pipeline end to end, plus the
bookkeeping around it.
"""

import pytest

import repro.core.sharded as sharded_mod
from repro.core.campaign import execute_self_test, run_campaign
from repro.core.methodology import SelfTestMethodology
from repro.core.sharded import ShardVerdict
from repro.faultsim.options import GradeOptions
from repro.netlist.builder import NetlistBuilder
from repro.netlist.remap import remap_to_nand
from repro.plasma.components import (
    COMPONENTS,
    component,
    component_netlist,
    component_stats,
)

FAST = ["ALU", "BSH", "CTRL", "BMUX"]


@pytest.fixture(scope="module")
def outcome():
    return run_campaign("A", components=FAST)


class TestCampaignPipeline:
    def test_components_graded(self, outcome):
        assert set(outcome.results) == set(FAST)

    def test_functional_components_high_coverage(self, outcome):
        assert outcome.results["ALU"].fault_coverage > 90.0
        assert outcome.results["BSH"].fault_coverage > 88.0

    def test_summary_consistent_with_results(self, outcome):
        for cov in outcome.summary.components:
            result = outcome.results[cov.name]
            assert cov.n_faults == result.n_faults
            assert cov.n_detected == result.n_detected

    def test_table4_shape(self, outcome):
        t4 = outcome.table4()
        assert t4["code_words"] > 0
        assert t4["clock_cycles"] > t4["code_words"]
        assert t4["total_words"] == t4["code_words"] + t4["data_words"]

    def test_table5_rows(self, outcome):
        rows = outcome.table5()
        assert rows[-1]["name"] == "Plasma"
        mofc_sum = sum(r["mofc"] for r in rows[:-1])
        assert mofc_sum == pytest.approx(rows[-1]["mofc"])

    def test_grading_timings_recorded(self, outcome):
        assert set(outcome.grading_seconds) == set(FAST)
        assert all(t >= 0 for t in outcome.grading_seconds.values())


class TestExecuteSelfTest:
    def test_returns_trace_and_memory(self):
        st = SelfTestMethodology().build_program("A")
        result, tracer, memory = execute_self_test(st)
        assert result.halted
        specs = tracer.finalize()
        assert set(specs) == {
            "ALU", "BSH", "CTRL", "BMUX", "RegF", "MulD", "PCL", "PLN",
            "GL", "MCTRL",
        }
        assert memory.read_word(st.response_base) != 0


class TestPhaseProgression:
    def test_phase_b_improves_mctrl(self):
        a = run_campaign("A", components=["MCTRL"])
        ab = run_campaign("AB", components=["MCTRL"])
        assert (
            ab.results["MCTRL"].fault_coverage
            > a.results["MCTRL"].fault_coverage + 5
        )

    def test_phase_c_improves_ctrl(self):
        ab = run_campaign("AB", components=["CTRL"])
        abc = run_campaign("ABC", components=["CTRL"])
        assert (
            abc.results["CTRL"].fault_coverage
            > ab.results["CTRL"].fault_coverage
        )


class TestTechnologyRemap:
    def test_remapped_campaign_similar_coverage(self):
        plain = run_campaign("A", components=["ALU"])
        remapped = run_campaign(
            "A", components=["ALU"], netlist_transform=remap_to_nand
        )
        fc_plain = plain.results["ALU"].fault_coverage
        fc_remap = remapped.results["ALU"].fault_coverage
        # The paper's C3 claim: very similar coverage across libraries.
        assert abs(fc_plain - fc_remap) < 5.0


class TestCollapsedCampaign:
    @pytest.fixture(scope="class")
    def pair(self):
        wanted = ["CTRL", "BMUX"]
        plain = run_campaign("A", components=wanted)
        collapsed = run_campaign(
            "A", components=wanted, options=GradeOptions(collapse=True)
        )
        return plain, collapsed

    def test_tables_bit_identical(self, pair):
        plain, collapsed = pair
        assert collapsed.table5() == plain.table5()
        assert collapsed.table4() == plain.table4()

    def test_detected_sets_identical(self, pair):
        plain, collapsed = pair
        for name, result in plain.results.items():
            assert collapsed.results[name].detected == result.detected

    def test_collapse_accounting_recorded(self, pair):
        plain, collapsed = pair
        for name in plain.results:
            got = collapsed.results[name]
            want = plain.results[name]
            assert got.collapse_hash
            assert not want.collapse_hash
            assert 0 < got.n_simulated < want.n_simulated
            assert got.n_inferred > 0
            assert (
                got.n_simulated + got.n_inferred <= want.n_simulated
            )


def _ungraded_shard(name, lo, hi):
    """A shard stub: the planner's builds are under test, not grading."""
    return ShardVerdict(name, lo, hi, n_classes=-1, n_patterns=0, detected=())


class TestNetlistBuilds:
    def test_one_campaign_builds_each_component_once(self, monkeypatch):
        # The test-development order's area figures and the planner's
        # verdict keys read one shared build per component.
        builds = []
        real_build = NetlistBuilder.build

        def counting(self):
            builds.append(self.netlist.name)
            return real_build(self)

        monkeypatch.setattr(NetlistBuilder, "build", counting)
        monkeypatch.setattr(sharded_mod, "grade_shard", _ungraded_shard)
        component_netlist.cache_clear()
        component_stats.cache_clear()
        run_campaign("A")
        assert sorted(builds) == sorted(c.name for c in COMPONENTS)

    def test_remap_leaves_the_shared_netlist_alone(self):
        netlist = component_netlist(component("ALU"))
        gates, dffs = list(netlist.gates), list(netlist.dffs)
        ports, names = dict(netlist.ports), dict(netlist.net_names)
        n_nets = netlist.n_nets
        run_campaign("A", components=["ALU"], netlist_transform=remap_to_nand)
        assert netlist.gates == gates and netlist.dffs == dffs
        assert netlist.ports == ports and netlist.net_names == names
        assert netlist.n_nets == n_nets
