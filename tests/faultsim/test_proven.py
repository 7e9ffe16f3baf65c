"""The ``"proven"`` prune mode: SAT-certified denominator exclusions.

``prune_untestable`` accepts exactly two settings:

* ``False`` — every collapsed class counts in the denominator;
* ``"proven"`` — SAT-certify each SCOAP-screened class and exclude *only
  the certified ones* from the fault-coverage denominator.

Both simulate every class: ``"proven"`` is a reporting choice, so the
screened classes still get a (never detected) verdict and the detected
set equals the ``False`` grade's.  These tests pin the mode plumbing,
that contract on a tied circuit and on CTRL with its phase-A stimulus,
and the checkpoint/shard round-trips.
"""

import pytest

from repro.analysis.scoap import untestable_fault_classes
from repro.core.sharded import (
    ShardVerdict,
    merge_shard_results,
    record_to_verdict,
    shard_record,
)
from repro.faultsim.engine import (
    FaultSimError,
    grade,
    prune_set,
    resolve_prune_mode,
)
from repro.faultsim.options import GradeOptions
from repro.faultsim.faults import build_fault_list
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType
from repro.netlist.netlist import CONST0
from repro.plasma.components import build_component, component


def tied_circuit():
    # OR(a, AND(a, 0)): the AND is structurally constant 0, so several
    # collapsed classes are untestable by construction.
    b = NetlistBuilder("tied")
    a = b.input("a", 1)
    dead = b.netlist.add_gate(GateType.AND, [a[0], CONST0])
    b.output("y", b.gate(GateType.OR, a[0], dead))
    return b.build()


PATTERNS = [dict(a=0), dict(a=1)]


@pytest.fixture(scope="module")
def ctrl_phase_a():
    """CTRL's netlist with its traced phase-A ``(stimulus, observe)``."""
    from repro.core.campaign import execute_self_test
    from repro.core.methodology import SelfTestMethodology

    _, tracer, _ = execute_self_test(
        SelfTestMethodology().build_program("A")
    )
    stimulus, observe = tracer.finalize()["CTRL"]
    return build_component("CTRL"), stimulus, observe


class TestModeResolution:
    def test_canonical_spellings(self):
        assert resolve_prune_mode(False) == ""
        assert resolve_prune_mode("proven") == "proven"

    @pytest.mark.parametrize(
        "bad", ("yes", "sat", "PROVEN", 2, None, True, "structural", "")
    )
    def test_invalid_modes_raise(self, bad):
        with pytest.raises(FaultSimError, match="prune_untestable"):
            resolve_prune_mode(bad)

    def test_grade_rejects_invalid_mode(self):
        netlist = tied_circuit()
        with pytest.raises(FaultSimError):
            grade(netlist, PATTERNS,
                  options=GradeOptions(prune_untestable="maybe"))


class TestProvenMode:
    @pytest.mark.parametrize(
        "fixture", ("tied", "CTRL"), ids=("tied-circuit", "CTRL")
    )
    def test_proven_only_shrinks_the_denominator(self, fixture, request):
        if fixture == "tied":
            netlist, stimulus, observe = tied_circuit(), PATTERNS, None
        else:
            netlist, stimulus, observe = request.getfixturevalue(
                "ctrl_phase_a"
            )
        base = grade(netlist, stimulus, options=GradeOptions(observe=observe))
        proven = grade(netlist, stimulus, options=GradeOptions(
            observe=observe, prune_untestable="proven",
        ))
        screen = untestable_fault_classes(build_fault_list(netlist))

        assert base.proven == set()
        assert screen and proven.proven
        assert proven.proven <= screen
        # Every class is simulated: a screened class holds an undetected
        # verdict, and the grade covers exactly the classes the plain
        # grade covers.
        for rep in screen:
            assert proven.detections[rep].detected is False
        assert proven.detections.keys() == base.detections.keys()
        assert proven.n_simulated == base.n_simulated
        # Detection verdicts never depend on the prune mode.
        assert proven.detected == base.detected
        # The only coverage effect is the denominator exclusion.
        assert proven.n_effective_faults == (
            proven.n_faults - len(proven.proven)
        )
        assert proven.n_faults == base.n_faults
        assert proven.fault_coverage >= base.fault_coverage

    def test_excitation_report_names_the_proven_classes(self):
        result = grade(tied_circuit(), PATTERNS,
                       options=GradeOptions(prune_untestable="proven"))
        report = result.excitation_report()
        assert f"{result.n_proven} proven-redundant, excluded" in report
        # Screened classes are simulated, so the undetected breakdown
        # accounts for every undetected class.
        assert result.n_never_excited + result.n_excited_unobserved == (
            result.n_faults - result.n_detected
        )

    def test_proven_faults_are_not_detected(self):
        netlist = build_component("PCL")
        stimulus = [{p.name: 0 for p in netlist.input_ports()}]
        result = grade(netlist, stimulus,
                       options=GradeOptions(prune_untestable="proven"))
        assert result.proven
        assert not result.proven & result.detected

    def test_prune_sets_modes(self):
        netlist = tied_circuit()
        fault_list = build_fault_list(netlist)
        assert prune_set(netlist, fault_list, "") == frozenset()
        proven = prune_set(netlist, fault_list, "proven")
        assert proven and proven <= untestable_fault_classes(fault_list)


def _one_shard_record(result):
    """A component's journal record: at ``jobs=1`` its one shard's."""
    n = result.fault_list.n_collapsed
    return shard_record(ShardVerdict(
        component=result.name, lo=0, hi=n, n_classes=n,
        n_patterns=result.n_patterns,
        detected=tuple(sorted(result.detected)),
        proven=tuple(sorted(result.proven)),
        n_simulated=result.n_simulated,
    ))


def _restore(record, fault_list):
    verdict = record_to_verdict(record)
    return merge_shard_results(
        verdict.component, fault_list, verdict.n_patterns, [verdict]
    )


class TestCheckpointRoundTrip:
    def test_component_record_round_trips_proven(self):
        netlist = build_component("PCL")
        stimulus = [{p.name: 0 for p in netlist.input_ports()}]
        result = grade(
            netlist, stimulus,
            options=GradeOptions(name="PCL", prune_untestable="proven"),
        )
        record = _one_shard_record(result)
        assert record["proven"] == sorted(result.proven)
        restored = _restore(record, build_fault_list(component("PCL").builder()))
        assert restored.proven == result.proven
        assert restored.fault_coverage == result.fault_coverage
        assert restored.n_effective_faults == result.n_effective_faults

    def test_legacy_records_without_proven_still_load(self):
        netlist = build_component("PCL")
        stimulus = [{p.name: 0 for p in netlist.input_ports()}]
        result = grade(netlist, stimulus,
                       options=GradeOptions(name="PCL"))
        record = _one_shard_record(result)
        del record["proven"]  # a journal written before this layer
        restored = _restore(record, result.fault_list)
        assert restored.proven == set()

    def test_records_with_reach_accounting_still_load(self):
        netlist = build_component("PCL")
        stimulus = [{p.name: 0 for p in netlist.input_ports()}]
        result = grade(netlist, stimulus,
                       options=GradeOptions(name="PCL"))
        record = _one_shard_record(result)
        assert "n_reach_skipped" not in record
        record["n_reach_skipped"] = 66  # journals written with reach on
        restored = _restore(record, result.fault_list)
        assert restored.detected == result.detected
        assert not hasattr(restored, "n_reach_skipped")


class TestShardRoundTrip:
    def _verdict(self):
        return ShardVerdict(
            component="PCL", lo=0, hi=5, n_classes=40, n_patterns=3,
            detected=(1, 3), proven=(2,),
        )

    def test_shard_record_round_trips_proven(self):
        verdict = self._verdict()
        record = shard_record(verdict)
        assert record["proven"] == [2]
        restored = record_to_verdict(record)
        assert restored.proven == (2,)
        assert restored.detected == verdict.detected

    def test_legacy_shard_records_default_to_no_proven(self):
        record = shard_record(self._verdict())
        del record["proven"]
        assert record_to_verdict(record).proven == ()

    def test_legacy_shard_records_with_a_pruned_field_still_load(self):
        # Journals written while a structural skip mode existed carry a
        # "pruned" list; resume ignores it.
        record = shard_record(self._verdict())
        assert "pruned" not in record
        record["pruned"] = [2, 4]
        restored = record_to_verdict(record)
        assert restored.detected == (1, 3)
        assert restored.proven == (2,)

    def test_merge_unions_proven_across_shards(self):
        netlist = build_component("PCL")
        fault_list = build_fault_list(netlist)
        n = fault_list.n_collapsed
        a = ShardVerdict("PCL", 0, n // 2, n, 2, (0,), (1,))
        b = ShardVerdict("PCL", n // 2, n, n, 2, (5,), (7,))
        merged = merge_shard_results("PCL", fault_list, 2, (a, b))
        assert merged.proven == {1, 7}
        assert merged.detected == {0, 5}
        assert merged.n_effective_faults == n - 2
