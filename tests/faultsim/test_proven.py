"""The ``"proven"`` pruning mode: SAT-certified denominator exclusions.

``prune_untestable`` accepts three settings with distinct contracts:

* ``False`` — grade everything;
* ``True`` / ``"structural"`` — skip SCOAP-screened faults but keep
  them in the denominator (coverage-neutral, the historical behavior,
  pinned by :mod:`tests.faultsim.test_pruning`);
* ``"proven"`` — additionally SAT-certify each screened class and
  exclude *only the certified ones* from the fault-coverage
  denominator.

These tests pin the mode plumbing, the invariant ``proven <= pruned``,
the denominator arithmetic, and the checkpoint/shard round-trips.
"""

import pytest

from repro.core.sharded import (
    ShardVerdict,
    merge_shard_results,
    record_to_verdict,
    shard_record,
)
from repro.faultsim.engine import (
    FaultSimError,
    grade,
    prune_sets,
    resolve_prune_mode,
)
from repro.faultsim.options import GradeOptions
from repro.faultsim.faults import build_fault_list
from repro.plasma.components import build_component, component
from tests.faultsim.test_pruning import PATTERNS, tied_circuit


class TestModeResolution:
    def test_canonical_spellings(self):
        assert resolve_prune_mode(False) == ""
        assert resolve_prune_mode(True) == "structural"
        assert resolve_prune_mode("structural") == "structural"
        assert resolve_prune_mode("proven") == "proven"

    @pytest.mark.parametrize("bad", ("yes", "sat", "PROVEN", 2, None))
    def test_invalid_modes_raise(self, bad):
        with pytest.raises(FaultSimError):
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
    def test_proven_only_shrinks_the_denominator(self, fixture):
        if fixture == "tied":
            netlist, stimulus = tied_circuit(), PATTERNS
        else:
            netlist = build_component("CTRL")
            stimulus = [
                {p.name: 0 for p in netlist.input_ports()},
                {p.name: (1 << p.width) - 1 for p in netlist.input_ports()},
            ]
        base = grade(netlist, stimulus)
        structural = grade(netlist, stimulus,
                           options=GradeOptions(prune_untestable=True))
        proven = grade(netlist, stimulus,
                       options=GradeOptions(prune_untestable="proven"))

        assert base.proven == set() and structural.proven == set()
        assert proven.proven
        assert proven.proven <= proven.pruned
        assert proven.pruned == structural.pruned
        # Detection verdicts never depend on the pruning mode.
        assert proven.detected == structural.detected == base.detected
        # The only coverage effect is the denominator exclusion.
        assert proven.n_effective_faults == base.n_faults - len(
            proven.proven
        )
        assert structural.fault_coverage == base.fault_coverage
        assert proven.fault_coverage >= base.fault_coverage

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
        skip_off, proven_off = prune_sets(netlist, fault_list, "")
        assert skip_off == frozenset() and proven_off == frozenset()
        skip_s, proven_s = prune_sets(netlist, fault_list, "structural")
        assert skip_s and proven_s == frozenset()
        skip_p, proven_p = prune_sets(netlist, fault_list, "proven")
        assert skip_p == skip_s
        assert proven_p and proven_p <= skip_p


def _one_shard_record(result):
    """A component's journal record: at ``jobs=1`` its one shard's."""
    n = result.fault_list.n_collapsed
    return shard_record(ShardVerdict(
        component=result.name, lo=0, hi=n, n_classes=n,
        n_patterns=result.n_patterns,
        detected=tuple(sorted(result.detected)),
        pruned=tuple(sorted(result.pruned)),
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
            detected=(1, 3), pruned=(2, 4), proven=(2,),
        )

    def test_shard_record_round_trips_proven(self):
        verdict = self._verdict()
        record = shard_record(verdict)
        assert record["proven"] == [2]
        restored = record_to_verdict(record)
        assert restored.proven == (2,)
        assert restored.detected == verdict.detected
        assert restored.pruned == verdict.pruned

    def test_legacy_shard_records_default_to_no_proven(self):
        record = shard_record(self._verdict())
        del record["proven"]
        assert record_to_verdict(record).proven == ()

    def test_merge_unions_proven_across_shards(self):
        netlist = build_component("PCL")
        fault_list = build_fault_list(netlist)
        n = fault_list.n_collapsed
        a = ShardVerdict("PCL", 0, n // 2, n, 2, (0,), (1,), (1,))
        b = ShardVerdict("PCL", n // 2, n, n, 2, (5,), (6, 7), (7,))
        merged = merge_shard_results("PCL", fault_list, 2, (a, b))
        assert merged.proven == {1, 7}
        assert merged.pruned == {1, 6, 7}
        assert merged.detected == {0, 5}
        assert merged.n_effective_faults == n - 2
