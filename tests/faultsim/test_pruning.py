"""SCOAP-screened pruning inside the grading facade: nothing is skipped.

``prune_untestable="proven"`` may only move SAT-certified untestable
classes out of the fault-coverage denominator.  Every class is still
simulated, so the detected set, the numerator and the class count never
change; the certified classes stay in the undetected set.
"""

from repro.analysis.scoap import untestable_fault_classes
from repro.faultsim import GradeOptions, grade
from repro.faultsim.faults import build_fault_list
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType
from repro.netlist.netlist import CONST0
from repro.plasma.components import build_component


def tied_circuit():
    # OR(a, AND(a, 0)): the AND is structurally constant 0, so several
    # collapsed classes are untestable by construction.
    b = NetlistBuilder("tied")
    a = b.input("a", 1)
    dead = b.netlist.add_gate(GateType.AND, [a[0], CONST0])
    b.output("y", b.gate(GateType.OR, a[0], dead))
    return b.build()


PATTERNS = [dict(a=0), dict(a=1)]
PROVEN = GradeOptions(prune_untestable="proven")


class TestPruningSmallCircuit:
    def test_prune_skips_untestable_without_changing_coverage(self):
        # No class is skipped: the proven grade simulates what the plain
        # grade simulates and detects exactly the same classes, so only
        # the denominator moves.
        netlist = tied_circuit()
        base = grade(netlist, PATTERNS)
        pruned = grade(netlist, PATTERNS, options=PROVEN)
        assert base.n_proven == 0
        assert pruned.n_proven > 0
        assert pruned.n_faults == base.n_faults
        assert pruned.n_simulated == base.n_simulated
        assert pruned.detections.keys() == base.detections.keys()
        assert pruned.detected == base.detected
        assert pruned.n_effective_faults == base.n_faults - pruned.n_proven

    def test_pruned_faults_stay_in_the_undetected_set(self):
        netlist = tied_circuit()
        result = grade(netlist, PATTERNS, options=PROVEN)
        assert result.proven
        assert not result.proven & result.detected
        undetected = {
            result.fault_list.representative[
                result.fault_list.faults.index(f)
            ]
            for f in result.undetected_faults()
        }
        assert result.proven <= undetected
        for rep in result.proven:
            assert result.detections[rep].detected is False


class TestPruningOnComponent:
    def test_ctrl_prunes_classes_and_keeps_coverage(self):
        # CTRL has structurally untestable decode logic (reserved opcode
        # space); a tiny pattern set is enough to check the invariant.
        netlist = build_component("CTRL")
        patterns = [
            {"instr": 0x00000000},  # sll $0, $0, 0
            {"instr": 0x8C080000},  # lw $t0, 0($0)
            {"instr": 0x01095021},  # addu $t2, $t0, $t1
        ]
        base = grade(netlist, patterns)
        pruned = grade(netlist, patterns, options=PROVEN)
        screen = untestable_fault_classes(build_fault_list(netlist))
        assert pruned.n_proven > 0
        assert pruned.proven <= screen
        assert pruned.detected == base.detected
        assert pruned.n_simulated == base.n_simulated
        assert pruned.fault_coverage >= base.fault_coverage
