"""SAT redundancy proofs: soundness gates for the untestability screen.

Two regression gates guard the coverage denominators:

* **FV202 soundness** — every fault class the SCOAP structural screen
  calls untestable must be SAT-confirmed redundant, on every shipped
  component.  The structural screen stays a certified subset of the
  complete criterion or the build fails.
* **No proven fault is ever detected** — the full self-test program,
  graded through all three engines, must leave every SAT-proven
  redundant class undetected (excluding them from the denominator can
  then only be sound).
"""

import pytest

from repro.core.campaign import execute_self_test
from repro.core.methodology import SelfTestMethodology
from repro.faultsim.engine import grade
from repro.faultsim.options import GradeOptions
from repro.faultsim.faults import build_fault_list
from repro.formal.redundancy import (
    FaultMiterSession,
    prove_untestable,
    proven_untestable_classes,
)
from repro.plasma.components import COMPONENTS, build_component

#: Components whose SCOAP screen finds candidates (with current netlists).
SCREENED = ("RegF", "MulD", "PCL", "CTRL")

ENGINES = ("differential", "packed")


class TestSoundnessGate:
    @pytest.mark.parametrize(
        "name", [info.name for info in COMPONENTS]
    )
    def test_every_structural_candidate_is_sat_confirmed(self, name):
        screen = prove_untestable(build_component(name), component=name)
        assert not screen.unconfirmed, (
            f"{name}: structural screen is not SAT-confirmed for classes "
            f"{sorted(screen.unconfirmed)} — FV202 soundness regression"
        )
        assert not screen.witnessed
        assert screen.proven == screen.structural

    def test_screened_components_have_candidates(self):
        # The gate above is vacuous if the screen never fires; pin the
        # components where it must.
        for name in SCREENED:
            netlist = build_component(name)
            screen = prove_untestable(netlist, component=name)
            assert screen.structural, name


class TestProvenFaultsStayUndetected:
    @pytest.fixture(scope="class")
    def traced_specs(self):
        self_test = SelfTestMethodology().build_program("ABC")
        _, tracer, _ = execute_self_test(self_test)
        return tracer.finalize()

    @pytest.mark.parametrize("name", SCREENED)
    def test_full_program_never_detects_a_proven_fault(
        self, traced_specs, name
    ):
        netlist = build_component(name)
        fault_list = build_fault_list(netlist)
        proven = proven_untestable_classes(netlist, fault_list)
        assert proven
        stimulus, observe = traced_specs[name]
        assert stimulus, f"{name} not excited by the ABC program"
        for engine in ENGINES:
            result = grade(
                netlist, stimulus, fault_list,
                GradeOptions(engine=engine, observe=observe, name=name,
                             subset=sorted(proven)),
            )
            assert not (result.detected & proven), (
                f"{name}/{engine}: engine detected a SAT-proven "
                f"redundant fault — the proof or the engine is wrong"
            )


class TestSessionApi:
    def test_query_returns_witness_for_testable_fault(self):
        netlist = build_component("CTRL")
        fault_list = build_fault_list(netlist)
        session = FaultMiterSession(netlist)
        # Class 0 is a primary-input stem fault: certainly testable.
        reps = fault_list.class_representatives()
        screen = prove_untestable(netlist, fault_list)
        testable_rep = next(r for r in reps if r not in screen.structural)
        verdict = session.query(fault_list.fault(testable_rep), testable_rep)
        assert not verdict.redundant
        assert verdict.witness is not None  # replay-confirmed internally

    def test_incremental_session_matches_one_shot_queries(self):
        netlist = build_component("PCL")
        fault_list = build_fault_list(netlist)
        screen = prove_untestable(netlist, fault_list)
        session = FaultMiterSession(netlist)
        for rep in sorted(screen.structural):
            assert session.query(fault_list.fault(rep), rep).redundant
