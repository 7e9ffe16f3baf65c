"""Experiment V3 — flat whole-processor fault grading (the FlexTest setup).

The paper graded its self-test programs by fault-simulating the *entire
processor netlist* executing them, observing the primary outputs.  This
bench does exactly that on the composed gate-level core: the Phase A+B
self-test runs inside the fault simulator with the memory bus
observed every cycle.

Grading all ~30k collapsed fault classes flat costs hours in pure Python,
so a uniform random sample provides an unbiased coverage estimate with a
95% confidence interval; the hierarchical Table 5 figure must fall inside
it (plus a small allowance for the universes' boundary differences).
"""

from conftest import cached_campaign, run_once, write_result

from repro.core.methodology import SelfTestMethodology
from repro.plasma.flatsim import flat_campaign

SAMPLE = 600


def run_flat():
    self_test = SelfTestMethodology().build_program("AB")
    return flat_campaign(self_test.program, sample=SAMPLE, seed=7)


def test_flat_processor_validates_table5(benchmark):
    flat = run_once(benchmark, run_flat)
    hier = cached_campaign("AB")
    hier_fc = hier.summary.overall_coverage

    lines = [
        f"flat fault universe : {flat.n_faults_total:,} collapsed classes",
        f"sampled             : {flat.n_sampled:,} classes over "
        f"{flat.cycles:,} cycles",
        f"flat coverage       : {flat.coverage:.2f}% "
        f"(95% CI ±{flat.confidence_95:.2f})",
        f"hierarchical (T5)   : {hier_fc:.2f}%",
    ]
    text = "\n".join(lines)
    write_result("validation_v3_flat_processor.txt", text)
    print("\n" + text)

    # The hierarchical figure must sit inside the sampling CI plus a small
    # systematic allowance (boundary fault bookkeeping, bus-level vs
    # component-level observability).
    assert abs(flat.coverage - hier_fc) < flat.confidence_95 + 4.0
