"""Experiment registry: every reproduced table, figure and claim.

Single source of truth consumed by the benchmark harness and by the
EXPERIMENTS.md generator (``examples/generate_experiments_report.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Experiment:
    """One reproduced artefact from the paper's evaluation.

    Attributes:
        exp_id: short id used across DESIGN.md / EXPERIMENTS.md / benches.
        paper_artifact: what it reproduces (table/figure/claim).
        description: what is being measured.
        workload: the stimulus/configuration.
        modules: implementing modules.
        bench: benchmark file that regenerates it.
        paper_anchors: the numbers/prose from the paper we compare against.
    """

    exp_id: str
    paper_artifact: str
    description: str
    workload: str
    modules: tuple[str, ...]
    bench: str
    paper_anchors: tuple[str, ...] = field(default_factory=tuple)


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "T2", "Table 2",
        "Component classification into functional/control/hidden classes",
        "static analysis of the Plasma RT-level component registry",
        ("repro.core.classification", "repro.plasma.components"),
        "benchmarks/bench_table2_classification.py",
        ("RegF/MulD/ALU/BSH functional; MCTRL/PCL/CTRL/BMUX control; "
         "PLN hidden",),
    ),
    Experiment(
        "T3", "Table 3",
        "Per-component gate counts in NAND2 equivalents",
        "structural netlist generation for all ten components",
        ("repro.library", "repro.netlist.stats", "repro.plasma.components"),
        "benchmarks/bench_table3_gatecounts.py",
        ("RegF 9,906; MulD 3,044; total 17,459; RegF and MulD are the two "
         "largest components",),
    ),
    Experiment(
        "T4", "Table 4",
        "Self-test program size (words) and execution clock cycles for "
        "Phase A and Phase A+B",
        "methodology-generated self-test programs executed on the traced CPU",
        ("repro.core.methodology", "repro.isa", "repro.plasma.cpu"),
        "benchmarks/bench_table4_program_stats.py",
        ("~1K words of self-test code; 3,393 cycles (A); 3,552 cycles (A+B)",),
    ),
    Experiment(
        "T5", "Table 5",
        "Per-component and overall stuck-at fault coverage with MOFC, "
        "after Phase A and Phase A+B",
        "full hierarchical fault-grading campaign (trace + per-component "
        "stuck-at fault simulation)",
        ("repro.core.campaign", "repro.faultsim", "repro.plasma.tracer"),
        "benchmarks/bench_table5_fault_coverage.py",
        ("overall FC > 92% after Phase A; MCTRL has the largest MOFC after "
         "Phase A and is Phase B's first target; the hidden pipeline "
         "component is tested satisfactorily without its own routine",),
    ),
    Experiment(
        "C1", "Section 4 claim (vs pseudorandom [2]-[5])",
        "Deterministic routines vs pseudorandom-instruction self-test: "
        "coverage per downloaded word and per cycle",
        "random-instruction programs of increasing length vs Phase A, "
        "graded on the functional components",
        ("repro.baselines.random_instructions", "repro.core.campaign"),
        "benchmarks/bench_claim_vs_pseudorandom.py",
        ("pseudorandom approaches reach lower structural coverage despite "
         "excessively large execution times",),
    ),
    Experiment(
        "C2", "Section 1 claim (vs Chen & Dey [6])",
        "Deterministic routines vs software-LFSR expansion self-test: "
        "program words, test-data words, execution cycles at matched "
        "functional-component coverage",
        "Chen&Dey-style signatures expanded on-chip vs Phase A",
        ("repro.baselines.chen_dey", "repro.core.campaign"),
        "benchmarks/bench_claim_vs_chen_dey.py",
        ("the deterministic methodology needs ~20x less program, ~75x less "
         "test data and ~90x fewer cycles than [6] on Parwan — the shape "
         "(order-of-magnitude wins on cycles/data) should reproduce",),
    ),
    Experiment(
        "C3", "Section 4 claim (technology independence)",
        "Similar fault coverage when the processor is mapped to a different "
        "technology library",
        "Phase A campaign re-run with an alternative gate-cost/NAND-NOR "
        "mapping of every component netlist",
        ("repro.netlist.remap", "repro.core.campaign"),
        "benchmarks/bench_claim_tech_remap.py",
        ("very similar fault coverage results on a different library",),
    ),
    Experiment(
        "F23", "Figures 2-3 (methodology flow)",
        "Coverage trajectory as components are added in priority order "
        "(Phase A components one at a time, then Phase B)",
        "incremental campaigns over routine prefixes",
        ("repro.core.priority", "repro.core.campaign"),
        "benchmarks/bench_fig_phase_trajectory.py",
        ("coverage rises monotonically; the largest functional components "
         "contribute the most",),
    ),
    Experiment(
        "A1", "Ablation (design choice 1)",
        "Greedy priority order vs reversed / size-blind development order: "
        "coverage per invested program word",
        "prefix-truncated programs under different component orders",
        ("repro.core.priority", "repro.core.methodology"),
        "benchmarks/bench_ablation_priority.py",
    ),
    Experiment(
        "E1", "Engine validation (differential vs packed)",
        "Grade the same component/stimulus/observability through the "
        "event-driven differential engine and the fault-parallel packed "
        "engine; verdicts must agree fault by fault",
        "Phase A ALU and BSH traces",
        ("repro.faultsim.differential", "repro.faultsim.packed"),
        "benchmarks/bench_engines.py",
        ("two independent engines, identical verdicts",),
    ),
    Experiment(
        "V1", "Methodology validation (flat vs hierarchical grading)",
        "Fault-grade the composed CTRL+BMUX+ALU+BSH execute-stage netlist "
        "flat with the same traces and observability, and compare with the "
        "fault-weighted aggregate of the per-component results",
        "Phase A traces over the composed cluster",
        ("repro.netlist.compose", "repro.plasma.cluster",
         "repro.faultsim.engine"),
        "benchmarks/bench_validation_flat_cluster.py",
        ("flat and hierarchical coverage agree within boundary bookkeeping "
         "(a fraction of a percent in our runs)",),
    ),
    Experiment(
        "V2", "Methodology validation (self-test on the gate-level core)",
        "Execute the complete Phase A+B self-test program on the composed "
        "gate-level processor (all ten component netlists wired together) "
        "and compare the full response stream with the behavioural model",
        "Phase A+B program over the composed PlasmaTop netlist",
        ("repro.plasma.toplevel", "repro.plasma.cosim"),
        "benchmarks/bench_validation_gate_level.py",
        ("bit-identical response streams; cycle counts agree to within the "
         "halt-detection window",),
    ),
    Experiment(
        "V3", "Methodology validation (flat whole-processor fault grading)",
        "Fault-simulate the complete composed processor executing the "
        "self-test program, observing the memory bus every cycle (the "
        "paper's FlexTest setup); a uniform fault sample estimates the "
        "flat coverage, which must agree with the hierarchical Table 5",
        "Phase A+B program over PlasmaTop in the fault simulator, "
        "uniform random fault sample with a 95% confidence interval",
        ("repro.plasma.flatsim", "repro.faultsim.engine"),
        "benchmarks/bench_validation_flat_processor.py",
        ("flat estimate and hierarchical figure agree within the sampling "
         "interval",),
    ),
    Experiment(
        "EXT1", "Extension (on-line periodic testing, the paper's outlook)",
        "Overhead vs worst-case detection latency when the compact "
        "self-test runs periodically between mission slices on the Plasma "
        "model — the property the authors' follow-up work builds on",
        "Phase A / A+B programs interleaved with a mission workload over "
        "a period sweep",
        ("repro.core.periodic",),
        "benchmarks/bench_ext_periodic.py",
        ("sub-1% overhead with ~15 ms worst-case detection latency at the "
         "paper's 66 MHz clock",),
    ),
    Experiment(
        "X1", "Analysis (why the residual faults survive)",
        "Classify every undetected fault as never-excited (the stimulus "
        "cannot reach it — e.g. high PC/address bits in a small test "
        "footprint) or excited-but-unobserved (a candidate for more "
        "observability or another phase)",
        "Phase A+B campaign with per-fault excitation records",
        ("repro.faultsim.differential", "repro.faultsim.harness"),
        "benchmarks/bench_excitation_analysis.py",
        ("PCL residue dominated by never-excited faults; MCTRL residue by "
         "excited-but-unobserved hold-protocol enables",),
    ),
    Experiment(
        "P1", "Infrastructure validation (parallel campaign scaling)",
        "Shard every component's fault universe over a persistent worker "
        "pool and sweep the worker count; the merged result must be "
        "bit-identical to the serial campaign at every count, and the "
        "speedup is measured (and gated at >= 2.5x for 4 workers when "
        ">= 4 usable cores are present)",
        "Phase A ALU+BSH grading stage at 1/2/4/8 workers "
        "(grade_traced, CPU trace executed once outside the timing)",
        ("repro.runtime.pool", "repro.runtime.sharding",
         "repro.core.sharded", "repro.core.campaign"),
        "benchmarks/bench_parallel.py",
        ("parallelism is an implementation detail: identical Table 5 at "
         "any worker count; scaling is reported honestly per available "
         "cores (a 1-core container cannot evidence speedup)",),
    ),
    Experiment(
        "F1", "Infrastructure validation (SAT formal layer)",
        "Prove every component netlist equivalent to its bit-blasted "
        "behavioral golden model (CEC miter UNSAT), SAT-certify every "
        "SCOAP-screened untestable fault class (redundancy soundness "
        "gate) and detect an injected netlist mutant via a "
        "replay-confirmed counterexample; solve times and conflict "
        "counts are archived per component",
        "all ten component netlists vs repro.formal.golden specs through "
        "the dependency-free CDCL solver",
        ("repro.formal.sat", "repro.formal.encode", "repro.formal.cec",
         "repro.formal.redundancy", "repro.formal.golden"),
        "benchmarks/bench_sat.py",
        ("formal services validate the simulation stack: equivalence of "
         "netlist and behavioral model, and certified (not just "
         "screened) untestability for denominator exclusions",),
    ),
    Experiment(
        "A2", "Ablation (design choice 2)",
        "Deterministic library test sets vs equal-count pseudorandom "
        "operands per component",
        "per-component campaigns with swapped operand tables",
        ("repro.core.testlib", "repro.core.campaign"),
        "benchmarks/bench_ablation_testlib.py",
    ),
)


def by_id(exp_id: str) -> Experiment:
    for exp in EXPERIMENTS:
        if exp.exp_id == exp_id:
            return exp
    raise KeyError(f"unknown experiment {exp_id!r}")
