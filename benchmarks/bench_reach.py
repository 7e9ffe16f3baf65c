"""Gate G2 — program-aware reach analysis: yield and soundness.

The reach analysis (:mod:`repro.analysis.reach`, ``repro analyze
reach``) proves fault classes a self-test program never exercises.
Grading does not consult it; this bench checks that the proofs are
worth reading and never contradicted.  It builds each gate component's
report from the phase-A program, grades the same traced stimulus on
the campaign-default configuration (structural collapsing on, ``auto``
engine) and enforces two hard gates:

* **yield** — across the benched components, at least
  :data:`MIN_YIELD_COMPONENTS` must have >= :data:`MIN_YIELD_RATIO` of
  their *post-collapse* fault universe proven unexercised (a collapsed
  super-class counts when every member is proven).  The analysis
  earning its keep on real components is part of the reproduction
  claim, not a nice-to-have;
* **soundness** — every proven class must be graded undetected *and*
  unexcited.  A proven class the grade excites means the abstract
  interpretation missed a stimulus the program really applies.

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_reach.py [--quick]`` —
  standalone; exit 1 on a gate failure.  ``--quick`` (the CI gate)
  restricts to the fast components.
* via the tier-2 pytest-benchmark suite (full mode).

A JSON artifact with the per-component measurements lands in
``benchmarks/results/reach_gate.json`` for trend tracking.
"""

import argparse
import json
import sys
import time

from repro.analysis.absint import interpret_program
from repro.analysis.collapse import compute_collapse
from repro.analysis.reach import build_reach_report, derive_patterns
from repro.core.campaign import trace_program
from repro.core.methodology import SelfTestMethodology
from repro.faultsim import GradeOptions, build_fault_list, grade
from repro.plasma.components import build_component

#: Hard gate: this many components must clear :data:`MIN_YIELD_RATIO`.
MIN_YIELD_COMPONENTS = 2

#: Hard gate: fraction of the post-collapse universe proven unexercised.
MIN_YIELD_RATIO = 0.05

#: Quick mode: fast components where the analysis demonstrably proves.
QUICK_COMPONENTS = ("CTRL", "GL", "PCL")

#: Full mode adds the remaining fast-enough components (RegF and MulD
#: grade for minutes and the phase-A program exercises both end to end —
#: reported by ``repro analyze reach``, not re-graded here).
FULL_COMPONENTS = (
    "ALU", "BSH", "CTRL", "BMUX", "GL", "PCL", "PLN", "MCTRL"
)


def traced_program_and_specs():
    self_test = SelfTestMethodology().build_program("A")
    return self_test.program, trace_program(self_test)[1]


def _bench_component(name, patterns, stimulus, observe, lines, failures,
                     records):
    netlist = build_component(name)
    fault_list = build_fault_list(netlist)
    cmap = compute_collapse(netlist, fault_list)

    started = time.perf_counter()
    report = build_reach_report(
        netlist, fault_list, patterns[name], component=name
    )
    report_seconds = time.perf_counter() - started
    started = time.perf_counter()
    result = grade(netlist, stimulus, fault_list,
                   GradeOptions(observe=observe, name=name, collapse=cmap))
    grade_seconds = time.perf_counter() - started

    supers = cmap.simulation_order()
    proven_supers = sum(
        1 for s in supers
        if all(m in report.proven for m in cmap.members(s))
    )
    yield_ratio = proven_supers / len(supers) if supers else 0.0

    unsound = sorted(
        rep for rep in report.proven
        if rep in result.detected or result.detections[rep].excited
    )
    if unsound:
        failures.append(
            f"{name}: {len(unsound)} proven-unexercised class(es) are "
            f"excited or detected by the grade (first: {unsound[0]})"
        )
    records.append({
        "component": name,
        "n_classes": fault_list.n_collapsed,
        "n_supers": len(supers),
        "n_proven": report.n_proven,
        "n_proven_supers": proven_supers,
        "post_collapse_yield": round(yield_ratio, 4),
        "n_unsound": len(unsound),
        "report_seconds": round(report_seconds, 4),
        "grade_seconds": round(grade_seconds, 4),
        "degraded": report.degraded,
        "reach_hash": report.reach_hash,
    })
    lines.append(
        f"{name:6s} {fault_list.n_collapsed:7,} classes, "
        f"{report.n_proven:5,} proven ({proven_supers:,} of "
        f"{len(supers):,} supers, {100 * yield_ratio:4.1f}%)  "
        f"report {report_seconds:5.2f}s  "
        f"{'SOUND' if not unsound else 'UNSOUND'}"
    )
    return yield_ratio


def run_bench(quick: bool) -> tuple[str, list[str], list[dict]]:
    """Analyze and grade the gate components, check yield and soundness.

    Returns:
        ``(report text, gate failures, per-component records)``.
    """
    components = QUICK_COMPONENTS if quick else FULL_COMPONENTS
    program, specs = traced_program_and_specs()
    patterns = derive_patterns(interpret_program(program))
    lines: list[str] = []
    failures: list[str] = []
    records: list[dict] = []
    yielding = 0
    for name in components:
        stimulus, observe = specs[name]
        ratio = _bench_component(
            name, patterns, stimulus, observe, lines, failures, records,
        )
        if ratio >= MIN_YIELD_RATIO:
            yielding += 1
    if yielding < MIN_YIELD_COMPONENTS:
        failures.append(
            f"yield: only {yielding} component(s) have >= "
            f"{100 * MIN_YIELD_RATIO:.0f}% of their post-collapse universe "
            f"proven unexercised (need {MIN_YIELD_COMPONENTS})"
        )
    lines.append(
        f"{yielding}/{len(records)} component(s) clear the "
        f"{100 * MIN_YIELD_RATIO:.0f}% yield bar; "
        f"{len(failures)} gate failure(s)"
    )
    return "\n".join(lines), failures, records


def _write_artifact(quick, records, failures) -> str:
    import os

    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "reach_gate.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "bench": "reach_gate",
                "quick": quick,
                "min_yield_components": MIN_YIELD_COMPONENTS,
                "min_yield_ratio": MIN_YIELD_RATIO,
                "components": records,
                "failures": failures,
                "ok": not failures,
            },
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: fast components only",
    )
    args = parser.parse_args(argv)
    text, failures, records = run_bench(quick=args.quick)
    print(text)
    print(f"artifact: {_write_artifact(args.quick, records, failures)}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_reach_gate(benchmark):
    from conftest import write_result

    text, failures, records = benchmark.pedantic(
        lambda: run_bench(quick=False), rounds=1, iterations=1
    )
    write_result("reach_gate.txt", text)
    _write_artifact(False, records, failures)
    print("\n" + text)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    sys.exit(main())
