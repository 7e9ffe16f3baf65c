"""Experiment P1 — parallel sharded campaign scaling and equality.

Grades the deep combinational gate components (ALU + BSH) with their
phase-A traced stimulus at increasing worker counts and checks the two
acceptance properties of the parallel scheduler:

* **Equality (always gated)** — every worker count must merge to a
  result *bit-identical* to the serial run: detected sets, per-fault
  verdicts, proven sets and the rendered Table 5 rows.  Parallelism is
  an implementation detail; it must never change the science.
* **Speedup (gated on hardware)** — with >= 4 usable cores, 4 workers
  must reach >= 2.5x over the serial run.  On smaller machines (CI
  containers are often 1-2 cores) the speedup is still measured and
  reported, but the floor is skipped with an explicit note — a 1-core
  host cannot evidence parallel scaling either way.

The timing isolates the grading stage via
:func:`repro.core.campaign.grade_traced`: the CPU trace execution is
serial by nature and identical for every worker count, so including it
would only dilute the measured scaling.

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]`` —
  standalone; exit 1 on any gate failure.  ``--quick`` (the CI mode)
  grades at jobs = 1 and 2 only and gates equality alone.
* via the tier-2 pytest-benchmark suite (full mode).

Writes ``benchmarks/results/parallel_scaling.txt`` (human table, the
EXPERIMENTS.md artefact) and ``parallel_scaling.json`` (machine-readable,
published as a CI artifact).
"""

import argparse
import json
import os
import sys
import time

from repro.core.campaign import grade_traced, trace_program
from repro.core.methodology import SelfTestMethodology
from repro.reporting.tables import render_table5
from repro.runtime import RuntimeConfig

#: Deep combinational cones: the heaviest per-fault work, and the same
#: components the engine bench (E1) gates on.
GATE_COMPONENTS = ("ALU", "BSH")

#: Worker counts swept in full mode (quick mode stops at 2).
FULL_JOBS = (1, 2, 4, 8)
QUICK_JOBS = (1, 2)

#: Acceptance floor: 4 workers on >= 4 cores must beat 2.5x serial.
SPEEDUP_FLOOR = 2.5
SPEEDUP_AT_JOBS = 4


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _verdicts(outcome):
    """Engine- and schedule-invariant per-fault verdict maps."""
    return {
        name: {
            rep: (det.detected, det.cycle)
            for rep, det in result.detections.items()
        }
        for name, result in outcome.results.items()
    }


def run_bench(quick: bool) -> tuple[str, dict, list[str]]:
    """Sweep worker counts; gate equality (always) and speedup (on >= 4
    cores, full mode).

    Returns:
        ``(report text, JSON-safe payload, failure messages)``.
    """
    self_test = SelfTestMethodology().build_program("A")
    cpu_result, specs = trace_program(self_test)
    components = list(GATE_COMPONENTS)

    cores = usable_cores()
    job_counts = QUICK_JOBS if quick else FULL_JOBS
    lines: list[str] = []
    failures: list[str] = []

    outcomes = {}
    seconds = {}
    for jobs in job_counts:
        started = time.perf_counter()
        outcomes[jobs] = grade_traced(
            self_test, cpu_result, specs, components=components,
            runtime=RuntimeConfig(jobs=jobs) if jobs > 1 else None,
        )
        seconds[jobs] = time.perf_counter() - started

    serial = outcomes[job_counts[0]]
    total_faults = sum(r.n_faults for r in serial.results.values())
    lines.append(
        f"parallel scaling: {'+'.join(components)}, "
        f"{total_faults:,} fault classes, {cores} usable core(s)"
    )
    lines.append(
        f"  {'jobs':>4s} {'seconds':>8s} {'speedup':>8s} {'faults/s':>9s}"
    )
    rows = []
    for jobs in job_counts:
        speedup = seconds[job_counts[0]] / seconds[jobs]
        rate = total_faults / seconds[jobs]
        rows.append(
            {
                "jobs": jobs,
                "seconds": round(seconds[jobs], 3),
                "speedup": round(speedup, 3),
                "faults_per_second": round(rate),
            }
        )
        lines.append(
            f"  {jobs:>4d} {seconds[jobs]:>8.2f} {speedup:>7.2f}x "
            f"{rate:>9,.0f}"
        )

    # --- equality gate (always) -----------------------------------------
    want_table = render_table5({"A": serial})
    want_verdicts = _verdicts(serial)
    for jobs in job_counts[1:]:
        outcome = outcomes[jobs]
        if outcome.degraded:
            failures.append(
                f"jobs={jobs}: degraded components "
                f"{outcome.degraded_components}"
            )
        if render_table5({"A": outcome}) != want_table:
            failures.append(f"jobs={jobs}: Table 5 differs from serial")
        for name in components:
            a = serial.results[name]
            b = outcome.results[name]
            if a.detected != b.detected or a.proven != b.proven:
                failures.append(
                    f"jobs={jobs}: {name} detected/proven sets differ"
                )
        if _verdicts(outcome) != want_verdicts:
            failures.append(
                f"jobs={jobs}: per-fault verdicts differ from serial"
            )
    equality_ok = not failures
    lines.append(
        "  equality: merged results bit-identical to serial at every "
        "worker count" if equality_ok
        else "  equality: FAILED (see gate failures)"
    )

    # --- speedup gate (hardware-conditional) ----------------------------
    speedup_gated = (
        not quick and cores >= SPEEDUP_AT_JOBS
        and SPEEDUP_AT_JOBS in seconds
    )
    measured = (
        seconds[job_counts[0]] / seconds[SPEEDUP_AT_JOBS]
        if SPEEDUP_AT_JOBS in seconds else None
    )
    if speedup_gated:
        if measured < SPEEDUP_FLOOR:
            failures.append(
                f"speedup at {SPEEDUP_AT_JOBS} workers is {measured:.2f}x, "
                f"below the {SPEEDUP_FLOOR}x floor on {cores} cores"
            )
        else:
            lines.append(
                f"  speedup gate: {measured:.2f}x at {SPEEDUP_AT_JOBS} "
                f"workers (floor {SPEEDUP_FLOOR}x) — PASS"
            )
    else:
        reason = (
            "quick mode" if quick
            else f"only {cores} usable core(s), need >= {SPEEDUP_AT_JOBS}"
        )
        lines.append(
            f"  speedup gate: SKIPPED ({reason}); measured values "
            f"reported above are still archived"
        )

    payload = {
        "experiment": "P1",
        "components": components,
        "fault_classes": total_faults,
        "usable_cores": cores,
        "quick": quick,
        "rows": rows,
        "equality_ok": equality_ok,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_gate_enforced": speedup_gated,
        "speedup_at_4": measured,
    }
    return "\n".join(lines), payload, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: jobs 1 and 2 only, equality gate only",
    )
    args = parser.parse_args(argv)
    text, payload, failures = run_bench(quick=args.quick)
    print(text)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import write_result

    write_result("parallel_scaling.txt", text)
    write_result("parallel_scaling.json", json.dumps(payload, indent=2))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_parallel_scaling_and_equality(benchmark):
    from conftest import write_result

    text, payload, failures = benchmark.pedantic(
        lambda: run_bench(quick=False), rounds=1, iterations=1
    )
    write_result("parallel_scaling.txt", text)
    write_result("parallel_scaling.json", json.dumps(payload, indent=2))
    print("\n" + text)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    sys.exit(main())
