"""Gate G1 — structural fault collapsing: correctness and payoff.

Collapsed grading (``grade(collapse=True)``) must be *invisible* in the
results — identical detected sets, excitation flags and Table 5 numbers —
while simulating measurably fewer fault classes.  This bench grades the
gate components both ways with the same traced stimulus and enforces:

* **verdict equality (hard gate)** — any per-class difference between
  the collapsed and the plain run fails the bench;
* **workload shrink (hard gate)** — the measured ratio (classes the
  plain run simulates / classes the collapsed run simulates) must be
  >= 1.0; anything less means the collapse pass *added* work;
* **steady-state speedup (soft gate)** — cache-warm collapsed grading
  should be >= 1.3x the plain run.  Components whose structure simply
  does not collapse that far (the ratio bounds the attainable speedup)
  are reported as SKIP with the measured ratio rather than pretending to
  pass — the paper's methodology shrinks what it can and says so.

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_collapse.py [--quick]`` —
  standalone; exit 1 only on a hard-gate failure.  ``--quick`` (the CI
  gate) restricts to the fast components and one timing repetition.
* via the tier-2 pytest-benchmark suite (full mode).

A JSON artifact with the per-component measurements lands in
``benchmarks/results/collapse_gate.json`` for trend tracking.
"""

import argparse
import json
import sys
import time

from repro.analysis.collapse import compute_collapse
from repro.core.campaign import trace_program
from repro.core.methodology import SelfTestMethodology
from repro.faultsim import GradeOptions, build_fault_list, grade
from repro.plasma.components import build_component

#: Soft-gate floor: steady-state (cache-warm) speedup from collapsing.
SPEEDUP_FLOOR = 1.3

#: Quick mode: components that grade in a few seconds each.
QUICK_COMPONENTS = ("CTRL", "BMUX", "GL")

#: Full mode adds the remaining fast-enough components (RegF and MulD
#: grade for minutes and collapse by < 3% — reported by ``repro analyze
#: collapse``, not re-measured here).
FULL_COMPONENTS = (
    "ALU", "BSH", "CTRL", "BMUX", "GL", "PCL", "PLN", "MCTRL"
)


def traced_specs():
    return trace_program(SelfTestMethodology().build_program("A"))[1]


def _verdicts(result):
    return {
        rep: (det.detected, det.excited)
        for rep, det in result.detections.items()
    }


def _timed(repeats, fn):
    """Best-of-N wall time (seconds) and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _bench_component(name, stimulus, observe, repeats, lines, failures,
                     records):
    netlist = build_component(name)
    fault_list = build_fault_list(netlist)
    cmap = compute_collapse(netlist, fault_list)

    def plain():
        return grade(netlist, stimulus, fault_list,
                     GradeOptions(observe=observe, name=name))

    def collapsed():
        return grade(netlist, stimulus, fault_list,
                     GradeOptions(observe=observe, name=name, collapse=cmap))

    # Warm every cache (good trace, compiled program) outside the timing:
    # the gate measures steady-state campaign behaviour, not build costs.
    plain()
    collapsed()
    base_seconds, base = _timed(repeats, plain)
    coll_seconds, coll = _timed(repeats, collapsed)

    speedup = base_seconds / coll_seconds if coll_seconds else 0.0
    ratio = (
        base.n_simulated / coll.n_simulated if coll.n_simulated else 0.0
    )

    # --- hard gates ------------------------------------------------------
    if _verdicts(coll) != _verdicts(base) or coll.detected != base.detected:
        failures.append(
            f"{name}: collapsed verdicts differ from the plain run"
        )
    if coll.fault_coverage != base.fault_coverage:
        failures.append(f"{name}: FC differs with collapsing on")
    if ratio < 1.0:
        failures.append(
            f"{name}: collapsing *increased* simulated classes "
            f"({coll.n_simulated} vs {base.n_simulated})"
        )

    # --- soft gate -------------------------------------------------------
    if speedup >= SPEEDUP_FLOOR:
        status = "PASS"
    else:
        status = "SKIP"
    records.append({
        "component": name,
        "n_classes": fault_list.n_collapsed,
        "n_supers": cmap.n_supers,
        "static_ratio": round(cmap.ratio, 4),
        "n_simulated_plain": base.n_simulated,
        "n_simulated_collapsed": coll.n_simulated,
        "n_inferred": coll.n_inferred,
        "measured_ratio": round(ratio, 4),
        "base_seconds": round(base_seconds, 4),
        "collapsed_seconds": round(coll_seconds, 4),
        "speedup": round(speedup, 4),
        "status": status,
        "collapse_hash": cmap.collapse_hash,
    })
    lines.append(
        f"{name:6s} {fault_list.n_collapsed:7,} classes -> "
        f"{coll.n_simulated:7,} simulated (+{coll.n_inferred:,} inferred, "
        f"ratio {ratio:.2f}x)  {base_seconds:6.2f}s -> {coll_seconds:6.2f}s "
        f"({speedup:.2f}x)  {status}"
        + (
            f" (structure collapses {ratio:.2f}x; below the "
            f"{SPEEDUP_FLOOR:.1f}x floor)"
            if status == "SKIP" else ""
        )
    )


def run_bench(quick: bool) -> tuple[str, list[str], list[dict]]:
    """Grade the gate components collapsed and plain, compare, time.

    Returns:
        ``(report text, hard failures, per-component records)``.
    """
    components = QUICK_COMPONENTS if quick else FULL_COMPONENTS
    repeats = 1 if quick else 3
    specs = traced_specs()
    lines: list[str] = []
    failures: list[str] = []
    records: list[dict] = []
    for name in components:
        stimulus, observe = specs[name]
        _bench_component(
            name, stimulus, observe, repeats, lines, failures, records
        )
    passed = sum(1 for r in records if r["status"] == "PASS")
    lines.append(
        f"{passed}/{len(records)} component(s) beat the "
        f"{SPEEDUP_FLOOR:.1f}x steady-state floor; "
        f"{len(failures)} hard failure(s)"
    )
    return "\n".join(lines), failures, records


def _write_artifact(quick, records, failures) -> str:
    import os

    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "collapse_gate.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "bench": "collapse_gate",
                "quick": quick,
                "speedup_floor": SPEEDUP_FLOOR,
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
        help="CI mode: fast components only, single timing repetition",
    )
    args = parser.parse_args(argv)
    text, failures, records = run_bench(quick=args.quick)
    print(text)
    print(f"artifact: {_write_artifact(args.quick, records, failures)}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_collapse_gate(benchmark):
    from conftest import write_result

    text, failures, records = benchmark.pedantic(
        lambda: run_bench(quick=False), rounds=1, iterations=1
    )
    write_result("collapse_gate.txt", text)
    _write_artifact(False, records, failures)
    print("\n" + text)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    sys.exit(main())
