"""Experiment E1 — fault-simulation engine cross-check and throughput.

The repository ships two engines behind :func:`repro.faultsim.grade` with
identical verdict semantics:

* **differential** — per fault, event-driven against stored good values,
  with dropping: the independent reference oracle;
* **packed** — fault classes packed into the lanes of one big-int word,
  graded through generated kernels: level kernels next to the good
  machine for combinational parts, one fan-out-cone kernel per batch
  against the good trace for sequential ones.  The fast path.

This bench grades the same components with the same traced stimulus and
observability through both, asserts fault-by-fault agreement (for the
sequential components GL and PCL, over the whole universe, including
the first detecting cycle and the witness lanes), checks that
cache-warm re-grades are bit-identical to cache-cold ones, and reports
throughput plus good-trace cache hit rates.  Agreement between engines
with disjoint implementations is strong evidence neither mis-simulates.

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_engines.py [--quick]`` —
  standalone; exit code 1 on any agreement or throughput failure.
  ``--quick`` (the CI gate) requires the packed engine to beat the
  differential engine cache-cold; the full run also requires the packed
  engine to be >= 3x the differential engine on every component at
  steady state (cache-warm — trace build and lowering are one-time costs the
  good-trace and program caches amortize away; the cache-cold time is
  still reported).
* via the tier-2 pytest-benchmark suite (full mode).
"""

import argparse
import sys
import time

from repro.core.campaign import trace_program
from repro.core.methodology import SelfTestMethodology
from repro.faultsim import GradeOptions, build_fault_list
from repro.faultsim.engine import grade
from repro.faultsim.lowering import clear_program_cache
from repro.faultsim.trace_cache import global_trace_cache
from repro.plasma.components import build_component

#: Components the gates run on: deep combinational cones and two
#: sequential parts that grade their whole universe in under a second.
GATE_COMPONENTS = ("ALU", "BSH", "GL", "PCL")

#: Full-mode throughput floor: packed (cache-warm) vs differential.
FULL_SPEEDUP_FLOOR = 3.0


def traced_specs():
    return trace_program(SelfTestMethodology().build_program("A"))[1]


def _verdicts(result, sequential):
    """Engine-invariant verdict map: rep -> (detected, excited), plus
    the first detecting cycle and the witness lanes when sequential (a
    single-lane stimulus has one witness)."""
    if sequential:
        return {
            rep: (det.detected, det.excited, det.cycle, det.lanes)
            for rep, det in result.detections.items()
        }
    return {
        rep: (det.detected, det.excited)
        for rep, det in result.detections.items()
    }


def _bench_component(name, patterns, observe, quick, lines, failures):
    netlist = build_component(name)
    fault_list = build_fault_list(netlist)
    n_faults = fault_list.n_collapsed
    cache = global_trace_cache()
    differential_opts = GradeOptions(
        engine="differential", observe=observe, name=name
    )
    packed_opts = differential_opts.replace(engine="packed")

    # Cold start: neither the good trace nor the compiled program cached.
    cache.clear()
    clear_program_cache()
    started = time.perf_counter()
    differential = grade(netlist, patterns, fault_list, differential_opts)
    diff_seconds = time.perf_counter() - started

    # Packed, cache-cold (trace + program compiled inside the timing).
    cache.clear()
    clear_program_cache()
    cache.reset_stats()
    started = time.perf_counter()
    cold = grade(netlist, patterns, fault_list, packed_opts)
    cold_seconds = time.perf_counter() - started
    cold_lookups = cache.stats.lookups
    cold_hits = cache.stats.hits

    # Packed, cache-warm: the good trace and program are reused.
    started = time.perf_counter()
    warm = grade(netlist, patterns, fault_list, packed_opts)
    warm_seconds = time.perf_counter() - started
    warm_hits = cache.stats.hits - cold_hits
    warm_lookups = cache.stats.lookups - cold_lookups
    hit_rate = warm_hits / warm_lookups if warm_lookups else 0.0

    diff_rate = n_faults / diff_seconds
    cold_rate = n_faults / cold_seconds
    warm_rate = n_faults / warm_seconds

    lines.append(
        f"{name}: {n_faults:,} fault classes, "
        f"{len(patterns):,} {'cycles' if netlist.dffs else 'patterns'}"
    )
    rows = [
        ("differential", differential.n_detected, diff_seconds, diff_rate),
        ("packed cold", cold.n_detected, cold_seconds, cold_rate),
        ("packed warm", warm.n_detected, warm_seconds, warm_rate),
    ]
    lines.append(
        f"  {'engine':>14s} {'graded':>7s} {'detected':>9s} "
        f"{'seconds':>8s} {'faults/s':>9s}"
    )
    for label, detected, seconds, rate in rows:
        lines.append(
            f"  {label:>14s} {n_faults:>7,} {detected:>9,} "
            f"{seconds:>8.2f} {rate:>9,.0f}"
        )
    lines.append(
        f"  trace cache: warm hit rate {hit_rate:.0%} "
        f"({warm_hits}/{warm_lookups} lookups), "
        f"packed speedup {diff_seconds / cold_seconds:.2f}x "
        f"(cold) / {diff_seconds / warm_seconds:.2f}x (warm) "
        f"vs differential"
    )

    # --- agreement gates -------------------------------------------------
    sequential = bool(netlist.dffs)
    want = _verdicts(differential, sequential)
    if _verdicts(cold, sequential) != want:
        failures.append(f"{name}: packed (cold) disagrees with differential")
    if (
        _verdicts(warm, sequential) != want
        or warm.detected != cold.detected
    ):
        failures.append(f"{name}: cache-warm grade differs from cache-cold")
    if cold.fault_coverage != differential.fault_coverage:
        failures.append(f"{name}: FC differs between engines")
    if warm_hits < 1:
        failures.append(f"{name}: warm re-grade did not hit the trace cache")

    # --- throughput gates ------------------------------------------------
    if cold_rate <= diff_rate:
        failures.append(
            f"{name}: packed ({cold_rate:,.0f} faults/s) is not faster "
            f"than the differential engine ({diff_rate:,.0f} faults/s)"
        )
    if not quick and diff_seconds / warm_seconds < FULL_SPEEDUP_FLOOR:
        failures.append(
            f"{name}: packed steady-state speedup "
            f"{diff_seconds / warm_seconds:.2f}x is below the "
            f"{FULL_SPEEDUP_FLOOR:.0f}x floor"
        )


def run_bench(quick: bool) -> tuple[str, list[str]]:
    """Grade the gate components through both engines.

    Returns:
        ``(report text, failure messages)`` — empty failures = pass.
    """
    specs = traced_specs()
    lines: list[str] = []
    failures: list[str] = []
    for name in GATE_COMPONENTS:
        patterns, observe = specs[name]
        _bench_component(name, patterns, observe, quick, lines, failures)
    return "\n".join(lines), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: skip the 3x steady-state floor",
    )
    args = parser.parse_args(argv)
    text, failures = run_bench(quick=args.quick)
    print(text)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_engine_agreement_and_throughput(benchmark):
    from conftest import write_result

    text, failures = benchmark.pedantic(
        lambda: run_bench(quick=False), rounds=1, iterations=1
    )
    write_result("engines_e1_crosscheck.txt", text)
    print("\n" + text)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    sys.exit(main())
