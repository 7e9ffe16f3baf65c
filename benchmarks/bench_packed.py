"""Gate G2 — packed fault-parallel grading and the persistent store.

The ``packed`` engine rides up to ``lanes - 1`` fault classes per big-int
word next to the good machine; the persistent :class:`TraceStore` makes
repeat campaigns incremental.  Neither is allowed to change a single
verdict.  This bench grades real traced components and enforces:

* **verdict equality (hard gate)** — packed verdicts, excitation flags
  and Table 5 rows must be bit-identical to the differential reference
  engine, with collapse on and off, and a lane-aligned sharded merge
  must reproduce the serial run exactly;
* **warm-store replay (hard gate)** — an unchanged repeat campaign
  against a persistent cache directory must replay every component from
  the store (zero re-simulated classes) with every class's detected
  flag, excitation flag and first detecting cycle unchanged; each
  component's lone replay time goes into the artifact;
* **steady-state throughput (soft gate)** — cache-warm packed grading
  should be >= 4x the differential engine.  The deep combinational
  cones (ALU, BSH) clear it; on shallow or sequential components the
  differential engine's per-fault early exits keep it close to (or
  ahead of) packed, which is why ``engine="auto"`` picks it there.
  Components below the floor are reported as SKIP with the measured
  speedup rather than pretending to pass.

Runs two ways:

* ``PYTHONPATH=src python benchmarks/bench_packed.py [--quick]`` —
  standalone; exit 1 only on a hard-gate failure.  ``--quick`` (the CI
  gate) restricts to the fast components and one timing repetition.
* via the tier-2 pytest-benchmark suite (full mode).

A JSON artifact with the per-component measurements lands in
``benchmarks/results/packed_gate.json`` for trend tracking.
"""

import argparse
import json
import sys
import tempfile
import time

from repro.core.campaign import (
    grade_component,
    run_campaign,
    trace_program,
)
from repro.faultsim import GradeOptions, TraceStore, build_fault_list, grade
from repro.core.methodology import SelfTestMethodology
from repro.plasma.components import build_component, component
from repro.runtime.sharding import plan_shards

#: Soft-gate floor: steady-state packed-vs-differential speedup.  See
#: the module docstring — misses report SKIP with the measured number.
THROUGHPUT_FLOOR = 4.0

#: Lane groups per word for every packed run in this bench.
LANES = 64

#: Quick mode: components that grade in a few seconds each.
QUICK_COMPONENTS = ("CTRL", "BSH")

#: Full mode: the deep combinational cones (where packing pays) plus
#: shallow and sequential components (where parity is the claim).
FULL_COMPONENTS = ("ALU", "BSH", "CTRL", "BMUX", "PLN", "MCTRL")

#: Warm-store campaign subset (kept small — the gate is about replay
#: semantics, not breadth).
STORE_COMPONENTS = ("CTRL", "BSH")


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

    def differential():
        return grade(netlist, stimulus, fault_list,
                     GradeOptions(engine="differential", observe=observe,
                                  name=name))

    def packed():
        return grade(netlist, stimulus, fault_list,
                     GradeOptions(engine="packed", observe=observe,
                                  name=name, lanes=LANES))

    def packed_collapsed():
        return grade(netlist, stimulus, fault_list,
                     GradeOptions(engine="packed", observe=observe,
                                  name=name, lanes=LANES, collapse=True))

    # Warm every cache (good trace, compiled kernels) outside the
    # timing: the gate measures steady-state campaign behaviour.
    differential()
    packed()
    base_seconds, base = _timed(repeats, differential)
    pack_seconds, pack = _timed(repeats, packed)
    coll = packed_collapsed()

    # --- hard gate: packed == differential, fault by fault --------------
    if _verdicts(pack) != _verdicts(base) or pack.detected != base.detected:
        failures.append(f"{name}: packed verdicts differ from differential")
    if pack.to_component_coverage() != base.to_component_coverage():
        failures.append(
            f"{name}: packed Table 5 row differs from differential"
        )

    # --- hard gate: packed collapse on == off ---------------------------
    if coll.detected != base.detected:
        failures.append(f"{name}: packed+collapse changes the detected set")
    if coll.fault_coverage != base.fault_coverage:
        failures.append(f"{name}: packed+collapse changes FC")

    # --- hard gate: lane-aligned sharded merge == serial ----------------
    reps = fault_list.class_representatives()
    shards = plan_shards(len(reps), jobs=3, min_shard_size=16,
                         lane_align=LANES - 1)
    merged = set()
    for lo, hi in shards:
        merged |= grade(
            netlist, stimulus, fault_list,
            GradeOptions(engine="packed", observe=observe, name=name,
                         lanes=LANES, subset=reps[lo:hi]),
        ).detected
    if merged != base.detected:
        failures.append(
            f"{name}: sharded packed merge differs from the serial run"
        )

    # --- soft gate: steady-state throughput -----------------------------
    speedup = base_seconds / pack_seconds if pack_seconds else 0.0
    status = "PASS" if speedup >= THROUGHPUT_FLOOR else "SKIP"
    records.append({
        "component": name,
        "n_classes": fault_list.n_collapsed,
        "n_patterns": len(stimulus),
        "lanes": LANES,
        "n_shards": len(shards),
        "differential_seconds": round(base_seconds, 4),
        "packed_seconds": round(pack_seconds, 4),
        "speedup": round(speedup, 4),
        "status": status,
    })
    lines.append(
        f"{name:6s} {fault_list.n_collapsed:7,} classes, "
        f"{len(stimulus):6,} entries  {base_seconds:6.2f}s -> "
        f"{pack_seconds:6.2f}s ({speedup:.2f}x)  {status}"
        + (
            f" (below the {THROUGHPUT_FLOOR:.0f}x floor)"
            if status == "SKIP" else ""
        )
    )


def _full_verdicts(result):
    """Per class: detected, excited and first detecting cycle."""
    return {
        rep: (det.detected, det.excited, det.cycle)
        for rep, det in result.detections.items()
    }


def _bench_store(specs, lines, failures, records):
    """Warm-store hard gate: an unchanged repeat campaign replays fully,
    every class's verdict included."""
    with tempfile.TemporaryDirectory() as cache_dir:
        opts = GradeOptions(cache=TraceStore(cache_dir), collapse=True)
        components = list(STORE_COMPONENTS)
        started = time.perf_counter()
        cold = run_campaign("A", components=components, options=opts)
        cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        warm = run_campaign("A", components=components, options=opts)
        warm_seconds = time.perf_counter() - started
        # One component's replay alone: the key, the record read and
        # the decode (the netlist is built outside the timer).
        replay_seconds = {}
        for name in components:
            stimulus, observe = specs[name]
            netlist = build_component(name)
            started = time.perf_counter()
            replayed = grade_component(
                component(name), stimulus, observe, netlist=netlist,
                options=opts,
            )
            replay_seconds[name] = round(time.perf_counter() - started, 4)
            if not replayed.cache_hit:
                failures.append(f"store: {name} missed on a lone replay")

    replayed = sorted(warm.cached_components)
    resimulated = sum(r.n_simulated for r in warm.results.values())
    if replayed != sorted(components):
        failures.append(
            f"store: warm campaign replayed {replayed}, "
            f"expected all of {sorted(components)}"
        )
    if resimulated:
        failures.append(
            f"store: warm campaign re-simulated {resimulated} classes "
            "(must be 0)"
        )
    for name in components:
        if _full_verdicts(warm.results[name]) != _full_verdicts(
            cold.results[name]
        ):
            failures.append(
                f"store: {name} verdicts (detected, excited or first "
                "cycle) differ after replay"
            )
    if warm.summary.overall_coverage != cold.summary.overall_coverage:
        failures.append("store: overall coverage differs after replay")
    records.append({
        "component": "persistent-store",
        "campaign_components": components,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "replay_seconds": replay_seconds,
        "replayed": replayed,
        "resimulated_classes": resimulated,
        "status": "PASS" if replayed == sorted(components) else "FAIL",
    })
    lines.append(
        f"store  warm replay {len(replayed)}/{len(components)} components, "
        f"{resimulated} classes re-simulated  {cold_seconds:6.2f}s -> "
        f"{warm_seconds:6.2f}s; per component "
        + ", ".join(f"{n} {t * 1000:.0f} ms" for n, t in replay_seconds.items())
    )


def run_bench(quick: bool) -> tuple[str, list[str], list[dict]]:
    """Grade components packed vs differential, check the store, time both.

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
    _bench_store(specs, lines, failures, records)
    timed = [r for r in records if "speedup" in r]
    passed = sum(1 for r in timed if r["status"] == "PASS")
    lines.append(
        f"{passed}/{len(timed)} component(s) at or above the "
        f"{THROUGHPUT_FLOOR:.0f}x throughput floor; "
        f"{len(failures)} hard failure(s)"
    )
    return "\n".join(lines), failures, records


def _write_artifact(quick, records, failures) -> str:
    import os

    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "packed_gate.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "bench": "packed_gate",
                "quick": quick,
                "throughput_floor": THROUGHPUT_FLOOR,
                "lanes": LANES,
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


def test_packed_gate(benchmark):
    from conftest import write_result

    text, failures, records = benchmark.pedantic(
        lambda: run_bench(quick=False), rounds=1, iterations=1
    )
    write_result("packed_gate.txt", text)
    _write_artifact(False, records, failures)
    print("\n" + text)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    sys.exit(main())
