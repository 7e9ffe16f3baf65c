"""One grading process of the reference-campaign benchmark.

``run.py`` starts this script in a fresh interpreter for every campaign:
the good-trace cache and the compiled-program cache are process-wide,
and a CLI user pays to build them on every run.  The script prints one
JSON object on its standard output.

Usage::

    python3 perfbench/child.py setup [STORE]    # imports only
    python3 perfbench/child.py cold [--traced]  # sampled phase-A campaign
    python3 perfbench/child.py warm STORE [--traced]
    python3 perfbench/child.py fill STORE       # full campaign into STORE

``cold`` and the traced ``warm`` call each layer's public functions in
the order ``grade_traced`` uses them; ``--traced`` records a span around
every call.  The only benchmark code inside the cold campaign is the
choice of the sample, and its time is left out of ``campaign_s``.  The
untraced ``warm`` and ``fill`` modes call ``run_campaign`` exactly as
``python -m repro campaign --cache-dir`` does.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.analysis.collapse import compute_collapse  # noqa: E402
from repro.core.campaign import execute_self_test, run_campaign  # noqa: E402
from repro.core.methodology import SelfTestMethodology  # noqa: E402
from repro.faultsim.engine import grade  # noqa: E402
from repro.faultsim.faults import build_fault_list  # noqa: E402
from repro.faultsim.options import GradeOptions  # noqa: E402
from repro.faultsim.store import TraceStore, verdicts_payload  # noqa: E402
from repro.faultsim.trace_cache import (  # noqa: E402
    global_trace_cache,
    good_trace_for,
)
from repro.netlist.stats import gate_count  # noqa: E402
from repro.plasma.components import COMPONENTS  # noqa: E402

from golden import fingerprint, sample_members  # noqa: E402

#: When the imports were done (``time.time()``): the end of this
#: process's set-up.
READY = time.time()


class BenchError(Exception):
    """The traced run broke one of its own consistency rules."""


class Spans:
    """Span durations keyed by ``(stage, component)``; inert when off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.seconds: dict[tuple[str, str], float] = {}

    @contextmanager
    def span(self, stage: str, component: str = "") -> Iterator[None]:
        if not self.enabled:
            yield
            return
        key = (stage, component)
        if key in self.seconds:
            raise BenchError(f"stage {stage} ran twice for {component!r}")
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[key] = time.perf_counter() - started

    def total(self, stage: str) -> float:
        return sum(s for (name, _), s in self.seconds.items() if name == stage)


def _trace_program(spans: Spans) -> tuple[Any, Any, dict]:
    with spans.span("methodology"):
        self_test = SelfTestMethodology().build_program("A")
    with spans.span("plasma.execute"):
        cpu_result, tracer, _ = execute_self_test(self_test)
    with spans.span("plasma.finalize"):
        specs = tracer.finalize()
    return self_test, cpu_result, specs


def _build(spans: Spans, info: Any) -> tuple[Any, Any, Any]:
    with spans.span("netlist", info.name):
        netlist = info.builder()
        gate_count(netlist)  # the campaign's Table 5 area figure
    with spans.span("faults", info.name):
        fault_list = build_fault_list(netlist)
    with spans.span("collapse", info.name):
        cmap = compute_collapse(netlist, fault_list)
    return netlist, fault_list, cmap


def cold_campaign(spans: Spans) -> tuple[dict, dict]:
    """The sampled phase-A campaign; returns (results, per-component state)."""
    self_test, cpu_result, specs = _trace_program(spans)
    cache = global_trace_cache()
    results: dict[str, tuple[Any, list[int]]] = {}
    state: dict[str, Any] = {"self_test": self_test, "cpu": cpu_result,
                             "specs": specs, "netlists": {}, "sample_s": 0.0}
    for info in COMPONENTS:
        netlist, fault_list, cmap = _build(spans, info)
        stimulus, observe = specs[info.name]
        started = time.perf_counter()
        members = sample_members(cmap)
        state["sample_s"] += time.perf_counter() - started
        with spans.span("goodtrace", info.name):
            good_trace_for(netlist, stimulus, packed=not netlist.dffs)
        misses = cache.stats.misses
        with spans.span("engine", info.name):
            result = grade(netlist, stimulus, options=GradeOptions(
                collapse=cmap, observe=observe, name=info.name,
                subset=members,
            ))
        if spans.enabled and cache.stats.misses != misses:
            raise BenchError(f"{info.name}: the engine span rebuilt the "
                             "good trace")
        results[info.name] = (result, members)
        state["netlists"][info.name] = (netlist, fault_list)
    return results, state


def warm_traced(spans: Spans, store: TraceStore) -> tuple[dict, dict]:
    """The full phase-A campaign, layer by layer, against a filled store."""
    self_test, cpu_result, specs = _trace_program(spans)
    results: dict[str, tuple[Any, None]] = {}
    for info in COMPONENTS:
        netlist, _, cmap = _build(spans, info)
        stimulus, observe = specs[info.name]
        with spans.span("store.load", info.name):
            result = grade(netlist, stimulus, options=GradeOptions(
                collapse=cmap, observe=observe, name=info.name, cache=store,
            ))
        results[info.name] = (result, None)
    return results, {"self_test": self_test, "cpu": cpu_result,
                     "specs": specs}


def _input_properties(specs: dict) -> dict[str, int]:
    """Distinct input vectors and change-points per sequential stimulus."""
    props = {}
    for info in COMPONENTS:
        if not info.sequential:
            continue
        vectors = [tuple(sorted(c.items())) for c in specs[info.name][0]]
        props[f"plasma.distinct_vectors.{info.name}"] = len(set(vectors))
        props[f"plasma.change_points.{info.name}"] = sum(
            1 for a, b in zip(vectors, vectors[1:]) if a != b
        )
    return props


def _reach(spans: Spans, state: dict) -> dict[str, float]:
    """Cost the reach screen (off by default, so outside the total)."""
    from repro.analysis.absint import interpret_program
    from repro.analysis.reach import build_reach_report, derive_patterns

    with spans.span("reach.interpret"):
        abstraction = interpret_program(state["self_test"].program)
        patterns = derive_patterns(abstraction)
    out: dict[str, float] = {}
    for info in COMPONENTS:
        netlist, fault_list = state["netlists"][info.name]
        proven = 0
        with spans.span("reach.report", info.name):
            if info.name in patterns:
                report = build_reach_report(
                    netlist, fault_list, patterns[info.name],
                    component=info.name, program_digest=abstraction.digest,
                )
                proven = len(report.proven)
        out[f"reach.unexercised.{info.name}"] = proven
    out["reach.interpret_s"] = spans.total("reach.interpret")
    out["reach.report_s"] = spans.total("reach.report")
    return out


def _store_layers(store: TraceStore, results: dict) -> dict[str, float]:
    """Store counters, its size, and the cost of saving the verdicts."""
    root = Path(store.root)
    layers: dict[str, float] = {
        "store.verdict_hits": store.stats.verdict_hits,
        "store.verdict_misses": store.stats.verdict_misses,
        "store.bytes": sum(
            p.stat().st_size for p in root.rglob("*.rec") if p.is_file()
        ),
    }
    scratch = TraceStore(root.parent / f"{root.name}-save")
    payloads = [verdicts_payload(r) for r, _ in results.values()]
    started = time.perf_counter()
    for (name, _), payload in zip(results.items(), payloads):
        scratch.save_verdicts(f"{name}-bench", payload)
    layers["store.save_s"] = time.perf_counter() - started
    return layers


#: Per-component span stage -> per-layer metric prefix.
_PER_COMPONENT = {
    "engine": "engine.grade_s",
    "goodtrace": "goodtrace.build_s",
    "collapse": "collapse.build_s",
    "store.load": "store.load_s",
}


def _layers(spans: Spans, results: dict, state: dict) -> dict[str, float]:
    layers: dict[str, float] = {
        "methodology.build_s": spans.total("methodology"),
        "plasma.execute_s": spans.total("plasma.execute"),
        "plasma.finalize_s": spans.total("plasma.finalize"),
        "plasma.cycles": state["cpu"].cycles,
        "netlist.build_s": spans.total("netlist"),
        "faults.build_s": spans.total("faults"),
    }
    for (stage, comp), seconds in spans.seconds.items():
        if stage in _PER_COMPONENT:
            layers[f"{_PER_COMPONENT[stage]}.{comp}"] = seconds
    for name, (result, _) in results.items():
        layers[f"faults.classes.{name}"] = result.n_faults
    stats = global_trace_cache().stats
    layers["goodtrace.hits"] = stats.hits
    layers["goodtrace.misses"] = stats.misses
    layers.update(_input_properties(state["specs"]))
    return layers


def _report(results: dict, cpu_result: Any, elapsed: float) -> dict:
    return {
        "ready": READY,
        "campaign_s": elapsed,
        "prints": {n: fingerprint(r, m) for n, (r, m) in results.items()},
        "store_hits": sum(1 for r, _ in results.values() if r.cache_hit),
        "collapse": {n: [r.n_simulated, r.n_inferred]
                     for n, (r, _) in results.items()},
        "cycles": cpu_result.cycles,
    }


def main(argv: list[str]) -> dict:
    mode = argv[0] if argv else ""
    traced = "--traced" in argv
    if mode == "setup":
        return {"ready": READY}
    spans = Spans(traced)
    store = TraceStore(argv[1]) if mode in ("warm", "fill") else None
    stamp = time.time()
    started = time.perf_counter()
    if mode == "cold":
        results, state = cold_campaign(spans)
    elif store is not None and traced:
        results, state = warm_traced(spans, store)
    elif store is not None:
        outcome = run_campaign("A", options=GradeOptions(
            collapse=True, cache=store,
        ))
        results = {n: (r, None) for n, r in outcome.results.items()}
        state = {"cpu": outcome.cpu_result}
    else:
        raise SystemExit(__doc__)
    elapsed = time.perf_counter() - started - state.get("sample_s", 0.0)
    report = _report(results, state["cpu"], elapsed)
    report["span"] = [stamp, time.time()]
    if traced:
        layers = _layers(spans, results, state)
        layers["trace.accounted_s"] = sum(spans.seconds.values())
        if store is None:
            layers.update(_reach(spans, state))
        else:
            layers.update(_store_layers(store, results))
        report["layers"] = layers
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])), flush=True)
