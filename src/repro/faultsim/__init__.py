"""Single-stuck-at fault simulation.

The package mirrors what a commercial tool (the paper used Mentor FlexTest)
does for fault grading.  The one entry point is :func:`grade` — it builds
the fault universe, normalizes observability into an :class:`ObservePlan`,
picks an engine (``"auto"``) and returns a
:class:`~repro.faultsim.harness.CampaignResult`:

* :mod:`~repro.faultsim.faults` — fault universe (stem faults on every net,
  branch faults on fanout gate pins) with structural equivalence collapsing;
* :mod:`~repro.faultsim.simulator` — pattern-parallel good-machine logic
  simulation over levelized netlists (one Python bitwise op evaluates a gate
  under every pattern at once);
* :mod:`~repro.faultsim.engine` — the :class:`FaultSimEngine` protocol,
  engine selection and the :func:`grade` facade over the two engines
  (``differential``, the reference oracle, and ``packed``);
* :mod:`~repro.faultsim.options` — the one validated
  :class:`GradeOptions` object every grading entry point shares;
* :mod:`~repro.faultsim.packed` — fault-parallel bit-packed grading (up
  to ``lanes - 1`` fault classes per big-int word next to the good
  machine);
* :mod:`~repro.faultsim.lowering` — netlist lowering / code generation for
  the packed engine and the good-machine simulator (dead-net elimination,
  constant folding, fused gate kernels);
* :mod:`~repro.faultsim.trace_cache` — the process-wide good-trace cache
  keyed by structural netlist and stimulus hashes;
* :mod:`~repro.faultsim.store` — the persistent content-addressed store
  for good traces and verdict records (checksummed records, quarantine
  on corruption, LRU size cap);
* :mod:`~repro.faultsim.observe` — one normalized observability plan shared
  by every engine;
* :mod:`~repro.faultsim.differential` — per-fault event-driven faulty
  simulation against stored good values, with fault dropping;
* :mod:`~repro.faultsim.harness` — :class:`CampaignResult`, the per-component
  verdict record every engine returns;
* :mod:`~repro.faultsim.coverage` — FC / MOFC reports (the paper's Table 5
  quantities).
"""

from repro.faultsim.diagnosis import Candidate, FaultDictionary
from repro.faultsim.faults import (
    Fault,
    FaultKind,
    FaultList,
    build_fault_list,
    fault_sort_key,
)
from repro.faultsim.simulator import LogicSimulator, SimState
from repro.faultsim.differential import Detection, DifferentialFaultSimulator
from repro.faultsim.coverage import ComponentCoverage, CoverageSummary
from repro.faultsim.observe import ObservePlan, ObserveSpec
from repro.faultsim.trace_cache import (
    CacheStats,
    GoodTraceCache,
    active_store,
    global_trace_cache,
    set_active_store,
)
from repro.faultsim.store import StoreStats, TraceStore
from repro.faultsim.options import (
    DEFAULT_LANES,
    GradeOptions,
    resolve_prune_mode,
)
from repro.faultsim.harness import CampaignResult
from repro.faultsim.engine import (
    DifferentialEngine,
    FaultSimEngine,
    default_engine_name,
    engine_names,
    get_engine,
    grade,
    resolve_engine,
)
from repro.faultsim.packed import PackedEngine

__all__ = [
    "Candidate",
    "FaultDictionary",
    "Fault",
    "FaultKind",
    "FaultList",
    "build_fault_list",
    "fault_sort_key",
    "LogicSimulator",
    "SimState",
    "Detection",
    "DifferentialFaultSimulator",
    "ComponentCoverage",
    "CoverageSummary",
    "ObservePlan",
    "ObserveSpec",
    "CacheStats",
    "GoodTraceCache",
    "global_trace_cache",
    "active_store",
    "set_active_store",
    "StoreStats",
    "TraceStore",
    "DEFAULT_LANES",
    "GradeOptions",
    "resolve_prune_mode",
    "CampaignResult",
    "DifferentialEngine",
    "PackedEngine",
    "FaultSimEngine",
    "default_engine_name",
    "engine_names",
    "get_engine",
    "grade",
    "resolve_engine",
]
