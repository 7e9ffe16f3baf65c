"""In-process good-trace cache shared by every fault-sim engine.

Grading one component requires the *good machine* trajectory — the
fault-free net values for every stimulus entry.  Every engine needs it
(the differential engine diffs against it, the packed engine replicates
it into its lane groups and derives per-fault excitation from it),
and a campaign frequently replays the same ``(netlist, stimulus)`` pair:
cache-warm re-grades, resumed campaigns re-validating a journal, the
cross-engine equivalence suite, and benchmarks measuring several engines
over one component.

The cache keys entries by *value*, not identity:

    (structural netlist hash, stimulus hash, cycle count, lane mode)

so two independently built netlists of the same component share an entry
(see :mod:`repro.netlist.hashing`).  ``lane mode`` distinguishes the two
trace shapes: ``"packed"`` (combinational patterns packed one-per-lane
into a single cycle) and ``"sequence"`` (a single-lane cycle walk).

Entries are kept LRU-bounded — good traces of large sequential components
are memory-heavy, so only a handful stay resident.  Worker processes
forked by :mod:`repro.runtime.pool` inherit the parent's entries but
reset the hit/miss counters so per-worker statistics stay coherent.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.faultsim.simulator import GoodTrace, LogicSimulator
from repro.netlist.hashing import stimulus_hash, structural_hash
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:  # pragma: no cover - layering guard
    from repro.faultsim.store import TraceStore

#: Default number of resident traces; large sequential traces dominate
#: memory, so the bound is deliberately small.
DEFAULT_MAX_ENTRIES = 8

#: Cache key: (structural hash, stimulus hash, stimulus length, mode).
TraceKey = tuple[str, str, int, str]

#: Bound on the identity-keyed key memo (see :meth:`GoodTraceCache.key_for`).
_KEY_MEMO_ENTRIES = 16

#: Key-memo entry: pinned (netlist, stimulus) plus the structural counts
#: they had when hashed, and the computed trace key.
_KeyMemoEntry = tuple[
    Netlist, Sequence[Mapping[str, int]], int, int, int, int, TraceKey
]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1]; 0.0 before any lookup."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class GoodTraceCache:
    """LRU cache from ``(netlist, stimulus, cycles, mode)`` to a trace."""

    max_entries: int = DEFAULT_MAX_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: "OrderedDict[TraceKey, GoodTrace]" = field(
        default_factory=OrderedDict
    )
    _key_memo: "OrderedDict[tuple[int, int, str], _KeyMemoEntry]" = field(
        default_factory=OrderedDict
    )

    def key_for(
        self,
        netlist: Netlist,
        stimulus: Sequence[Mapping[str, int]],
        mode: str,
    ) -> TraceKey:
        """The value-based trace key for one ``(netlist, stimulus)`` pair.

        Hashing a long stimulus is not free, and collapsed grading (two
        engine passes over the same pair) plus cache-warm campaign loops
        recompute the same key many times — so keys are memoized by
        object identity.  Entries *pin* the netlist and stimulus (an
        ``id()`` match therefore implies the same live object) and are
        re-validated against the cheap structural counts below; mutating
        an already-graded netlist in place through its low-level
        primitives changes those counts and invalidates the entry.
        In-place edits that keep every count identical (rewriting one
        cycle's value of a pinned stimulus list) are not detected —
        stimulus sequences must be treated as immutable once graded,
        which every engine and campaign path already assumes.
        """
        memo_key = (id(netlist), id(stimulus), mode)
        entry = self._key_memo.get(memo_key)
        if entry is not None:
            _, _, n_nets, n_gates, n_dffs, n_stim, key = entry
            if (
                n_nets == netlist.n_nets
                and n_gates == len(netlist.gates)
                and n_dffs == len(netlist.dffs)
                and n_stim == len(stimulus)
            ):
                self._key_memo.move_to_end(memo_key)
                return key
        key = (
            structural_hash(netlist),
            stimulus_hash(stimulus),
            len(stimulus),
            mode,
        )
        self._key_memo[memo_key] = (
            netlist, stimulus, netlist.n_nets, len(netlist.gates),
            len(netlist.dffs), len(stimulus), key,
        )
        while len(self._key_memo) > _KEY_MEMO_ENTRIES:
            self._key_memo.popitem(last=False)
        return key

    def get_or_build(
        self, key: TraceKey, build: Callable[[], GoodTrace]
    ) -> GoodTrace:
        """Return the cached trace for ``key``, building it on a miss."""
        trace = self._entries.get(key)
        if trace is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return trace
        self.stats.misses += 1
        trace = build()
        self._entries[key] = trace
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return trace

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (and memoized key) and reset the statistics."""
        self._entries.clear()
        self._key_memo.clear()
        self.stats = CacheStats()

    def reset_stats(self) -> None:
        """Zero the counters, keeping resident entries (fork-time hook)."""
        self.stats = CacheStats()


_GLOBAL = GoodTraceCache()


def global_trace_cache() -> GoodTraceCache:
    """The process-wide cache used by default by every engine."""
    return _GLOBAL


def good_trace_for(
    netlist: Netlist,
    stimulus: Sequence[Mapping[str, int]],
    *,
    packed: bool,
    cache: GoodTraceCache | None = None,
    store: "TraceStore | None" = None,
) -> GoodTrace:
    """Good-machine trace for ``stimulus``, through the cache.

    Args:
        netlist: the circuit to simulate.
        stimulus: patterns (``packed=True``) or per-cycle inputs.
        packed: combinational lane packing — every pattern becomes one
            lane of a single simulated cycle.  ``False`` runs a
            single-lane cycle sequence (sequential components).
        cache: cache instance (default: the process-wide one).
        store: persistent store behind the cache: an in-memory miss
            loads the trace from it, or simulates it; a trace that did
            not come from the store — simulated now, or already in
            memory (built by a grade without a store, or inherited by a
            forked worker) — is written to it unless it holds one.
            Only :class:`~repro.faultsim.engine.PreparedGrade` passes
            one, on a verdict miss; the engines' own lookups then hit
            the in-memory cache.
    """
    cache = cache if cache is not None else _GLOBAL
    mode = "packed" if packed else "sequence"
    key = cache.key_for(netlist, stimulus, mode)
    store_key = ""
    if store is not None:
        structural, stim_hash, n_entries, _ = key
        store_key = store.trace_key(structural, stim_hash, n_entries, mode)
    source = "memory"

    def build() -> GoodTrace:
        nonlocal source
        if store is not None:
            trace = store.load_trace(store_key)
            # A trace whose net count disagrees with the live netlist can
            # only come from a record-format drift; treat it as a miss.
            if trace is not None and (
                not trace.values or len(trace.values[0]) == netlist.n_nets
            ):
                source = "store"
                return trace
        source = "simulated"
        sim = LogicSimulator(netlist)
        if packed:
            return sim.run_parallel_sessions([[dict(p)] for p in stimulus])
        _, trace = sim.run_sequence(stimulus, record=True)
        assert trace is not None
        return trace

    trace = cache.get_or_build(key, build)
    if store is not None and (
        source == "simulated"
        or (source == "memory" and not store.has_trace(store_key))
    ):
        store.save_trace(store_key, trace)
    return trace


def _child_init() -> None:  # pragma: no cover - exercised via fork
    _GLOBAL.reset_stats()


def _register_child_hook() -> None:
    # Forked grading workers inherit warm entries but start their own
    # hit/miss accounting.  Registered lazily so importing faultsim does
    # not drag the runtime package in at module-import time.
    from repro.runtime.pool import register_child_init_hook

    register_child_init_hook(_child_init)


_register_child_hook()
