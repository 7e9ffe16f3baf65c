"""Unit tests for the LRU good-trace cache."""

import random

from repro.faultsim import GradeOptions, grade
from repro.faultsim.trace_cache import (
    CacheStats,
    GoodTraceCache,
    good_trace_for,
    global_trace_cache,
)
from repro.library import build_register_file
from repro.netlist.builder import NetlistBuilder
from repro.netlist.netlist import PortDirection
from repro.plasma.components import component


def buffer_netlist(name="buf"):
    b = NetlistBuilder(name)
    a = b.input("a", 2)
    b.output("y", list(a))
    return b.build()


def patterns(k):
    return [dict(a=v) for v in range(k)]


class TestStats:
    def test_hit_rate_before_any_lookup(self):
        assert CacheStats().hit_rate == 0.0

    def test_miss_then_hit(self):
        cache = GoodTraceCache()
        netlist = buffer_netlist()
        good_trace_for(netlist, patterns(2), packed=True, cache=cache)
        good_trace_for(netlist, patterns(2), packed=True, cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == 0.5

    def test_reset_stats_keeps_entries(self):
        cache = GoodTraceCache()
        netlist = buffer_netlist()
        good_trace_for(netlist, patterns(2), packed=True, cache=cache)
        cache.reset_stats()
        assert len(cache) == 1
        good_trace_for(netlist, patterns(2), packed=True, cache=cache)
        assert cache.stats == CacheStats(hits=1)


class TestLRUBound:
    def test_eviction_at_capacity(self):
        cache = GoodTraceCache(max_entries=2)
        netlist = buffer_netlist()
        for k in (1, 2, 3):
            good_trace_for(netlist, patterns(k), packed=True, cache=cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (k=1) was evicted; k=3 and k=2 are resident.
        good_trace_for(netlist, patterns(3), packed=True, cache=cache)
        assert cache.stats.hits == 1
        good_trace_for(netlist, patterns(1), packed=True, cache=cache)
        assert cache.stats.misses == 4

    def test_hit_refreshes_recency(self):
        cache = GoodTraceCache(max_entries=2)
        netlist = buffer_netlist()
        good_trace_for(netlist, patterns(1), packed=True, cache=cache)
        good_trace_for(netlist, patterns(2), packed=True, cache=cache)
        good_trace_for(netlist, patterns(1), packed=True, cache=cache)  # hit
        good_trace_for(netlist, patterns(3), packed=True, cache=cache)
        # k=2 (least recently used) was evicted, k=1 survived.
        good_trace_for(netlist, patterns(1), packed=True, cache=cache)
        assert cache.stats.hits == 2


class TestKeying:
    def test_rebuilt_netlist_same_key(self):
        cache = GoodTraceCache()
        key_a = cache.key_for(buffer_netlist(), patterns(2), "packed")
        key_b = cache.key_for(buffer_netlist(), patterns(2), "packed")
        assert key_a == key_b

    def test_netlist_name_irrelevant(self):
        cache = GoodTraceCache()
        assert cache.key_for(buffer_netlist("x"), patterns(2), "packed") \
            == cache.key_for(buffer_netlist("y"), patterns(2), "packed")

    def test_mode_distinguishes_trace_shapes(self):
        cache = GoodTraceCache()
        netlist = build_register_file(n_registers=2, width=2)
        stim = [dict(wr_addr=0, wr_data=1, wr_en=1, rd_addr_a=0,
                     rd_addr_b=0)]
        assert cache.key_for(netlist, stim, "packed") \
            != cache.key_for(netlist, stim, "sequence")

    def test_different_stimulus_different_key(self):
        cache = GoodTraceCache()
        netlist = buffer_netlist()
        assert cache.key_for(netlist, patterns(2), "packed") \
            != cache.key_for(netlist, [dict(a=0), dict(a=2)], "packed")


def test_global_cache_is_a_singleton():
    assert global_trace_cache() is global_trace_cache()
    assert isinstance(global_trace_cache(), GoodTraceCache)


def test_engines_leave_the_shared_trace_unchanged():
    """Cycles that repeat a (state, inputs) pair share one value list, so
    an engine that wrote into a cycle list would corrupt every cycle that
    aliases it and every later grade from the cache."""
    netlist = component("GL").builder()
    rng = random.Random(5)
    widths = {
        p.name: len(p.nets) for p in netlist.ports.values()
        if p.direction is PortDirection.INPUT
    }
    pool = [{p: rng.getrandbits(w) for p, w in widths.items()}
            for _ in range(6)]
    stimulus = []
    while len(stimulus) < 300:
        stimulus.extend([rng.choice(pool)] * rng.randint(1, 8))
    trace = good_trace_for(netlist, stimulus, packed=False)
    assert len({id(v) for v in trace.values}) < trace.n_cycles
    values = [list(v) for v in trace.values]
    states = [list(s.q) for s in trace.states]

    verdicts = []
    for engine in ("differential", "packed"):
        result = grade(netlist, stimulus, options=GradeOptions(engine=engine))
        assert good_trace_for(netlist, stimulus, packed=False) is trace
        verdicts.append((result.detected, {
            r: (d.detected, d.cycle, d.excited)
            for r, d in result.detections.items()
        }))
    assert verdicts[0][0]
    assert verdicts[0] == verdicts[1]
    assert [list(v) for v in trace.values] == values
    assert [list(s.q) for s in trace.states] == states
