"""Persistent TraceStore failure modes and campaign integration.

The store's contract is "incremental campaigns without wrong answers":
a warm store replays bit-identical verdicts with zero re-simulation, and
every corruption mode (truncation, bit flips, concurrent writers, cache
caps) degrades to a miss-and-rebuild, never to a wrong record.
"""

import multiprocessing
import random

import pytest

import repro.core.sharded as sharded_mod
from repro.core.campaign import run_campaign
from repro.faultsim import (
    GradeOptions,
    StoreStats,
    TraceStore,
    build_fault_list,
    global_trace_cache,
    grade,
)
from repro.faultsim.store import (
    result_from_payload,
    verdicts_payload,
)
from repro.faultsim.simulator import LogicSimulator
from repro.library import build_alu, build_register_file


def _alu_patterns(n=20, seed=9):
    rng = random.Random(seed)
    return [
        dict(a=rng.getrandbits(4), b=rng.getrandbits(4),
             func=rng.getrandbits(4))
        for _ in range(n)
    ]


def _regfile_cycles(n=25, seed=4):
    rng = random.Random(seed)
    return [
        dict(
            wr_addr=rng.randrange(4), wr_data=rng.getrandbits(4),
            wr_en=rng.randrange(2), rd_addr_a=rng.randrange(4),
            rd_addr_b=rng.randrange(4),
        )
        for _ in range(n)
    ]


def _record_paths(store):
    return sorted(store.root.glob("*/*/*.rec"))


def _assert_same_verdicts(a, b):
    assert b.detected == a.detected
    assert b.proven == a.proven
    assert b.fault_coverage == a.fault_coverage
    assert set(b.detections) == set(a.detections)
    for rep, d in a.detections.items():
        g = b.detections[rep]
        assert (g.detected, g.cycle, g.excited) == (
            d.detected, d.cycle, d.excited
        )


class TestWarmReplay:
    @pytest.mark.parametrize(
        "builder,stimulus",
        [
            (lambda: build_alu(width=4), _alu_patterns()),
            (
                lambda: build_register_file(n_registers=4, width=4),
                _regfile_cycles(),
            ),
        ],
        ids=("combinational", "sequential"),
    )
    def test_cold_then_warm_bit_identical(self, tmp_path, builder, stimulus):
        store = TraceStore(tmp_path)
        opts = GradeOptions(cache=store)
        cold = grade(builder(), stimulus, options=opts)
        assert not cold.cache_hit
        warm = grade(builder(), stimulus, options=opts)
        assert warm.cache_hit
        assert warm.n_simulated == 0
        _assert_same_verdicts(cold, warm)

    def test_different_observability_misses(self, tmp_path):
        netlist = build_alu(width=4)
        stimulus = _alu_patterns()
        store = TraceStore(tmp_path)
        grade(netlist, stimulus, options=GradeOptions(cache=store))
        half = [["result"] if i % 2 else [] for i in range(len(stimulus))]
        partial = grade(
            netlist, stimulus,
            options=GradeOptions(cache=store, observe=half),
        )
        assert not partial.cache_hit  # observe signature is in the key

    def test_subset_grades_are_never_stored(self, tmp_path):
        netlist = build_alu(width=4)
        fault_list = build_fault_list(netlist)
        reps = fault_list.class_representatives()
        store = TraceStore(tmp_path)
        grade(
            netlist, _alu_patterns(), fault_list,
            GradeOptions(cache=store, subset=reps[: len(reps) // 2]),
        )
        # The good trace is written through; the partial verdicts are not.
        assert store.record_count() == (1, 0)
        assert store.stats.verdict_hits == 0


class TestCorruption:
    def _seed_record(self, tmp_path):
        store = TraceStore(tmp_path)
        netlist = build_alu(width=4)
        stimulus = _alu_patterns()
        cold = grade(netlist, stimulus, options=GradeOptions(cache=store))
        paths = _record_paths(store)
        assert paths
        return store, netlist, stimulus, cold, paths

    def test_bit_flip_quarantines_and_rebuilds(self, tmp_path):
        store, netlist, stimulus, cold, paths = self._seed_record(tmp_path)
        for path in paths:
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0x40
            path.write_bytes(bytes(blob))
        # As in a new process: the good trace must come from its record.
        global_trace_cache().clear()
        regraded = grade(netlist, stimulus, options=GradeOptions(cache=store))
        assert not regraded.cache_hit  # every record was corrupt
        assert store.stats.corrupt >= len(paths)
        quarantined = list((store.root / "quarantine").iterdir())
        assert len(quarantined) >= len(paths)
        _assert_same_verdicts(cold, regraded)
        # The rebuild re-published clean records: warm again.
        warm = grade(netlist, stimulus, options=GradeOptions(cache=store))
        assert warm.cache_hit

    def test_truncated_record_is_a_miss(self, tmp_path):
        store, netlist, stimulus, cold, paths = self._seed_record(tmp_path)
        for path in paths:
            path.write_bytes(path.read_bytes()[: 40])
        regraded = grade(netlist, stimulus, options=GradeOptions(cache=store))
        assert not regraded.cache_hit
        _assert_same_verdicts(cold, regraded)

    def test_sequence_trace_round_trip_keeps_byte_rows_and_aliasing(
        self, tmp_path
    ):
        netlist = build_register_file(n_registers=4, width=4)
        # Held runs: repeated (state, inputs) pairs share one row.
        cycles = [c for c in _regfile_cycles(8) for _ in range(3)]
        _, trace = LogicSimulator(netlist).run_sequence(cycles, record=True)
        assert trace is not None
        store = TraceStore(tmp_path)
        store.save_trace("seq", trace)
        loaded = store.load_trace("seq")
        assert loaded is not None
        assert all(type(row) is bytes for row in loaded.values)
        assert loaded.values == trace.values
        assert [s.q for s in loaded.states] == [s.q for s in trace.states]

        def aliasing(values):
            return [values[t] is values[t - 1] for t in range(1, len(values))]

        assert any(aliasing(trace.values))
        assert aliasing(loaded.values) == aliasing(trace.values)
        assert len({id(r) for r in loaded.values}) == len(
            {id(r) for r in trace.values}
        )

    def test_garbage_payload_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.load_verdicts("0" * 32) is None
        store.save_verdicts("0" * 32, {"n_classes": 3})
        path = _record_paths(store)[0]
        path.write_bytes(b"not a record at all")
        assert store.load_verdicts("0" * 32) is None
        assert store.stats.corrupt == 1

    def test_malformed_payload_rejected_by_decoder(self):
        netlist = build_alu(width=4)
        fault_list = build_fault_list(netlist)
        good = verdicts_payload(
            grade(netlist, _alu_patterns(), fault_list,
                  GradeOptions(engine="differential"))
        )
        restored = result_from_payload(good, "ALU", fault_list)
        assert restored.cache_hit and restored.n_simulated == 0
        bad = dict(good)
        bad["flags"] = "oops"
        with pytest.raises((KeyError, TypeError, ValueError)):
            result_from_payload(bad, "ALU", fault_list)
        missing = dict(good)
        del missing["reps"]
        with pytest.raises((KeyError, TypeError, ValueError)):
            result_from_payload(missing, "ALU", fault_list)


def _hammer_store(args):
    root, worker, rounds = args
    store = TraceStore(root)
    ok = True
    for i in range(rounds):
        key = f"{'%02d' % (i % 4)}{'f' * 30}"
        store.save_verdicts(key, {"worker": worker, "round": i, "pad": "x" * 64})
        doc = store.load_verdicts(key)
        # A concurrent read must see a complete record or a miss — never
        # a half-written hybrid (which would quarantine and bump corrupt).
        ok = ok and (doc is None or {"worker", "round", "pad"} <= set(doc))
        ok = ok and store.stats.corrupt == 0
    return ok


class TestConcurrency:
    def test_concurrent_writers_never_tear_records(self, tmp_path):
        with multiprocessing.Pool(4) as pool:
            results = pool.map(
                _hammer_store,
                [(str(tmp_path), w, 25) for w in range(4)],
            )
        assert all(results)
        store = TraceStore(tmp_path)
        for i in range(4):
            key = f"{'%02d' % i}{'f' * 30}"
            doc = store.load_verdicts(key)
            assert doc is not None and "worker" in doc
        assert not (tmp_path / "quarantine").exists()


class TestLruCap:
    def test_eviction_respects_cap_and_recency(self, tmp_path):
        store = TraceStore(tmp_path, max_bytes=2_000)
        payload = {"pad": "y" * 400}
        keys = [f"{'%02d' % i}{'a' * 30}" for i in range(10)]
        for key in keys:
            store.save_verdicts(key, payload)
        assert store.stats.evictions > 0
        resident = _record_paths(store)
        assert sum(p.stat().st_size for p in resident) <= 2_000
        # The newest record always survives its own save.
        assert store.load_verdicts(keys[-1]) is not None

    def test_oversized_record_not_persisted(self, tmp_path):
        store = TraceStore(tmp_path, max_record_bytes=100)
        assert not store.save_verdicts("b" * 32, {"pad": "z" * 500})
        assert _record_paths(store) == []

    def test_stats_summary_mentions_counts(self):
        stats = StoreStats(trace_hits=1, verdict_hits=2, saves=3)
        summary = stats.summary()
        assert "saved" in summary and "quarantined" in summary


class TestCampaignIntegration:
    def test_repeat_campaign_reuses_every_component(self, tmp_path):
        opts = GradeOptions(cache=TraceStore(tmp_path), collapse=True)
        cold = run_campaign("A", components=["CTRL", "BSH"], options=opts)
        assert cold.cached_components == []
        warm = run_campaign("A", components=["CTRL", "BSH"], options=opts)
        assert sorted(warm.cached_components) == ["BSH", "CTRL"]
        for name in ("CTRL", "BSH"):
            _assert_same_verdicts(
                cold.results[name], warm.results[name]
            )
            assert warm.results[name].n_simulated == 0
        assert (
            warm.summary.overall_coverage == cold.summary.overall_coverage
        )

    def test_collapse_toggle_invalidates_the_record(self, tmp_path):
        store = TraceStore(tmp_path)
        on = run_campaign(
            "A", components=["CTRL"],
            options=GradeOptions(cache=store, collapse=True),
        )
        off = run_campaign(
            "A", components=["CTRL"],
            options=GradeOptions(cache=store, collapse=False),
        )
        # Different collapse hash → different record → no replay...
        assert off.cached_components == []
        # ...but identical Table 5 answers either way.
        _assert_same_verdicts(on.results["CTRL"], off.results["CTRL"])


@pytest.fixture(scope="module")
def ctrl_spec():
    """CTRL's netlist and traced phase-A ``(stimulus, observe)``."""
    from repro.core.campaign import execute_self_test
    from repro.core.methodology import SelfTestMethodology
    from repro.plasma.components import component

    _, tracer, _ = execute_self_test(
        SelfTestMethodology().build_program("A")
    )
    stimulus, observe = tracer.finalize()["CTRL"]
    return component("CTRL").builder, stimulus, observe


def _count_analysis(monkeypatch):
    """Count fault lists, collapse maps, engines, prune sets and good
    traces built.

    Fault lists are counted as they are constructed, wherever that
    happens, and good traces on the in-memory cache every engine goes
    through; the rest are patched where :class:`PreparedGrade` (the one
    pipeline behind ``grade()`` and every campaign path) calls them.
    """
    import repro.analysis.collapse as collapse_mod
    import repro.faultsim.engine as engine_mod
    from repro.faultsim.faults import FaultList

    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        collapse_mod, "compute_collapse",
        counting("compute_collapse", collapse_mod.compute_collapse),
    )
    monkeypatch.setattr(
        FaultList, "__init__", counting("FaultList", FaultList.__init__)
    )
    for name in ("resolve_engine", "prune_set", "good_trace_for"):
        monkeypatch.setattr(
            engine_mod, name, counting(name, getattr(engine_mod, name))
        )
    cache = global_trace_cache()
    monkeypatch.setattr(
        cache, "get_or_build", counting("get_or_build", cache.get_or_build)
    )
    return calls


class TestStoreHitSkipsAnalysis:
    """A store hit costs the key and one record read: it builds no fault
    list, collapse map, engine, prune sets or good trace."""

    @pytest.mark.parametrize("jobs", [None, 2], ids=("in-process", "jobs2"))
    def test_warm_campaign_builds_no_map_and_no_engine(
        self, tmp_path, monkeypatch, jobs
    ):
        from repro.runtime import RuntimeConfig

        runtime = None if jobs is None else RuntimeConfig(jobs=jobs)
        opts = GradeOptions(cache=TraceStore(tmp_path), collapse=True)
        components = ["CTRL", "GL"]
        cold = run_campaign(
            "A", components=components, options=opts, runtime=runtime
        )
        calls = _count_analysis(monkeypatch)
        warm = run_campaign(
            "A", components=components, options=opts, runtime=runtime
        )
        assert sorted(warm.cached_components) == components
        assert calls == []
        for name in components:
            assert warm.results[name].detections == \
                cold.results[name].detections
            assert warm.results[name].collapse_hash == \
                cold.results[name].collapse_hash
        assert warm.table5() == cold.table5()

    def test_grade_hit_builds_no_map_and_no_engine(
        self, tmp_path, monkeypatch
    ):
        netlist = build_alu(width=4)
        opts = GradeOptions(cache=TraceStore(tmp_path), collapse=True)
        cold = grade(netlist, _alu_patterns(), options=opts)
        calls = _count_analysis(monkeypatch)
        warm = grade(netlist, _alu_patterns(), options=opts)
        assert warm.cache_hit
        assert calls == []
        assert warm.detections == cold.detections

    def test_grade_record_replays_in_campaign_and_with_a_map(
        self, tmp_path, ctrl_spec
    ):
        from repro.analysis.collapse import compute_collapse

        builder, stimulus, observe = ctrl_spec
        store = TraceStore(tmp_path)
        cold = grade(builder(), stimulus, options=GradeOptions(
            collapse=True, cache=store, observe=observe, name="CTRL",
        ))
        assert not cold.cache_hit
        outcome = run_campaign("A", components=["CTRL"], options=GradeOptions(
            collapse=True, cache=store,
        ))
        assert outcome.cached_components == ["CTRL"]
        assert outcome.results["CTRL"].detections == cold.detections
        netlist = builder()
        cmap = compute_collapse(netlist, build_fault_list(netlist))
        mapped = grade(netlist, stimulus, options=GradeOptions(
            collapse=cmap, cache=store, observe=observe, name="CTRL",
        ))
        assert mapped.cache_hit
        assert mapped.detections == cold.detections
        assert mapped.collapse_hash == cmap.collapse_hash


    def test_replayed_result_builds_its_fault_list_on_first_use(
        self, tmp_path, monkeypatch
    ):
        netlist = build_alu(width=4)
        opts = GradeOptions(cache=TraceStore(tmp_path), collapse=True)
        cold = grade(netlist, _alu_patterns(), options=opts)
        calls = _count_analysis(monkeypatch)
        warm = grade(netlist, _alu_patterns(), options=opts)
        assert warm.cache_hit
        assert warm.n_faults == cold.n_faults
        assert warm.excitation_report() == cold.excitation_report()
        assert warm.to_component_coverage() == cold.to_component_coverage()
        assert calls == []
        assert warm.undetected_faults() == cold.undetected_faults()
        assert warm.fault_list.n_collapsed == cold.n_faults
        assert calls == ["FaultList"]

_real_grade_shard = sharded_mod.grade_shard


def _shard_reporting_trace_hits(name, lo, hi):
    """Grade one shard, then append this process's store trace hits to
    ``trace-hits`` beside the store (pool workers keep their own stats)."""
    verdict = _real_grade_shard(name, lo, hi)
    store = sharded_mod._ACTIVE.context.options.store
    with open(store.root.parent / "trace-hits", "a") as out:
        out.write(f"{store.stats.trace_hits}\n")
    return verdict


class TestVerdictMissLoadsTraceFromStore:
    """A verdict miss over a known stimulus reads its good trace from the
    store instead of simulating it again, on every grading path.

    No test clears the in-memory cache before its cold grade: a trace
    found there is written through to the store all the same.
    """

    def test_grade(self, tmp_path):
        store = TraceStore(tmp_path)
        cold = grade(build_alu(width=4), _alu_patterns(),
                     options=GradeOptions(cache=store))
        assert store.stats.trace_hits == 0
        global_trace_cache().clear()
        collapsed = grade(build_alu(width=4), _alu_patterns(),
                          options=GradeOptions(cache=store, collapse=True))
        assert not collapsed.cache_hit
        assert store.stats.trace_hits >= 1
        assert collapsed.detected == cold.detected

    def test_in_process_campaign(self, tmp_path):
        store = TraceStore(tmp_path)
        cold = run_campaign("A", components=["CTRL"],
                            options=GradeOptions(cache=store))
        assert store.stats.trace_hits == 0
        global_trace_cache().clear()
        collapsed = run_campaign("A", components=["CTRL"],
                                 options=GradeOptions(cache=store,
                                                      collapse=True))
        assert collapsed.cached_components == []
        assert store.stats.trace_hits >= 1
        assert collapsed.table5() == cold.table5()

    def test_pooled_campaign(self, tmp_path, monkeypatch):
        from repro.runtime import RuntimeConfig

        # CTRL's good trace sits in this process's memory, so the cold
        # run's forked workers inherit it instead of simulating it.
        run_campaign("A", components=["CTRL"])
        root = tmp_path / "store"
        runtime = RuntimeConfig(jobs=2)
        cold = run_campaign("A", components=["CTRL"], runtime=runtime,
                            options=GradeOptions(cache=TraceStore(root)))
        assert TraceStore(root).record_count() == (1, 1)
        global_trace_cache().clear()
        monkeypatch.setattr(
            sharded_mod, "grade_shard", _shard_reporting_trace_hits
        )
        collapsed = run_campaign("A", components=["CTRL"], runtime=runtime,
                                 options=GradeOptions(cache=TraceStore(root),
                                                      collapse=True))
        assert collapsed.cached_components == []
        hits = (tmp_path / "trace-hits").read_text().split()
        assert hits and max(int(h) for h in hits) >= 1
        assert collapsed.table5() == cold.table5()
