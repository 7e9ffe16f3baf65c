"""Persistent TraceStore failure modes and campaign integration.

The store's contract is "incremental campaigns without wrong answers":
a warm store replays bit-identical verdicts with zero re-simulation, and
every corruption mode (truncation, bit flips, concurrent writers, cache
caps) degrades to a miss-and-rebuild, never to a wrong record.
"""

import multiprocessing
import random

import pytest

from repro.core.campaign import run_campaign
from repro.faultsim import (
    GradeOptions,
    StoreStats,
    TraceStore,
    build_fault_list,
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
    assert b.pruned == a.pruned
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
        assert _record_paths(store) == []  # no trace root either
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
        bad["detections"] = "oops"
        with pytest.raises((KeyError, TypeError, ValueError)):
            result_from_payload(bad, "ALU", fault_list)
        missing = dict(good)
        del missing["detected"]
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
