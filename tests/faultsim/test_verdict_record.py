"""The columnar verdict record: round trip, damaged columns, epoch tags.

A verdict record stores a table of distinct verdicts (flag byte, first
cycle, lane word) and, per graded class, its representative and table
row, all as fixed-width columns inside the checksummed JSON envelope.
These tests pin that a record decodes to exactly the result that was
saved, that a damaged record is a quarantined miss and never a partial
result, and that the key's epoch tags keep old records out of reach.
"""

import json
import random
from base64 import b64decode, b64encode
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faultsim.store as store_mod
from repro.analysis.collapse import COLLAPSE_EPOCH
from repro.errors import FaultSimError
from repro.faultsim import GradeOptions, TraceStore, build_fault_list, grade
from repro.faultsim.differential import Detection
from repro.faultsim.faults import FAULT_EPOCH
from repro.faultsim.harness import CampaignResult
from repro.faultsim.observe import ObservePlan
from repro.faultsim.store import (
    STORE_EPOCH,
    result_from_payload,
    verdicts_payload,
)
from repro.faultsim.trace_cache import global_trace_cache
from repro.analysis.scoap import untestable_fault_classes
from repro.library import build_alu
from repro.plasma.components import build_component
from tests.faultsim.test_proven import PATTERNS, tied_circuit

#: Wider than any phase-A lane word: a combinational component's word has
#: one bit per pattern, 2,646 for BMUX and CTRL.
_MAX_LANE_BITS = 4096


def _alu_patterns(n=20, seed=9):
    rng = random.Random(seed)
    return [
        dict(a=rng.getrandbits(4), b=rng.getrandbits(4),
             func=rng.getrandbits(4))
        for _ in range(n)
    ]


def _never_called():
    raise AssertionError("a replay built the fault list")


@st.composite
def _results(draw):
    """A random graded result: any universe size, including empty; any
    subset of classes with detections, in any order; lane words up to
    4,096 bits; undetected and detected classes with or without a
    cycle; a proven set."""
    n_classes = draw(st.integers(0, 60))
    reps = draw(st.permutations(range(n_classes)))
    graded = reps[: draw(st.integers(0, n_classes))]
    detections = {}
    for rep in graded:
        detected = draw(st.booleans())
        detections[rep] = Detection(
            detected,
            draw(st.none() | st.integers(0, 2**31 - 1)),
            draw(st.integers(0, 2**_MAX_LANE_BITS - 1)),
            excited=draw(st.booleans()),
        )
    proven = set(draw(st.lists(st.sampled_from(reps), unique=True))
                 if reps else [])
    result = CampaignResult(
        draw(st.text(max_size=8)),
        _never_called,
        detected={r for r, d in detections.items() if d.detected},
        detections=detections,
        n_patterns=draw(st.integers(0, 10_000)),
        proven=proven,
        n_classes=n_classes,
    )
    result.collapse_hash = draw(st.sampled_from(["", "ab" * 16]))
    return result


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_results())
    def test_record_decodes_to_the_saved_result(self, result):
        payload = json.loads(json.dumps(verdicts_payload(result)))
        restored = result_from_payload(payload, result.name, _never_called)
        assert restored.detections == result.detections
        assert list(restored.detections) == list(result.detections)
        assert restored.detected == result.detected
        assert restored.proven == result.proven
        assert restored.n_faults == result.n_faults
        assert restored.n_patterns == result.n_patterns
        assert restored.collapse_hash == result.collapse_hash
        assert restored.fault_coverage == result.fault_coverage
        assert restored.cache_hit and restored.n_simulated == 0
        for det in restored.detections.values():
            assert type(det.detected) is bool and type(det.excited) is bool

    def test_lane_column_is_as_wide_as_the_widest_word(self):
        detections = {3: Detection(True, 0, 1), 7: Detection(True, 0, 2**1023)}
        result = CampaignResult("w", _never_called, detections=detections,
                                detected={3, 7}, n_classes=9)
        payload = verdicts_payload(result)
        assert payload["lane_bytes"] == 128
        restored = result_from_payload(payload, "w", _never_called)
        assert restored.detections == detections

    def test_through_the_store(self, tmp_path):
        netlist = build_alu(width=4)
        fault_list = build_fault_list(netlist)
        cold = grade(netlist, _alu_patterns(), fault_list,
                     GradeOptions(engine="differential"))
        store = TraceStore(tmp_path)
        store.save_verdicts("ab" * 16, verdicts_payload(cold))
        warm = store.replay_verdicts("ab" * 16, "ALU", fault_list)
        assert warm is not None and warm.fault_list is fault_list
        assert warm.detections == cold.detections
        assert warm.detected == cold.detected
        assert store.stats.verdict_hits == 1


def _seeded(tmp_path):
    netlist = build_alu(width=4)
    fault_list = build_fault_list(netlist)
    result = grade(netlist, _alu_patterns(), fault_list,
                   GradeOptions(engine="differential"))
    return TraceStore(tmp_path), fault_list, verdicts_payload(result)


def _cut(text, n_bytes=1):
    """A base64 column with its last ``n_bytes`` bytes cut off."""
    return b64encode(b64decode(text)[:-n_bytes]).decode()


def _last_row_past_table(text):
    """The row column with its last entry pointing past the table."""
    raw = bytearray(b64decode(text))
    raw[-4:] = b"\xff" * 4
    return b64encode(raw).decode()


_DAMAGE = {
    "reps-short": lambda p: p.update(reps=_cut(p["reps"], 4)),
    "reps-ragged": lambda p: p.update(reps=_cut(p["reps"], 1)),
    "flags-short": lambda p: p.update(flags=_cut(p["flags"])),
    "cycles-short": lambda p: p.update(cycles=_cut(p["cycles"], 4)),
    "lanes-short": lambda p: p.update(lanes=_cut(p["lanes"])),
    "lane-width": lambda p: p.update(lane_bytes=p["lane_bytes"] + 1),
    "not-base64": lambda p: p.update(flags="%%%"),
    "flag-out-of-range": lambda p: p.update(flags=p["flags"].replace(
        p["flags"][:4], "////", 1)),
    "too-many-rows": lambda p: p.update(n_classes=1),
    "rows-short": lambda p: p.update(rows=_cut(p["rows"], 4)),
    "row-out-of-range": lambda p: p.update(rows=_last_row_past_table(
        p["rows"])),
    "missing-column": lambda p: p.pop("cycles"),
    "per-class-json": lambda p: p.update(reps={"0": [1, 0, "1", 1]}),
}


class TestDamagedRecords:
    """A record whose columns do not fit together is a miss plus
    quarantine, counted as a miss — never a partial result."""

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_damaged_columns_are_a_quarantined_miss(self, tmp_path, damage):
        store, fault_list, payload = _seeded(tmp_path)
        _DAMAGE[damage](payload)
        key = "cd" * 16
        store.save_verdicts(key, payload)  # a valid checksum
        assert store.replay_verdicts(key, "ALU", _never_called) is None
        assert store.stats.verdict_hits == 0
        assert store.stats.verdict_misses == 1
        assert store.stats.corrupt == 1
        assert store.record_count() == (0, 0)
        assert len(list((tmp_path / "quarantine").iterdir())) == 1

    def test_wrong_class_count_is_a_quarantined_miss(self, tmp_path):
        store, fault_list, payload = _seeded(tmp_path)
        payload["n_classes"] += 1
        store.save_verdicts("ef" * 16, payload)
        assert store.replay_verdicts("ef" * 16, "ALU", fault_list) is None
        assert (store.stats.verdict_hits, store.stats.verdict_misses) == (0, 1)
        assert store.stats.corrupt == 1
        assert "verdicts 0/1 hit" in store.stats.summary()

    def test_grade_regrades_a_record_with_the_wrong_class_count(
        self, tmp_path
    ):
        netlist = build_alu(width=4)
        store = TraceStore(tmp_path)
        opts = GradeOptions(cache=store)
        cold = grade(netlist, _alu_patterns(), options=opts)
        key = store_mod.verdict_key_for(
            store, netlist, _alu_patterns(),
            ObservePlan.from_spec(None, len(_alu_patterns()), netlist),
            prune_mode="", collapse_epoch="",
        )
        payload = verdicts_payload(cold)
        payload["n_classes"] += 1
        store.save_verdicts(key, payload)
        regraded = grade(
            netlist, _alu_patterns(), build_fault_list(netlist), opts
        )
        assert not regraded.cache_hit
        assert store.stats.verdict_hits == 0 and store.stats.corrupt == 1
        assert regraded.detections == cold.detections

    def test_late_fault_list_build_checks_the_class_count(self, tmp_path):
        store, fault_list, payload = _seeded(tmp_path)
        payload["n_classes"] += 1
        netlist = fault_list.netlist
        replayed = result_from_payload(
            payload, "ALU", partial(build_fault_list, netlist)
        )
        assert replayed.n_faults == fault_list.n_collapsed + 1
        with pytest.raises(FaultSimError, match="classes"):
            replayed.undetected_faults()


class TestEpochs:
    def test_tags_are_pinned(self):
        assert STORE_EPOCH == "store-v3"
        assert FAULT_EPOCH == "faults-v1"
        assert COLLAPSE_EPOCH == "collapse-v1"

    def test_a_store_v1_record_is_never_addressed(self, tmp_path):
        netlist = build_alu(width=4)
        stimulus = _alu_patterns()
        fault_list = build_fault_list(netlist)
        store = TraceStore(tmp_path)
        structural, stim_hash, n_entries, _ = global_trace_cache().key_for(
            netlist, stimulus, "packed"
        )
        plan = ObservePlan.from_spec(None, len(stimulus), netlist)
        # The key a store-v1 build gave this grade, holding a record in
        # the per-class layout of that epoch.
        v1_key = store_mod._digest(
            "verdicts", "store-v1", structural, stim_hash, str(n_entries),
            plan.signature(), "", "",
            f"{fault_list.n_prime}:{fault_list.n_collapsed}",
        )
        store.save_verdicts(v1_key, {
            "n_classes": fault_list.n_collapsed, "detected": [],
            "detections": {}, "pruned": [], "proven": [], "n_patterns": 20,
        })
        result = grade(netlist, stimulus, options=GradeOptions(cache=store))
        assert not result.cache_hit
        assert store.stats.verdict_misses == 1 and store.stats.corrupt == 0
        assert store._path("verdicts", v1_key).is_file()
        assert store.record_count() == (1, 2)

    def test_a_store_v2_proven_record_is_never_replayed(self, tmp_path):
        # A store-v2 "proven" grade skipped the SCOAP-screened classes,
        # so its record holds no verdict for them; the current key must
        # not reach it.
        netlist = tied_circuit()
        proven = grade(
            netlist, PATTERNS, options=GradeOptions(prune_untestable="proven")
        )
        screened = untestable_fault_classes(proven.fault_list)
        assert screened and screened <= set(proven.detections)
        v2 = CampaignResult(
            proven.name, proven.fault_list, detected=set(proven.detected),
            detections={
                rep: det for rep, det in proven.detections.items()
                if rep not in screened
            },
            n_patterns=proven.n_patterns, proven=set(proven.proven),
        )
        payload = verdicts_payload(v2)
        payload["pruned"] = sorted(screened)
        structural, stim_hash, n_entries, _ = global_trace_cache().key_for(
            netlist, PATTERNS, "packed"
        )
        plan = ObservePlan.from_spec(None, len(PATTERNS), netlist)
        v2_key = store_mod._digest(
            "verdicts", "store-v2", structural, stim_hash, str(n_entries),
            plan.signature(), "proven", "", FAULT_EPOCH,
        )
        store = TraceStore(tmp_path)
        store.save_verdicts(v2_key, payload)
        current_key = store_mod.verdict_key_for(
            store, netlist, PATTERNS, plan,
            prune_mode="proven", collapse_epoch="",
        )
        assert current_key != v2_key

        result = grade(netlist, PATTERNS, options=GradeOptions(
            cache=store, prune_untestable="proven",
        ))
        assert not result.cache_hit
        assert store.stats.verdict_misses == 1 and store.stats.corrupt == 0
        assert store._path("verdicts", v2_key).is_file()
        assert result.detections == proven.detections

    @pytest.mark.parametrize("name", ("tied", "PCL"))
    def test_warm_proven_replay_equals_cold(self, tmp_path, name):
        if name == "tied":
            netlist, stimulus = tied_circuit(), PATTERNS
        else:
            netlist = build_component("PCL")
            stimulus = [{p.name: 0 for p in netlist.input_ports()}] * 3
        opts = GradeOptions(cache=TraceStore(tmp_path),
                            prune_untestable="proven")
        cold = grade(netlist, stimulus, options=opts)
        warm = grade(netlist, stimulus, options=opts)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.proven and warm.proven == cold.proven
        assert warm.detected == cold.detected
        assert list(warm.detections) == list(cold.detections)
        for rep, want in cold.detections.items():
            got = warm.detections[rep]
            assert (got.detected, got.cycle, got.lanes, got.excited) == (
                want.detected, want.cycle, want.lanes, want.excited
            ), rep
        assert warm.n_faults == cold.n_faults
        assert warm.n_patterns == cold.n_patterns
        assert warm.n_effective_faults == cold.n_effective_faults
        assert warm.fault_coverage == cold.fault_coverage
        assert warm.n_never_excited == cold.n_never_excited
        assert warm.excitation_report() == cold.excitation_report()
