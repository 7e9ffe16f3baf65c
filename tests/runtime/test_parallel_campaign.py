"""Integration tests: campaigns sharded over the worker pool (``jobs=2``).

The acceptance bar for parallel grading is *bit-identical* results: any
worker count, shard layout or completion order must merge to the same
Table 5 as ``jobs=1`` (pinned for every path by
``test_resilient_campaign.py::TestPathEquivalence``).  On top of that,
the resilience contract holds at shard granularity — a crashed shard
degrades only its own fault range, and resume re-grades exactly the
shards missing from the journal.
"""

import json
import os

import pytest

import repro.core.sharded as sharded_mod
from repro.core.campaign import run_campaign
from repro.faultsim.options import GradeOptions
from repro.reporting.tables import render_table5
from repro.runtime import RetryPolicy, RuntimeConfig
from repro.runtime.checkpoint import CheckpointStore

FAST = ["CTRL", "BMUX"]

_real_grade_shard = sharded_mod.grade_shard


def _config(tmp_path=None, resume=False, attempts=2, timeout=None, jobs=2):
    return RuntimeConfig(
        timeout_seconds=timeout,
        retry=RetryPolicy(max_attempts=attempts, backoff_seconds=0),
        checkpoint_dir=tmp_path,
        resume=resume,
        isolate=True,
        jobs=jobs,
        sleep=lambda s: None,
    )


def _crash_bmux(name, lo, hi):
    if name == "BMUX":
        os._exit(11)
    return _real_grade_shard(name, lo, hi)


def _crash_first_bmux_shard(name, lo, hi):
    if name == "BMUX" and lo == 0:
        os._exit(11)
    return _real_grade_shard(name, lo, hi)


class TestParallelMatchesSerial:
    def test_shard_events_and_throughput(self):
        outcome = run_campaign(
            "A", components=["CTRL"], runtime=_config(jobs=2)
        )
        successes = [e for e in outcome.events if e.kind == "success"]
        # CTRL's 1032 classes split into jobs * oversubscription shards.
        assert len(successes) == 6
        assert all(e.job.startswith("A:CTRL#") for e in successes)
        assert all(e.throughput and e.throughput > 0 for e in successes)
        assert outcome.grading_seconds["CTRL"] > 0

    def test_runtime_jobs_field_enables_parallelism(self):
        outcome = run_campaign(
            "A", components=["CTRL"], runtime=_config(jobs=2)
        )
        assert len({e.job for e in outcome.events}) > 1  # sharded

    def test_parallel_requires_isolation(self):
        from repro.errors import ReproRuntimeError

        with pytest.raises(ReproRuntimeError):
            run_campaign(
                "A", components=["CTRL"],
                runtime=RuntimeConfig(isolate=False, jobs=2),
            )


class TestShardResume:
    def test_resume_skips_completed_shards(self, tmp_path):
        run_campaign(
            "A", components=FAST, runtime=_config(tmp_path)
        )
        resumed = run_campaign(
            "A", components=FAST,
            runtime=_config(tmp_path, resume=True),
        )
        kinds = [e.kind for e in resumed.events]
        assert set(kinds) == {"cached"}
        assert len(kinds) == 12  # 6 shards per component
        assert not resumed.degraded
        serial = run_campaign("A", components=FAST)
        assert render_table5({"A": resumed}) == render_table5(
            {"A": serial}
        )

    def test_resume_regrades_only_missing_shards(self, tmp_path):
        run_campaign(
            "A", components=["CTRL"], runtime=_config(tmp_path)
        )
        store = CheckpointStore(tmp_path)
        lines = store.path.read_text().splitlines()
        assert len(lines) == 6
        # Drop one shard from the journal (simulates a kill mid-campaign).
        # Journal lines append in *completion* order, so pick the victim
        # by its shard key, not by position.
        dropped = "A:CTRL#04/06"
        kept = [ln for ln in lines if json.loads(ln)["key"] != dropped]
        assert len(kept) == 5
        store.path.write_text("\n".join(kept) + "\n")

        resumed = run_campaign(
            "A", components=["CTRL"],
            runtime=_config(tmp_path, resume=True),
        )
        per_shard = {}
        for e in resumed.events:
            per_shard.setdefault(e.job, []).append(e.kind)
        regraded = [k for k, v in per_shard.items() if "success" in v]
        assert regraded == [dropped]
        assert sum(v == ["cached"] for v in per_shard.values()) == 5
        serial = run_campaign("A", components=["CTRL"])
        assert resumed.results["CTRL"].detected == (
            serial.results["CTRL"].detected
        )


class TestLaneAlignment:
    def test_auto_packed_component_shards_are_lane_aligned(self, tmp_path):
        # ``auto`` grades ALU with the packed engine, so its interior
        # shard bounds snap to whole packed words (``lanes - 1`` faults).
        from repro.faultsim.options import DEFAULT_LANES

        run_campaign(
            "A", components=["ALU"], runtime=_config(tmp_path)
        )
        records = [
            json.loads(line)
            for line in CheckpointStore(tmp_path).path.read_text().splitlines()
        ]
        assert len(records) > 1
        bounds = set()
        for record in records:
            span = record["fingerprint"].split(":")[1]  # "lo-hi/universe"
            lo, hi = span.split("/")[0].split("-")
            bounds |= {int(lo), int(hi)}
        universe = int(span.split("/")[1])
        interior = bounds - {0, universe}
        assert interior
        assert all(b % (DEFAULT_LANES - 1) == 0 for b in interior)


class TestShardDegradation:
    def test_crashed_component_degrades_only_itself(self, monkeypatch):
        monkeypatch.setattr(sharded_mod, "grade_shard", _crash_bmux)
        outcome = run_campaign(
            "A", components=FAST, runtime=_config(attempts=1)
        )
        assert outcome.degraded_components == ["BMUX"]
        assert outcome.results["BMUX"].n_detected == 0
        assert outcome.results["CTRL"].n_detected > 0
        assert not outcome.summary.component("CTRL").degraded
        assert outcome.summary.component("BMUX").degraded

    def test_single_crashed_shard_keeps_partial_coverage(self, monkeypatch):
        # The in-process reference grades through grade_shard too, so it
        # runs before the substitution.
        serial = run_campaign("A", components=["BMUX"])
        monkeypatch.setattr(
            sharded_mod, "grade_shard", _crash_first_bmux_shard
        )
        outcome = run_campaign(
            "A", components=["BMUX"], runtime=_config(attempts=1)
        )
        assert outcome.degraded_components == ["BMUX"]
        partial = outcome.results["BMUX"].detected
        full = serial.results["BMUX"].detected
        # The surviving shards' verdicts are kept: a strict, non-empty
        # subset of the serial result (a coverage lower bound).
        assert partial
        assert partial < full
        kinds = [e.kind for e in outcome.events if e.job == "A:BMUX#01/06"]
        assert kinds == ["start", "crash", "degraded"]


class TestCollapsedShards:
    def test_parallel_collapsed_matches_serial_plain(self):
        serial = run_campaign("A", components=FAST)
        parallel = run_campaign(
            "A", components=FAST, runtime=_config(),
            options=GradeOptions(collapse=True),
        )
        assert render_table5({"A": parallel}) == render_table5({"A": serial})
        for name in FAST:
            got = parallel.results[name]
            assert got.detected == serial.results[name].detected
            assert got.collapse_hash
            assert got.n_simulated < serial.results[name].n_simulated

    def test_mixed_collapse_hashes_refused_by_merge(self):
        from repro.core.sharded import ShardVerdict, merge_shard_results
        from repro.errors import CheckpointCorrupt
        from repro.faultsim.faults import build_fault_list
        from repro.plasma.components import component

        fault_list = build_fault_list(component("GL").builder())
        n = fault_list.n_collapsed

        def verdict(lo, hi, chash):
            return ShardVerdict(
                component="GL", lo=lo, hi=hi, n_classes=n, n_patterns=1,
                detected=(), collapse_hash=chash,
            )

        with pytest.raises(CheckpointCorrupt, match="collapse maps"):
            merge_shard_results(
                "GL", fault_list, 1,
                [verdict(0, n // 2, "aaaa"), verdict(n // 2, n, "bbbb")],
            )

    def test_collapsed_resume_reuses_journal(self, tmp_path):
        first = run_campaign(
            "A", components=["CTRL"], runtime=_config(tmp_path),
            options=GradeOptions(collapse=True),
        )
        resumed = run_campaign(
            "A", components=["CTRL"],
            runtime=_config(tmp_path, resume=True),
            options=GradeOptions(collapse=True),
        )
        assert resumed.results["CTRL"].detected == \
            first.results["CTRL"].detected
        assert resumed.results["CTRL"].collapse_hash == \
            first.results["CTRL"].collapse_hash
        kinds = {e.kind for e in resumed.events}
        assert kinds == {"cached"}
