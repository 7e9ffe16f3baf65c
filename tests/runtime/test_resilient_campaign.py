"""Integration tests: the fault-grading campaign under the shard scheduler.

These exercise the acceptance paths of the resilient runtime against real
(cheap) components: the equivalence of every execution path,
checkpoint/resume round-trips, interrupted campaigns, timeout-driven
degradation and corrupt-journal recovery.
"""

import os
import sys
import threading
import time

import pytest

import repro.core.sharded as sharded_mod
from repro.core.campaign import (
    _job_fingerprint,
    execute_self_test,
    grade_component,
    run_campaign,
)
from repro.core.methodology import SelfTestMethodology
from repro.faultsim.faults import build_fault_list
from repro.faultsim.options import GradeOptions
from repro.plasma.components import component
from repro.reporting.tables import render_table5
from repro.runtime import RetryPolicy, RuntimeConfig
from repro.runtime.checkpoint import CheckpointStore

FAST = ["CTRL", "BMUX"]

_real_grade_shard = sharded_mod.grade_shard


def _config(tmp_path=None, resume=False, attempts=2, timeout=None,
            isolate=True, jobs=1):
    return RuntimeConfig(
        timeout_seconds=timeout,
        retry=RetryPolicy(max_attempts=attempts, backoff_seconds=0),
        checkpoint_dir=tmp_path,
        resume=resume,
        isolate=isolate,
        jobs=jobs,
        sleep=lambda s: None,
    )


def _hang_component(name, lo, hi):
    if name == "BMUX":
        time.sleep(60)
    return _real_grade_shard(name, lo, hi)


def _crash_component(name, lo, hi):
    if name == "BMUX":
        os._exit(11)
    return _real_grade_shard(name, lo, hi)


def _interrupt_component(name, lo, hi):
    if name == "BMUX":
        raise KeyboardInterrupt  # simulates the user killing the campaign
    return _real_grade_shard(name, lo, hi)


@pytest.fixture(scope="module")
def reference():
    """Per-component facade grades of the traced phase-A stimulus."""
    self_test = SelfTestMethodology().build_program("A")
    _, tracer, _ = execute_self_test(self_test)
    specs = tracer.finalize()
    return {
        name: grade_component(component(name), *specs[name])
        for name in FAST
    }


@pytest.fixture(scope="module")
def in_process_table5():
    return render_table5({"A": run_campaign("A", components=FAST)})


class TestPathEquivalence:
    """Every execution path plans, grades and merges the same verdicts."""

    @pytest.mark.parametrize(
        "path", ["in-process", "runner-checkpoint", "pool-jobs1", "jobs2"]
    )
    def test_paths_agree(self, path, tmp_path, reference, in_process_table5):
        runtime = {
            "in-process": None,
            "runner-checkpoint": _config(tmp_path, isolate=False),
            "pool-jobs1": _config(jobs=1),
            "jobs2": _config(jobs=2),
        }[path]
        outcome = run_campaign("A", components=FAST, runtime=runtime)
        assert render_table5({"A": outcome}) == in_process_table5
        assert not outcome.degraded
        for name in FAST:
            got, want = outcome.results[name], reference[name]
            assert got.detected == want.detected
            assert got.proven == want.proven
            assert got.n_patterns == want.n_patterns
            # Per-fault verdicts, not just the aggregate sets.
            assert got.detections == want.detections
        if runtime is None:
            assert outcome.events == []
        else:
            kinds = [e.kind for e in outcome.events]
            shards = {e.job for e in outcome.events}
            assert kinds.count("success") == len(shards)
            assert len(shards) == (2 if runtime.jobs == 1 else 12)
        if path == "runner-checkpoint":
            journaled = CheckpointStore(tmp_path).load()
            assert set(journaled) == {"A:CTRL#01/01", "A:BMUX#01/01"}


class TestInProcess:
    def test_planner_objects_reused_then_released(self, monkeypatch):
        import repro.analysis.collapse as collapse_mod
        import repro.core.campaign as campaign_mod
        import repro.faultsim.engine as engine_mod

        built = []
        held = []

        def counting(real):
            def wrapper(netlist, *args, **kwargs):
                built.append(real.__name__)
                return real(netlist, *args, **kwargs)
            return wrapper

        def spying_shard(name, lo, hi):
            context = sharded_mod._ACTIVE.context
            held.append(set(context.components))
            return _real_grade_shard(name, lo, hi)

        # The prepared grade builds the fault list on first use.
        for module in (campaign_mod, engine_mod):
            monkeypatch.setattr(
                module, "build_fault_list", counting(module.build_fault_list)
            )
        monkeypatch.setattr(
            collapse_mod, "compute_collapse",
            counting(collapse_mod.compute_collapse),
        )
        monkeypatch.setattr(sharded_mod, "grade_shard", spying_shard)
        run_campaign(
            "A", components=FAST, options=GradeOptions(collapse=True)
        )
        # One fault list and one collapse map per component, both from
        # the planner; each shard sees only its own component's state.
        assert sorted(built) == sorted(
            ["build_fault_list", "compute_collapse"] * len(FAST)
        )
        assert held == [{"CTRL"}, {"BMUX"}]
        assert sharded_mod._ACTIVE.context is None

    def test_concurrent_threads_keep_their_own_context(self):
        # The campaign service grades in-process campaigns on several
        # threads at once; each must read its own traces, not another
        # thread's (phase AB drives CTRL differently from phase A).
        phases = ["A", "AB", "A", "AB"]
        want = {
            p: run_campaign(p, components=["CTRL"]).table5()
            for p in set(phases)
        }
        got: dict[int, list] = {}

        def grade(i):
            got[i] = run_campaign(phases[i], components=["CTRL"]).table5()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=grade, args=(i,))
                for i in range(len(phases))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert want["A"] != want["AB"]
        assert got == {i: want[p] for i, p in enumerate(phases)}

    def test_concurrent_threads_keep_their_own_trace_store(
        self, tmp_path, monkeypatch
    ):
        # Campaign A grades with a store, campaign B without.  B starts
        # after A and is inside its own shard while A's shard builds the
        # good trace, so a store shared through process state would be
        # B's (none) by then.
        from repro.core.campaign import grade_traced
        from repro.faultsim.store import TraceStore
        from repro.faultsim.trace_cache import global_trace_cache

        self_test = SelfTestMethodology().build_program("A")
        cpu_result, tracer, _ = execute_self_test(self_test)
        specs = tracer.finalize()
        store = TraceStore(tmp_path)
        a_inside, b_inside, a_done = (threading.Event() for _ in range(3))

        def gated_shard(name, lo, hi):
            if sharded_mod._ACTIVE.context.options.store is None:  # B
                b_inside.set()
                a_done.wait(timeout=120)
                return _real_grade_shard(name, lo, hi)
            a_inside.set()
            b_inside.wait(timeout=120)
            try:
                return _real_grade_shard(name, lo, hi)
            finally:
                a_done.set()

        outcomes = {}

        def run(label, options):
            outcomes[label] = grade_traced(
                self_test, cpu_result, specs, components=["CTRL"],
                options=options,
            )

        monkeypatch.setattr(sharded_mod, "grade_shard", gated_shard)
        global_trace_cache().clear()
        thread_a = threading.Thread(
            target=run, args=("A", GradeOptions(cache=store))
        )
        thread_b = threading.Thread(target=run, args=("B", GradeOptions()))
        thread_a.start()
        assert a_inside.wait(timeout=120)
        thread_b.start()
        for thread in (thread_a, thread_b):
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert set(outcomes) == {"A", "B"}
        traces, verdicts = store.record_count()
        assert (traces, verdicts) == (1, 1), "A's good trace missed A's store"
        assert outcomes["A"].table5() == outcomes["B"].table5()

    def test_grading_exception_reaches_the_caller(self, monkeypatch):
        calls = []

        def exploding_shard(name, lo, hi):
            calls.append(name)
            raise ValueError("synthetic grading failure")

        monkeypatch.setattr(sharded_mod, "grade_shard", exploding_shard)
        with pytest.raises(ValueError, match="synthetic grading failure"):
            run_campaign("A", components=FAST)
        # No retries, and the campaign stops at the first failure
        # instead of rendering a degraded row.
        assert calls == ["CTRL"]


class TestCheckpointResume:
    def test_interrupted_campaign_resumes(self, tmp_path, monkeypatch):
        # Run 1: the campaign dies mid-run (simulated Ctrl-C while grading
        # the second component).  The first component is already journaled.
        monkeypatch.setattr(
            sharded_mod, "grade_shard", _interrupt_component
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                "A", components=FAST,
                runtime=_config(tmp_path, isolate=False),
            )
        journaled = CheckpointStore(tmp_path).load()
        assert set(journaled) == {"A:CTRL#01/01"}

        # Run 2: --resume grades only the remainder...
        monkeypatch.setattr(sharded_mod, "grade_shard", _real_grade_shard)
        resumed = run_campaign(
            "A", components=FAST, runtime=_config(tmp_path, resume=True)
        )
        per_job = {e.job: e.kind for e in resumed.events}
        assert per_job["A:CTRL#01/01"] == "cached"
        assert any(
            e.job == "A:BMUX#01/01" and e.kind == "success"
            for e in resumed.events
        )
        # ... and the final table is identical to an uninterrupted run.
        uninterrupted = run_campaign("A", components=FAST)
        assert render_table5({"A": resumed}) == render_table5(
            {"A": uninterrupted}
        )

    def test_resume_skips_all_completed(self, tmp_path):
        run_campaign("A", components=FAST, runtime=_config(tmp_path))
        resumed = run_campaign(
            "A", components=FAST, runtime=_config(tmp_path, resume=True)
        )
        assert [e.kind for e in resumed.events] == ["cached", "cached"]
        assert not resumed.degraded

    def test_corrupt_checkpoint_recovery(self, tmp_path):
        run_campaign("A", components=FAST, runtime=_config(tmp_path))
        store = CheckpointStore(tmp_path)
        # Vandalise the journal: corrupt CTRL's line, keep BMUX's.
        lines = store.path.read_text().splitlines()
        assert len(lines) == 2
        store.path.write_text("CORRUPTED {{{\n" + lines[1] + "\n")

        resumed = run_campaign(
            "A", components=FAST, runtime=_config(tmp_path, resume=True)
        )
        per_job = {}
        for e in resumed.events:
            per_job.setdefault(e.job, []).append(e.kind)
        assert per_job["A:CTRL#01/01"][-1] == "success"  # re-graded
        assert per_job["A:BMUX#01/01"] == ["cached"]     # salvaged
        uninterrupted = run_campaign("A", components=FAST)
        assert render_table5({"A": resumed}) == render_table5(
            {"A": uninterrupted}
        )

    def test_resumed_merge_is_not_stored(self, tmp_path):
        # Journaled shards carry no per-fault Detection records; storing
        # their merge would make every later store replay lose them.
        journal, cache = tmp_path / "ckpt", tmp_path / "cache"
        run_campaign(
            "A", components=["CTRL"], runtime=_config(journal, isolate=False)
        )
        run_campaign(
            "A", components=["CTRL"], options=GradeOptions(cache=cache),
            runtime=_config(journal, resume=True, isolate=False),
        )
        replay = run_campaign(
            "A", components=["CTRL"], options=GradeOptions(cache=cache)
        )
        cold = run_campaign("A", components=["CTRL"])
        assert replay.results["CTRL"].detections == (
            cold.results["CTRL"].detections
        )

    def test_component_format_journal_is_not_trusted(self, tmp_path):
        # A journal from before shard keys: one record per component
        # under "A:CTRL", with the component fingerprint of that era.
        # Its detected set is vandalised, so trusting it would show.
        self_test = SelfTestMethodology().build_program("A")
        info = component("CTRL")
        n_faults = build_fault_list(info.builder()).n_collapsed
        record = {
            "name": "CTRL", "n_faults": n_faults, "detected": [],
            "n_patterns": 2646, "nand2": 1, "elapsed": 0.0, "pruned": [],
            "proven": [], "n_simulated": n_faults, "n_inferred": 0,
            "collapse_hash": "",
        }
        CheckpointStore(tmp_path).append(
            "A:CTRL", record, _job_fingerprint(self_test, info)
        )
        resumed = run_campaign(
            "A", components=["CTRL"],
            runtime=_config(tmp_path, resume=True, isolate=False),
        )
        kinds = [(e.job, e.kind) for e in resumed.events]
        assert ("A:CTRL#01/01", "success") in kinds
        assert all(kind != "cached" for _, kind in kinds)
        uninterrupted = run_campaign("A", components=["CTRL"])
        assert render_table5({"A": resumed}) == render_table5(
            {"A": uninterrupted}
        )


class TestGracefulDegradation:
    def test_timeout_retry_then_degraded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sharded_mod, "grade_shard", _hang_component)
        outcome = run_campaign(
            "A", components=FAST,
            runtime=_config(tmp_path, timeout=0.5),
        )
        assert outcome.degraded_components == ["BMUX"]
        assert outcome.degraded
        kinds = [e.kind for e in outcome.events if e.job == "A:BMUX#01/01"]
        assert kinds == ["start", "timeout", "retry", "start", "timeout",
                         "degraded"]
        # The degraded component reports its full fault universe with
        # nothing detected: a coverage lower bound.
        bmux = outcome.results["BMUX"]
        assert bmux.n_faults > 0
        assert bmux.n_detected == 0
        cov = outcome.summary.component("BMUX")
        assert cov.degraded
        assert outcome.summary.degraded_components == ["BMUX"]
        # The other component graded normally.
        assert outcome.results["CTRL"].n_detected > 0
        assert not outcome.summary.component("CTRL").degraded

    def test_worker_crash_then_degraded(self, monkeypatch):
        monkeypatch.setattr(sharded_mod, "grade_shard", _crash_component)
        outcome = run_campaign(
            "A", components=["BMUX"], runtime=_config(attempts=2)
        )
        assert outcome.degraded_components == ["BMUX"]
        kinds = [e.kind for e in outcome.events]
        assert kinds == ["start", "crash", "retry", "start", "crash",
                         "degraded"]

    def test_degraded_table5_rendering(self, monkeypatch):
        monkeypatch.setattr(sharded_mod, "grade_shard", _crash_component)
        outcome = run_campaign(
            "A", components=FAST, runtime=_config(attempts=1)
        )
        table = render_table5({"A": outcome})
        assert "0.00*" in table
        assert "lower bound" in table
        rows = outcome.table5()
        by_name = {r["name"]: r for r in rows}
        assert by_name["BMUX"]["degraded"]
        assert not by_name["CTRL"]["degraded"]
        assert by_name["Plasma"]["degraded"]
