"""``trace_program``: one traced CPU run per distinct program per process.

``grade_program`` (and so ``run_campaign``, the CLI and the service)
takes its traced run from a small, thread-safe, value-keyed LRU memo.
These tests count ``PlasmaCPU.run`` calls, pin the memo's key and bound,
and guard the shared objects: grading must never modify them.
"""

import copy
import hashlib
import threading
import time

import pytest

from repro.core.campaign import (
    PROGRAM_TRACE_ENTRIES,
    grade_program,
    program_trace_memo,
    trace_program,
)
from repro.core.methodology import SelfTestMethodology, SelfTestProgram
from repro.faultsim.observe import ObservePlan
from repro.faultsim.options import GradeOptions
from repro.faultsim.store import TraceStore
from repro.isa.assembler import assemble
from repro.plasma.cpu import PlasmaCPU
from repro.runtime import RuntimeConfig


@pytest.fixture
def cpu_runs(monkeypatch):
    """An empty memo, and the list of ``PlasmaCPU.run`` calls made."""
    program_trace_memo().clear()
    runs = []
    real_run = PlasmaCPU.run

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(PlasmaCPU, "run", counting_run)
    yield runs
    program_trace_memo().clear()


def _phase_a():
    return SelfTestMethodology().build_program("A")


def _tiny(value):
    """A distinct, cheap program: load ``value`` and halt."""
    source = (
        f".text\n    addiu $t0, $zero, {value}\nhalt:\n    j halt\n    nop\n"
    )
    return SelfTestProgram(
        phases="T", source=source, program=assemble(source)
    )


def _verdicts(outcome):
    return {
        name: {
            rep: (det.detected, det.excited, det.cycle)
            for rep, det in result.detections.items()
        }
        for name, result in outcome.results.items()
    }


def _digest(traced):
    """Every stimulus entry and observe plan entry of a traced run, plus
    its ``CPUResult``."""
    cpu_result, specs = traced
    digest = hashlib.sha256(repr(cpu_result).encode())
    for name in sorted(specs):
        stimulus, plan = specs[name]
        digest.update(name.encode())
        for entry in stimulus:
            digest.update(repr(sorted(entry.items())).encode())
        digest.update(repr(plan.n_entries).encode())
        for entry in plan.entries or ():
            digest.update(repr(entry).encode())
    return digest.hexdigest()


@pytest.fixture
def raw_plans(monkeypatch):
    """The raw observe specs ``ObservePlan.from_spec`` normalizes."""
    built = []
    real_from_spec = ObservePlan.from_spec

    def counting_from_spec(cls, observe, n_entries, netlist=None):
        if observe is not None and not isinstance(observe, ObservePlan):
            built.append(observe)
        return real_from_spec(observe, n_entries, netlist)

    monkeypatch.setattr(
        ObservePlan, "from_spec", classmethod(counting_from_spec)
    )
    return built


class TestOneRunPerProgram:
    def test_second_grade_program_runs_no_cpu(self, cpu_runs):
        components = ["CTRL", "BMUX"]
        first = grade_program(_phase_a(), components=components)
        second = grade_program(_phase_a(), components=components)
        assert len(cpu_runs) == 1
        assert first.table5() == second.table5()
        assert _verdicts(first) == _verdicts(second)
        assert second.cpu_result is first.cpu_result
        assert program_trace_memo().counts() == {"traced": 1, "loaded": 0, "reused": 1}

    def test_returns_the_same_objects(self, cpu_runs):
        first = trace_program(_phase_a())
        second = trace_program(_phase_a())
        assert second[0] is first[0]
        for name, (stimulus, observe) in first[1].items():
            assert second[1][name][0] is stimulus
            assert second[1][name][1] is observe

    def test_cpu_result_is_frozen(self, cpu_runs):
        cpu_result, _ = trace_program(_tiny(1))
        with pytest.raises(AttributeError):
            cpu_result.cycles = 0


class TestKey:
    def test_other_phases_miss(self, cpu_runs):
        trace_program(_phase_a())
        ab = trace_program(SelfTestMethodology().build_program("AB"))
        assert len(cpu_runs) == 2
        assert ab[0].cycles > trace_program(_phase_a())[0].cycles
        assert len(cpu_runs) == 2

    def test_one_changed_word_misses(self, cpu_runs):
        original = _phase_a()
        changed = copy.deepcopy(original)
        segment = next(s for s in changed.program.segments if not s.is_code)
        segment.words[0] ^= 1
        trace_program(original)
        trace_program(changed)
        assert len(cpu_runs) == 2

    def test_only_what_the_cpu_loads_counts(self, cpu_runs):
        original = _phase_a()
        relabelled = copy.deepcopy(original)
        relabelled.phases = "relabelled"
        relabelled.program.listing = []
        relabelled.program.line_map = {}
        assert trace_program(relabelled) is trace_program(original)
        assert len(cpu_runs) == 1


class TestBound:
    def test_one_past_the_bound_evicts_the_oldest(self, cpu_runs):
        programs = [_tiny(i) for i in range(PROGRAM_TRACE_ENTRIES + 1)]
        for program in programs:
            trace_program(program)
        assert len(cpu_runs) == PROGRAM_TRACE_ENTRIES + 1
        trace_program(programs[-1])  # newest: still held
        assert len(cpu_runs) == PROGRAM_TRACE_ENTRIES + 1
        trace_program(programs[0])  # oldest: evicted, runs again
        assert len(cpu_runs) == PROGRAM_TRACE_ENTRIES + 2

    def test_a_use_refreshes_an_entry(self, cpu_runs):
        programs = [_tiny(i) for i in range(PROGRAM_TRACE_ENTRIES + 1)]
        for program in programs[:-1]:
            trace_program(program)
        trace_program(programs[0])  # now the most recently used
        trace_program(programs[-1])  # evicts programs[1]
        runs = len(cpu_runs)
        trace_program(programs[0])
        assert len(cpu_runs) == runs
        trace_program(programs[1])
        assert len(cpu_runs) == runs + 1


class TestConcurrency:
    def test_concurrent_misses_trace_once(self, cpu_runs, monkeypatch):
        counting_run = PlasmaCPU.run

        def slow_run(self, *args, **kwargs):
            time.sleep(0.3)  # both threads arrive while the run is on
            return counting_run(self, *args, **kwargs)

        monkeypatch.setattr(PlasmaCPU, "run", slow_run)
        program = _tiny(7)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(trace_program(program))
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert len(cpu_runs) == 1
        assert len(results) == 2 and results[0] is results[1]
        assert program_trace_memo().counts() == {"traced": 1, "loaded": 0, "reused": 1}

    def test_a_failed_run_stores_nothing(self, cpu_runs, monkeypatch):
        counting_run = PlasmaCPU.run
        failures = [RuntimeError("boom")]

        def failing_once(self, *args, **kwargs):
            if failures:
                raise failures.pop()
            return counting_run(self, *args, **kwargs)

        monkeypatch.setattr(PlasmaCPU, "run", failing_once)
        program = _tiny(3)
        with pytest.raises(RuntimeError, match="boom"):
            trace_program(program)
        trace_program(program)
        trace_program(program)
        assert len(cpu_runs) == 1
        assert program_trace_memo().counts() == {"traced": 1, "loaded": 0, "reused": 1}


class TestPlansBuiltOnce:
    """The traced run carries each component's observe plan: later
    grades of the program reuse it instead of normalizing again."""

    def test_second_grade_program_builds_no_plan(self, cpu_runs, raw_plans):
        components = ["CTRL", "BMUX", "GL"]
        first = grade_program(_phase_a(), components=components)
        _, specs = trace_program(_phase_a())
        assert len(raw_plans) == len(specs)
        for stimulus, plan in specs.values():
            assert isinstance(plan, ObservePlan)
            assert plan.n_entries == len(stimulus)
        raw_plans.clear()
        second = grade_program(_phase_a(), components=components)
        assert raw_plans == []
        assert second.table5() == first.table5()
        assert _verdicts(second) == _verdicts(first)

    def test_store_replay_reuses_the_plan_signature(
        self, cpu_runs, raw_plans, tmp_path
    ):
        options = GradeOptions(cache=TraceStore(tmp_path))
        first = grade_program(_phase_a(), components=["GL"], options=options)
        raw_plans.clear()
        _, specs = trace_program(_phase_a())
        signature = specs["GL"][1].__dict__["_signature_memo"]
        replay = grade_program(_phase_a(), components=["GL"], options=options)
        assert replay.cached_components == ["GL"]
        assert raw_plans == []
        assert specs["GL"][1].__dict__["_signature_memo"] is signature
        assert _verdicts(replay) == _verdicts(first)


class TestSharedObjectsStayUnchanged:
    """Grading reads the memoized stimulus, observe plans and the
    ``CPUResult``; it must never change them, whichever way it runs."""

    def test_four_ways_of_grading(self, cpu_runs, tmp_path):
        components = ["CTRL", "BMUX", "PCL", "GL"]
        traced = trace_program(_phase_a())
        before = _digest(traced)
        store = TraceStore(tmp_path)
        collapsed = GradeOptions(collapse=True, cache=store)
        ways = {
            "collapse on": dict(options=collapsed),
            "collapse off": dict(options=GradeOptions(collapse=False)),
            "pooled": dict(
                options=GradeOptions(collapse=True),
                runtime=RuntimeConfig(jobs=2, isolate=True),
            ),
            "store replay": dict(options=collapsed),
        }
        outcomes = {
            way: grade_program(_phase_a(), components=components, **kwargs)
            for way, kwargs in ways.items()
        }
        assert sorted(outcomes["store replay"].cached_components) == sorted(
            components
        )
        assert _digest(traced) == before
        assert len(cpu_runs) == 1
        assert trace_program(_phase_a()) is traced
        reference = outcomes["collapse on"].table5()
        for outcome in outcomes.values():
            assert outcome.table5() == reference
