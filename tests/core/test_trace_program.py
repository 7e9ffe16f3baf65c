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
    """Every stimulus and observe entry of a traced run, plus its
    ``CPUResult``."""
    cpu_result, specs = traced
    digest = hashlib.sha256(repr(cpu_result).encode())
    for name in sorted(specs):
        stimulus, observe = specs[name]
        digest.update(name.encode())
        for entry in stimulus:
            digest.update(repr(sorted(entry.items())).encode())
        for entry in observe:
            digest.update(repr(entry).encode())
    return digest.hexdigest()


class TestOneRunPerProgram:
    def test_second_grade_program_runs_no_cpu(self, cpu_runs):
        components = ["CTRL", "BMUX"]
        first = grade_program(_phase_a(), components=components)
        second = grade_program(_phase_a(), components=components)
        assert len(cpu_runs) == 1
        assert first.table5() == second.table5()
        assert _verdicts(first) == _verdicts(second)
        assert second.cpu_result is first.cpu_result
        assert program_trace_memo().counts() == {"traced": 1, "reused": 1}

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
        assert program_trace_memo().counts() == {"traced": 1, "reused": 1}

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
        assert program_trace_memo().counts() == {"traced": 1, "reused": 1}


class TestSharedObjectsStayUnchanged:
    """Grading reads the memoized stimulus and observe entries and the
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
