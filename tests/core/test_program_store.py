"""Traced programs in the persistent store.

A memo miss in ``trace_program(self_test, store)`` reads the traced run
from the store before it runs the CPU, so a second process grading the
same program on the same store runs no CPU at all.  These tests pin
that a loaded run equals a traced one, that the key covers the package
source, and that a damaged record only ever costs a CPU run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import repro
from repro.core import campaign as campaign_mod
from repro.core.campaign import (
    grade_program,
    program_trace_memo,
    run_campaign,
    trace_program,
)
from repro.core.methodology import SelfTestMethodology
from repro.faultsim.options import GradeOptions
from repro.faultsim.store import (
    TraceStore,
    plan_doc,
    plan_from_doc,
    stimulus_doc,
    stimulus_from_doc,
)
from repro.faultsim.observe import ObservePlan
from repro.netlist.hashing import stimulus_hash
from repro.plasma.cpu import PlasmaCPU

FAST = ["CTRL", "GL"]
PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _golden_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_golden", PERFBENCH / "golden.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cpu_runs(monkeypatch):
    """An empty memo and source digest, and the ``PlasmaCPU.run`` calls
    made."""
    program_trace_memo().clear()
    source_digest = campaign_mod._source_digest
    source_digest.cache_clear()
    runs = []
    real_run = PlasmaCPU.run

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(PlasmaCPU, "run", counting_run)
    yield runs
    program_trace_memo().clear()
    source_digest.cache_clear()


def _program(phases="A"):
    return SelfTestMethodology().build_program(phases)


def _record(store):
    """The one program record's path."""
    (path,) = (store.root / "programs").glob("*/*.rec")
    return path


def _verdicts(outcome):
    return {
        name: {
            rep: (det.detected, det.excited, det.cycle)
            for rep, det in result.detections.items()
        }
        for name, result in outcome.results.items()
    }


class TestLoadedEqualsTraced:
    @pytest.mark.parametrize("phases", ["A", "AB"])
    def test_every_field(self, cpu_runs, tmp_path, phases):
        store = TraceStore(tmp_path)
        traced = trace_program(_program(phases), store)
        assert store.program_count() == 1
        program_trace_memo().clear()
        loaded = trace_program(_program(phases), store)
        assert len(cpu_runs) == 1
        assert program_trace_memo().counts() == {
            "traced": 0, "loaded": 1, "reused": 0,
        }
        assert loaded[0] == traced[0]
        assert loaded[1].keys() == traced[1].keys()
        for name, (stimulus, plan) in traced[1].items():
            got_stimulus, got_plan = loaded[1][name]
            assert got_stimulus == stimulus
            assert got_plan.n_entries == plan.n_entries
            assert got_plan.entries == plan.entries
            assert got_plan.signature() == plan.signature()
            assert stimulus_hash(got_stimulus) == stimulus_hash(stimulus)
            # Equal entries share one dict: one per distinct row.
            distinct = {tuple(entry.items()) for entry in stimulus}
            assert len({id(e) for e in got_stimulus}) == len(distinct)

    def test_phase_a_muld_shares_43_rows(self, cpu_runs, tmp_path):
        store = TraceStore(tmp_path)
        trace_program(_program(), store)
        program_trace_memo().clear()
        stimulus, _ = trace_program(_program(), store)[1]["MulD"]
        assert len(stimulus) == 5096
        assert len({id(entry) for entry in stimulus}) == 43


class TestSecondProcess:
    def test_runs_no_cpu_and_grades_the_same(self, cpu_runs, tmp_path):
        options = GradeOptions(collapse=True, cache=TraceStore(tmp_path))
        first = run_campaign("A", components=FAST, options=options)
        assert first.program_source == "traced"
        program_trace_memo().clear()
        runs = len(cpu_runs)
        second = run_campaign("A", components=FAST, options=options)
        assert len(cpu_runs) == runs == 1
        assert second.program_source == "loaded"
        assert sorted(second.cached_components) == sorted(FAST)
        assert second.table4() == first.table4()
        assert second.table5() == first.table5()
        assert _verdicts(second) == _verdicts(first)
        golden = _golden_module()
        assert {n: golden.fingerprint(r) for n, r in second.results.items()} \
            == {n: golden.fingerprint(r) for n, r in first.results.items()}

    def test_a_memo_hit_reads_no_store(self, cpu_runs, tmp_path):
        store = TraceStore(tmp_path)
        trace_program(_program(), store)
        outcome = grade_program(
            _program(), components=["CTRL"], options=GradeOptions(cache=store)
        )
        assert outcome.program_source == "reused"
        assert (store.stats.program_hits, store.stats.program_misses) == (0, 1)
        assert len(cpu_runs) == 1


class TestKey:
    def test_another_source_digest_misses(
        self, cpu_runs, tmp_path, monkeypatch
    ):
        store = TraceStore(tmp_path)
        trace_program(_program(), store)
        program_trace_memo().clear()
        monkeypatch.setattr(campaign_mod, "_source_digest", lambda: "edited")
        trace_program(_program(), store)
        assert len(cpu_runs) == 2
        assert store.stats.program_misses == 2
        assert store.program_count() == 2

    def test_the_digest_covers_every_module(self, tmp_path, monkeypatch):
        package = tmp_path / "repro"
        (package / "deep" / "er").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        module = package / "deep" / "er" / "module.py"
        module.write_text("X = 1\n")
        monkeypatch.setattr(repro, "__file__", str(package / "__init__.py"))
        digests = []
        for text in ("X = 1\n", "X = 2\n", "X = 1\n"):
            module.write_text(text)
            campaign_mod._source_digest.cache_clear()
            digests.append(campaign_mod._source_digest())
        campaign_mod._source_digest.cache_clear()
        assert digests[0] == digests[2] != digests[1]

    def test_no_readable_source_persists_nothing(
        self, cpu_runs, tmp_path, monkeypatch
    ):
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.setattr(repro, "__file__", str(empty / "__init__.py"))
        store = TraceStore(tmp_path / "store")
        trace_program(_program(), store)
        assert store.program_count() == 0
        assert store.stats.program_misses == 0


class TestDamagedRecords:
    @pytest.mark.parametrize("damage", ["truncated", "bit flip", "columns"])
    def test_quarantined_and_re_traced(self, cpu_runs, tmp_path, damage):
        store = TraceStore(tmp_path)
        options = GradeOptions(cache=store)
        first = grade_program(_program(), components=FAST, options=options)
        path = _record(store)
        blob = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(blob[: len(blob) // 2])
        elif damage == "bit flip":
            path.write_bytes(blob[:-10] + bytes([blob[-10] ^ 1]) + blob[-9:])
        else:  # a valid checksum over a record that does not decode
            doc = json.loads(blob.split(b"\n", 1)[1])
            doc["components"]["MulD"]["stimulus"]["n_rows"] = 1
            store.save_program(path.stem, doc)
        program_trace_memo().clear()
        again = grade_program(_program(), components=FAST, options=options)
        assert again.program_source == "traced"
        assert len(cpu_runs) == 2
        assert store.stats.corrupt == 1
        assert len(list((tmp_path / "quarantine").iterdir())) == 1
        assert again.table5() == first.table5()
        # The re-traced run replaced the damaged record.
        program_trace_memo().clear()
        trace_program(_program(), store)
        assert len(cpu_runs) == 2


class TestWhatIsPersisted:
    def test_no_store_writes_nothing(self, cpu_runs, tmp_path, monkeypatch):
        digests = []
        monkeypatch.setattr(
            campaign_mod, "_source_digest", lambda: digests.append(1)
        )
        monkeypatch.chdir(tmp_path)
        outcome = grade_program(_program(), components=["CTRL"])
        assert outcome.program_source == "traced"
        assert digests == []
        assert list(tmp_path.iterdir()) == []

    def test_an_inexact_stimulus_is_not_persisted(
        self, cpu_runs, tmp_path, monkeypatch
    ):
        real_trace = campaign_mod._trace

        def wide_trace(self_test):
            cpu_result, specs = real_trace(self_test)
            stimulus, plan = specs["GL"]
            stimulus = [dict(stimulus[0], irq=1 << 40), *stimulus[1:]]
            return cpu_result, {**specs, "GL": (stimulus, plan)}

        monkeypatch.setattr(campaign_mod, "_trace", wide_trace)
        store = TraceStore(tmp_path)
        trace_program(_program(), store)
        assert store.program_count() == 0


class TestCodec:
    @pytest.mark.parametrize("stimulus", [
        [{"a": True}],
        [{"a": -1}],
        [{"a": 1 << 32}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
        [{"a": 1}, {"b": 1}],
    ], ids=["bool", "negative", "wide", "key order", "other keys"])
    def test_inexact_stimulus_has_no_doc(self, stimulus):
        assert stimulus_doc(stimulus) is None

    @pytest.mark.parametrize("stimulus", [
        [],
        [{}, {}],
        [{"a": 0, "b": 7}, {"a": 0, "b": 7}, {"a": 1 << 31, "b": 0}],
    ], ids=["empty", "no ports", "rows"])
    def test_stimulus_round_trip(self, stimulus):
        doc = json.loads(json.dumps(stimulus_doc(stimulus)))
        assert stimulus_from_doc(doc) == stimulus

    @pytest.mark.parametrize("plan", [
        ObservePlan.everything(3),
        ObservePlan.from_spec([["x"], {"y": 2, "x": 0}, ["x"]], 3),
    ], ids=["everything", "entries"])
    def test_plan_round_trip(self, plan):
        got = plan_from_doc(json.loads(json.dumps(plan_doc(plan))))
        assert (got.n_entries, got.entries) == (plan.n_entries, plan.entries)
        assert got.signature() == plan.signature()

    @pytest.mark.parametrize("field, value", [
        ("n_entries", 4), ("entries", [[["x", -1]]]), ("entries", "x"),
    ])
    def test_malformed_plan_raises(self, field, value):
        doc = plan_doc(ObservePlan.from_spec([["x"], ["x"], ["x"]], 3))
        doc[field] = value
        with pytest.raises((KeyError, TypeError, ValueError)):
            plan_from_doc(doc)
