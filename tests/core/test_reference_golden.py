"""Real-workload verdicts stay pinned to the reference campaign.

Grades GL, PLN and PCL in phase A with the CLI's default options and
compares each component's verdict fingerprint (detected set, excitation
flags and first detecting cycles) with the full reference campaign in
``perfbench/golden.json``.  All ten components are also graded on the
benchmark's sample (``golden.sample_members``: whole dominance trees of
every 40th root) and compared with the ``A_sample`` fingerprints, so
every engine and good-machine path the default options pick runs on
real stimulus; the six sequential components are graded through both
engines as well.  Both perfbench files are only read.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis.collapse import compute_collapse
from repro.core.campaign import execute_self_test, run_campaign
from repro.core.methodology import SelfTestMethodology
from repro.faultsim.engine import grade
from repro.faultsim.faults import build_fault_list
from repro.faultsim.options import GradeOptions
from repro.plasma.components import COMPONENTS as ALL_COMPONENTS

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
COMPONENTS = ["GL", "PLN", "PCL"]


def _golden_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_golden", PERFBENCH / "golden.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def outcome():
    return run_campaign(
        "A", components=COMPONENTS, options=GradeOptions(collapse=True)
    )


@pytest.mark.parametrize("name", COMPONENTS)
def test_fingerprint_matches_reference_campaign(outcome, name):
    golden = _golden_module()
    expected = golden.load_golden()["A"]["components"][name]
    assert golden.fingerprint(outcome.results[name]) == expected


@pytest.fixture(scope="module")
def phase_a_specs():
    self_test = SelfTestMethodology().build_program("A")
    _, tracer, _ = execute_self_test(self_test)
    return tracer.finalize()


@pytest.fixture(scope="module")
def sampled():
    """Per component: its netlist, collapse map and sampled members."""
    golden = _golden_module()
    built = {}

    def build(info):
        if info.name not in built:
            netlist = info.builder()
            cmap = compute_collapse(netlist, build_fault_list(netlist))
            built[info.name] = netlist, cmap, golden.sample_members(cmap)
        return built[info.name]

    return build


def _grade_sample(phase_a_specs, sampled, info, engine="auto"):
    golden = _golden_module()
    netlist, cmap, members = sampled(info)
    stimulus, observe = phase_a_specs[info.name]
    result = grade(netlist, stimulus, options=GradeOptions(
        engine=engine, collapse=cmap, observe=observe, name=info.name,
        subset=members,
    ))
    expected = golden.load_golden()["A_sample"]["components"][info.name]
    assert golden.fingerprint(result, members) == expected


@pytest.mark.parametrize("info", ALL_COMPONENTS, ids=lambda c: c.name)
def test_sample_fingerprint_matches_reference(phase_a_specs, sampled, info):
    _grade_sample(phase_a_specs, sampled, info)


@pytest.mark.parametrize("engine", ["differential", "packed"])
@pytest.mark.parametrize(
    "info", [c for c in ALL_COMPONENTS if c.sequential], ids=lambda c: c.name
)
def test_sample_fingerprint_per_engine(phase_a_specs, sampled, info, engine):
    # Both sequential walks stay pinned whichever one "auto" picks.
    _grade_sample(phase_a_specs, sampled, info, engine)
