"""Real-workload verdicts stay pinned to the reference campaign.

Grades GL, PLN and PCL in phase A with the CLI's default options and
compares each component's verdict fingerprint (detected set, excitation
flags and first detecting cycles) with the full reference campaign in
``perfbench/golden.json``.  Both perfbench files are only read.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core.campaign import run_campaign
from repro.faultsim.options import GradeOptions

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
