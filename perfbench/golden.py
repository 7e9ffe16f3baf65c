"""Golden verdict fingerprint of the reference campaign.

A verdict is the detected set, the excitation flags and the first
detecting cycle of every fault class.  The fingerprint of one graded
component condenses them into counts and two hashes, so a benchmark run
can prove it graded exactly what the reference campaign graded without
storing per-class records.

``golden.json`` beside this file holds:

* ``A``: phase A, all ten components, default options (what
  ``python -m repro campaign`` grades), with the Table 4 numbers and the
  overall fault coverage;
* ``A_sample``: the same campaign restricted to the sampled dominance
  trees of each component (``sample_members``; the ``campaign-A-cold``
  workload);
* ``AB``: phase AB for the six components the ``service-mix`` workload
  submits.

Regenerate it (minutes: the full campaign runs once) with::

    python3 perfbench/golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: The cold workload grades the dominance trees of every
#: SAMPLE_STRIDE-th root super-class of each component, so two
#: fresh-interpreter campaigns fit in one run while every engine pass
#: still runs on every component.
SAMPLE_STRIDE = 40

#: Components a service-mix submission may name (the fast ones).
SERVICE_COMPONENTS = ("ALU", "BSH", "CTRL", "BMUX", "PLN", "GL")


def _digest(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b";")
    return h.hexdigest()[:32]


def fingerprint(result: Any, members: Iterable[int] | None = None) -> dict:
    """Fingerprint one ``CampaignResult`` (optionally a subset of classes).

    Args:
        result: a graded :class:`repro.faultsim.harness.CampaignResult`.
        members: class representatives to cover (default: every class
            the result holds a detection record for).
    """
    reps = sorted(result.detections if members is None else members)
    detections = result.detections
    detected = [r for r in reps if detections[r].detected]
    return {
        "classes": len(reps),
        "detected": len(detected),
        "excited": sum(1 for r in reps if detections[r].excited),
        "detected_hash": _digest(str(r) for r in detected),
        "first_detect_hash": _digest(
            f"{r}:{detections[r].cycle}" for r in detected
        ),
    }


def overall_fc(prints: Mapping[str, Mapping[str, int]]) -> float:
    """Detected share of all covered classes, in percent."""
    classes = sum(p["classes"] for p in prints.values())
    return 100.0 * sum(p["detected"] for p in prints.values()) / classes


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def compare_prints(
    expected: Mapping[str, Mapping[str, Any]],
    actual: Mapping[str, Mapping[str, Any]],
) -> list[str]:
    """One message per component whose fingerprint differs (or is missing)."""
    problems = []
    for name in sorted(set(expected) | set(actual)):
        want, got = expected.get(name), actual.get(name)
        if want is None or got is None:
            problems.append(f"{name}: graded={got is not None} "
                            f"golden={want is not None}")
            continue
        diff = sorted(k for k in want if want[k] != got.get(k))
        if diff:
            problems.append(f"{name}: differs in {', '.join(diff)}")
    return problems


def compare_table5(
    golden: Mapping[str, Any], phases: str, rows: list[Mapping[str, Any]]
) -> list[str]:
    """Check Table 5 rows as a client sees them (service results).

    Each component row must match the golden class and detection counts;
    the ``Plasma`` row must equal their sums.
    """
    comps = golden[phases]["components"]
    problems = []
    faults = detected = 0
    plasma = None
    for row in rows:
        name = row.get("name")
        if name == "Plasma":
            plasma = row
            continue
        want = comps.get(name)
        if want is None:
            problems.append(f"{phases}:{name}: not in the golden file")
            continue
        if (row.get("faults"), row.get("detected")) != (
            want["classes"], want["detected"]
        ) or row.get("degraded"):
            problems.append(f"{phases}:{name}: row differs from golden")
        faults += int(row.get("faults", 0))
        detected += int(row.get("detected", 0))
    if plasma is None or (plasma.get("faults"), plasma.get("detected")) != (
        faults, detected
    ):
        problems.append(f"{phases}: Plasma row is not the component sum")
    return problems


def sample_members(cmap: Any, stride: int = SAMPLE_STRIDE) -> list[int]:
    """Members of whole dominance trees, one per ``stride`` roots.

    A root is a super-class that no dominator lists as a child.  Every
    ``stride``-th root in simulation order is taken with all of its
    descendants, so each sampled dominator has all its children in the
    sample and is inferred or simulated exactly as in the full campaign.
    """
    children = cmap.children
    dominated = {c for kids in children.values() for c in kids}
    roots = [s for s in cmap.simulation_order() if s not in dominated]
    chosen: set[int] = set()
    stack = roots[::stride]
    while stack:
        s = stack.pop()
        if s not in chosen:
            chosen.add(s)
            stack.extend(children.get(s, ()))
    return sorted(m for s in chosen for m in cmap.members(s))


def _generate() -> dict:
    """Grade everything the golden file covers (in-process, minutes)."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.analysis.collapse import compute_collapse
    from repro.core.campaign import execute_self_test, run_campaign
    from repro.faultsim.engine import grade
    from repro.faultsim.faults import build_fault_list
    from repro.faultsim.options import GradeOptions
    from repro.plasma.components import COMPONENTS

    golden: dict[str, Any] = {"sample_stride": SAMPLE_STRIDE}
    outcome = run_campaign("A", options=GradeOptions(collapse=True))
    full = {n: fingerprint(r) for n, r in outcome.results.items()}
    golden["A"] = {
        "table4": outcome.table4(),
        "overall_fc_pct": outcome.summary.overall_coverage,
        "components": full,
    }
    # The cold workload's sample, graded exactly as the workload grades
    # it (collapse map first, then a subset grade).
    _, tracer, _ = execute_self_test(outcome.self_test)
    specs = tracer.finalize()
    sample = {}
    for info in COMPONENTS:
        netlist = info.builder()
        cmap = compute_collapse(netlist, build_fault_list(netlist))
        stimulus, observe = specs[info.name]
        members = sample_members(cmap)
        result = grade(netlist, stimulus, options=GradeOptions(
            collapse=cmap, observe=observe, name=info.name, subset=members,
        ))
        sample[info.name] = fingerprint(result, members)
        # Whole dominance trees are graded exactly as in the full run, so
        # every sampled verdict, first detecting cycle included, must be
        # the full campaign's.
        if sample[info.name] != fingerprint(
            outcome.results[info.name], members
        ):
            raise SystemExit(f"{info.name}: sample disagrees with full run")
    golden["A_sample"] = {
        "table4": outcome.table4(),
        "overall_fc_pct": overall_fc(sample),
        "components": sample,
    }
    ab = run_campaign(
        "AB", components=list(SERVICE_COMPONENTS),
        options=GradeOptions(collapse=True),
    )
    golden["AB"] = {
        "table4": ab.table4(),
        "overall_fc_pct": ab.summary.overall_coverage,
        "components": {n: fingerprint(r) for n, r in ab.results.items()},
    }
    return golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python3 perfbench/golden.py --write")
    GOLDEN_PATH.write_text(json.dumps(_generate(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
