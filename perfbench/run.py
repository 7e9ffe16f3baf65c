"""Reference-campaign benchmark for the SBST fault-grading pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-A-cold --seed 1 \\
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Every graded verdict is checked against
``perfbench/golden.json``; a mismatch counts as a failed operation and
makes ``correct`` false.

Workloads (see ``perfbench/README.md`` for why each exists):

* ``campaign-A-cold``: the phase-A campaign with default options in a
  fresh interpreter, grading sampled dominance trees (``golden.py``) of
  all ten components, at least ``MIN_CAMPAIGNS`` times;
* ``campaign-A-warm``: the full phase-A campaign (``run_campaign``, as
  ``python -m repro campaign --cache-dir`` runs it) against a store that
  the first run in a checkout fills once;
* ``service-mix``: two closed-loop clients against
  ``python -m repro serve --workers 1`` (``service_mix.py``).

A per-layer (``--trace 1``) run of a campaign workload makes one
untraced and one traced campaign; the traced one times each layer's
public functions from ``child.py``.  A layer a workload does not
exercise reports 0.  Every time is in reference seconds: host seconds
scaled by the host's speed while they passed, which a sampler process
measures throughout the run (``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from golden import compare_prints, load_golden, overall_fc
from hostspeed import HostSpeed
from service_mix import run_load, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: Wall-clock limits for one child process.
CAMPAIGN_TIMEOUT = 170.0
FILL_TIMEOUT = 850.0

#: Set-up is a median of at least this many fresh-interpreter starts.
MIN_SETUPS = 9

#: A campaign run times at least this many campaigns, even if they take
#: longer than ``--seconds``, and reports their medians.
MIN_CAMPAIGNS = 2

#: The host-speed sampler stops by itself after this many seconds.
SAMPLER_SECONDS = 900.0

#: Source-tree stores kept in a checkout, newest first, so that runs of
#: two trees in one checkout do not refill each other's store.
KEPT_STORES = 2

#: The paper's phase-A figures (Table 4 cycles, Table 5 coverage).
PAPER_ANCHORS = "paper phase A: FC > 92%, 3,393 cycles"


class BenchFailure(Exception):
    """The benchmark could not produce a result."""


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_child(argv: list[str], timeout: float = CAMPAIGN_TIMEOUT) -> dict:
    """Run ``child.py`` in a fresh interpreter; its JSON plus wall stamps."""
    spawned = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchFailure(f"child {argv[0]} overran {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise BenchFailure(
            f"child {argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["spawned"] = spawned
    out["returned"] = time.time()
    return out


def ensure_store() -> tuple[Path, dict]:
    """The filled warm store for this source tree and its fill record.

    Filling runs the full default phase-A campaign once (minutes).  Every
    workload calls this, so the fill lands in the first run in a
    checkout, the one run allowed to take that long, whichever workload
    it is.  Later runs of the same source tree reuse it.  The record
    holds the full campaign's simulated and inferred class counts.
    """
    final = BUILD / f"store-{_tree_hash(ROOT / 'src')}"
    if (final / "fill.json").is_file():
        final.touch()  # newest-used first when older stores are dropped
        return final / "store", json.loads((final / "fill.json").read_text())
    BUILD.mkdir(parents=True, exist_ok=True)
    stores = sorted(BUILD.glob("store-*"), key=lambda p: p.stat().st_mtime,
                    reverse=True)
    for stale in [*stores[KEPT_STORES - 1:], *BUILD.glob("fill-*")]:
        shutil.rmtree(stale)
    print("perfbench: filling the warm store (one full campaign)",
          file=sys.stderr, flush=True)
    tmp = BUILD / f"fill-{os.getpid()}"
    tmp.mkdir()
    out = run_child(["fill", str(tmp / "store")], timeout=FILL_TIMEOUT)
    # The fill's verdicts are checked when the warm workload replays them.
    record = {"campaign_s": out["campaign_s"], "collapse": out["collapse"]}
    (tmp / "fill.json").write_text(json.dumps(record))
    os.replace(tmp, final)
    return final / "store", record


def _check_prints(golden: dict, key: str, out: dict) -> list[str]:
    problems = compare_prints(golden[key]["components"], out["prints"])
    cycles = golden[key]["table4"]["clock_cycles"]
    if out["cycles"] != cycles:
        problems.append(f"{out['cycles']} program cycles, golden {cycles}")
    return problems


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, operations: int, problems: list[str]) -> None:
        self.attempted += operations
        self.failed += min(operations, len(problems))
        for problem in problems:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)


def _fresh_process(argv: list[str], store: Path | None, work: Path,
                   speed: HostSpeed) -> dict:
    """Run ``child.py`` on a fresh copy of the store, if any; time set-up.

    ``setup_s`` and ``latency_s`` are in reference seconds.
    """
    copy_s = 0.0
    copy = work / "store"
    if store is not None:
        started = time.time()
        shutil.copytree(store, copy)
        copy_s = speed.seconds(started, time.time())
        argv = [argv[0], str(copy), *argv[1:]]
    try:
        out = run_child(argv)
    finally:
        if store is not None:
            shutil.rmtree(copy)
            shutil.rmtree(work / "store-save", ignore_errors=True)
    out["setup_s"] = copy_s + speed.seconds(out["spawned"], out["ready"])
    out["latency_s"] = speed.seconds(out["spawned"], out["returned"])
    return out


def _campaign(mode: str, store: Path | None, work: Path, golden: dict,
              tally: Tally, speed: HostSpeed, traced: bool = False) -> dict:
    """One fresh-interpreter campaign, its set-up included and checked.

    ``campaign_s`` is in reference seconds; ``factor`` is the host's
    mean speed during the campaign.
    """
    out = _fresh_process([mode, *(["--traced"] if traced else [])],
                         store, work, speed)
    out["factor"] = speed.factor(*out["span"])
    out["campaign_s"] *= out["factor"]
    key = "A_sample" if mode == "cold" else "A"
    problems = _check_prints(golden, key, out)
    simulated = sum(n for n, _ in out["collapse"].values())
    if mode == "warm" and (out["store_hits"] != 10 or simulated):
        problems.append(f"warm campaign replayed {out['store_hits']}/10 "
                        f"components, simulated {simulated} classes")
    tally.check(len(golden[key]["components"]), problems)
    return out


def _is_time(name: str) -> bool:
    """Whether a child's per-layer figure is in host seconds."""
    return name.endswith("_s") or "_s." in name


def campaign_workload(mode: str, args: argparse.Namespace, golden: dict,
                      work: Path, store: Path | None, fill: dict,
                      tally: Tally, speed: HostSpeed) -> dict[str, float]:
    if args.trace:
        plain = _campaign(mode, store, work, golden, tally, speed)
        traced = _campaign(mode, store, work, golden, tally, speed,
                           traced=True)
        # One factor for every span: a span is often shorter than the
        # time between two host-speed samples.
        layers = {name: value * traced["factor"] if _is_time(name) else value
                  for name, value in traced["layers"].items()}
        accounted = layers.pop("trace.accounted_s")
        # Simulated and inferred classes of the full reference campaign,
        # not of the cold sample or the warm replay (which simulates none).
        for name, (simulated, inferred) in fill["collapse"].items():
            layers[f"collapse.simulated.{name}"] = simulated
            layers[f"collapse.inferred.{name}"] = inferred
        layers["trace.overhead_s"] = traced["campaign_s"] - plain["campaign_s"]
        print(f"trace: spans account for {accounted:.3f}s of the traced "
              f"{traced['campaign_s']:.3f}s; untraced campaign "
              f"{plain['campaign_s']:.3f}s")
        return layers
    runs: list[dict] = []
    started = time.time()
    # After MIN_CAMPAIGNS, start another campaign only if it should end
    # inside the window (in host seconds, as the window is).
    while len(runs) < MIN_CAMPAIGNS or (
        time.time() + runs[-1]["returned"] - runs[-1]["spawned"]
        <= started + args.seconds
    ):
        runs.append(_campaign(mode, store, work, golden, tally, speed))
    window = speed.seconds(started, time.time())
    setups = [r["setup_s"] for r in runs]
    while len(setups) < MIN_SETUPS:
        setups.append(
            _fresh_process(["setup"], store, work, speed)["setup_s"]
        )
    latencies = [r["latency_s"] for r in runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "campaign_s": statistics.median(r["campaign_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "overall_fc_pct": overall_fc(runs[-1]["prints"]),
        "program_cycles": runs[-1]["cycles"],
        "request_p50_ms": 1000 * statistics.median(latencies),
        # A run holds two to about sixteen campaigns: the tail is the
        # slowest of them.
        "request_tail_ms": 1000 * max(latencies),
        "requests_per_s": len(runs) / window,
    }
    print(f"model gap: overall_fc_pct {metrics['overall_fc_pct']:.2f}, "
          f"program_cycles {metrics['program_cycles']} ({PAPER_ANCHORS}); "
          "verdicts are unvalidated against the paper's FlexTest runs, "
          "which the repository does not hold")
    return metrics


def service_workload(args: argparse.Namespace, golden: dict, work: Path,
                     tally: Tally, speed: HostSpeed) -> dict[str, float]:
    load = run_load(ROOT, work, golden, args.seed, args.seconds, args.trace)
    if not any(outcome.ok for outcome in load["outcomes"]):
        raise BenchFailure("no service-mix request succeeded")
    try:
        metrics, attempted, failed, shares = summarize(
            load, golden, args.trace, speed
        )
    except ValueError as exc:
        raise BenchFailure(str(exc)) from None
    tally.attempted += attempted
    tally.failed += failed
    for outcome in load["warmup"] + load["outcomes"]:
        if not outcome.ok:
            print(f"perfbench: FAILED {outcome.kind} request: "
                  f"{outcome.error}", file=sys.stderr)
    print(f"service-mix seed {args.seed}: {attempted} submissions, "
          f"shares {shares}")
    if args.trace:
        metrics["trace.overhead_s"] = 0.0
    return metrics


WORKLOADS = ("campaign-A-cold", "campaign-A-warm", "service-mix")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    golden = load_golden()
    work = BUILD / "runs" / str(os.getpid())
    tally = Tally()
    speed = None
    try:
        store, fill = ensure_store()
        # Children and the server inherit TMPDIR, so their temporary
        # files stay inside the checkout too.
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(work / "tmp")
        speed = HostSpeed(work / "hostspeed.txt", SAMPLER_SECONDS)
        if args.workload == "service-mix":
            values = service_workload(args, golden, work, tally, speed)
        else:
            print(f"seed {args.seed}: the reference campaign's inputs do "
                  "not depend on it")
            mode = "cold" if args.workload == "campaign-A-cold" else "warm"
            values = campaign_workload(
                mode, args, golden, work,
                store if mode == "warm" else None, fill, tally, speed,
            )
        if not args.trace:
            values["ok_frac"] = (
                (tally.attempted - tally.failed) / tally.attempted
            )
        metrics = {}
        for metric in wanted:
            value = float(values.pop(metric["name"], 0.0))
            if not math.isfinite(value):
                raise BenchFailure(f"{metric['name']} is {value}")
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if values:
            raise BenchFailure(f"not in BENCHMARK.json: {sorted(values)}")
    except (BenchFailure, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if speed is not None:
            speed.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
