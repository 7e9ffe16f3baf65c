"""The ``service-mix`` workload: closed-loop clients against ``repro serve``.

One client process (the benchmark itself) holds two connections, one per
thread.  Each thread takes the next generated submission, POSTs it,
follows its SSE stream to ``end``, fetches the result, checks it against
the golden fingerprint, and only then sends the next one.  A single
campaign executor (``--workers 1``) serves both, so queue waiting shows
in the tail before throughput moves.

The seed generates the submissions; the server receives nothing else.
Each seed's stream opens with six cold grades that split the six fast
components of each phase into pairs, so every run grades all twelve
(phase, component) pairs once.  After that it repeats three overlapping
submissions (two to six components whose verdicts the store already
holds, in a combination not yet submitted, alternating phases A and AB)
and one exact duplicate of an earlier, finished submission (an
idempotent replay).  The cold grades warm the store up: they are checked
and counted like every request, but the timed window of ``--seconds``
starts once they are done, so every run times the same steady mix.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from golden import SERVICE_COMPONENTS, compare_table5
from hostspeed import HostSpeed

PHASES = ("A", "AB")
HEAVY_COMPONENTS = ("PLN", "GL")
LIGHT_COMPONENTS = tuple(
    c for c in SERVICE_COMPONENTS if c not in HEAVY_COMPONENTS
)

#: The repeating part of every stream after the cold grades.
PATTERN = ("overlap", "overlap", "overlap", "duplicate")

#: Requests slower than the reported tail latency.
TAIL_BEYOND = 10

#: Server starts per run; set-up time is their median.
SERVER_STARTS = 9

#: Seconds a client waits on one socket operation before giving up.
CLIENT_TIMEOUT = 120.0

Submission = tuple[str, tuple[str, ...]]


def _canonical(components: list[str] | tuple[str, ...]) -> tuple[str, ...]:
    return tuple(c for c in SERVICE_COMPONENTS if c in components)


def submissions(seed: int) -> Iterator[tuple[str, Submission]]:
    """The seed's stream of ``(kind, (phases, components))``.

    It holds 150 submissions, more than two closed-loop clients finish in
    a run today; a faster program ends it early instead of turning the
    rest of the run into duplicates.
    """
    rng = random.Random(seed)
    intros: list[Submission] = []
    for phases in PHASES:
        # PLN and GL take most of the cold grading time; each gets a
        # light partner, so every seed's cold grades cost about the same.
        light = list(LIGHT_COMPONENTS)
        rng.shuffle(light)
        intros += [(phases, _canonical([heavy, light.pop()]))
                   for heavy in HEAVY_COMPONENTS]
        intros.append((phases, _canonical(light)))
    rng.shuffle(intros)
    seen: list[Submission] = []
    for sub in intros:
        seen.append(sub)
        yield "cold", sub
    # Every other subset of two or more components is an overlap: its
    # verdicts are all in the store after the cold grades, and it is a
    # new job key.  A job's cost grows with its size, so each size is
    # spread evenly through the stream (seeded order within a size):
    # every run then sees the same mix of sizes, whatever its length.
    overlaps: dict[str, list[Submission]] = {}
    for phases in PHASES:
        keyed = []
        for size in range(2, len(SERVICE_COMPONENTS) + 1):
            combos = [(phases, combo) for combo in
                      itertools.combinations(SERVICE_COMPONENTS, size)
                      if (phases, combo) not in intros]
            rng.shuffle(combos)
            keyed += [((i + 0.5) / len(combos), sub)
                      for i, sub in enumerate(combos)]
        overlaps[phases] = [sub for _, sub in sorted(keyed, reverse=True)]
    phase_cycle = itertools.cycle(PHASES)
    for kind in itertools.cycle(PATTERN):
        if kind == "overlap":
            pool = overlaps[next(phase_cycle)]
            if not pool:
                return  # end the stream rather than change its mix
            sub = pool.pop()
        else:
            # Skip the two newest submissions, which may still be
            # running, so a duplicate replays a finished job.
            sub = rng.choice(seen[:-2])
        seen.append(sub)
        yield kind, sub


@dataclass
class Server:
    """A ``python -m repro serve --workers 1`` subprocess."""

    root: Path
    cache_dir: Path
    proc: subprocess.Popen = field(init=False)
    port: int = 0
    #: ``time.time()`` at the spawn and at the "listening" line.
    started: float = 0.0
    ready: float = 0.0

    def start(self) -> None:
        self.started = time.time()
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--port", "0", "--cache-dir", str(self.cache_dir)],
            cwd=self.root, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        self.ready = time.time()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the service process")

    def stop(self) -> None:
        """Interrupt the server, then make sure its whole group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=CLIENT_TIMEOUT
        )
        try:
            conn.request(
                method, path,
                body=None if body is None else json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()

    def events(self, job_id: str) -> list[dict]:
        """Follow one job's SSE stream to its ``end`` event."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=CLIENT_TIMEOUT
        )
        try:
            conn.request("GET", f"/v1/campaigns/{job_id}/events")
            resp = conn.getresponse()
            if resp.status != 200:
                raise RuntimeError(f"SSE stream answered {resp.status}")
            events, kind = [], ""
            for raw in resp:
                line = raw.decode().rstrip("\n")
                if line.startswith("event: "):
                    kind = line[7:]
                elif line.startswith("data: "):
                    events.append({"event": kind, **json.loads(line[6:])})
                    if kind == "end":
                        return events
            raise RuntimeError("SSE stream closed before its end event")
        finally:
            conn.close()


@dataclass
class Outcome:
    """What one closed-loop request produced."""

    kind: str
    #: ``time.time()`` at the submit, its answer and the checked result.
    sent: float = 0.0
    accepted: float = 0.0
    done: float = 0.0
    attached: bool = False
    ok: bool = False
    error: str = ""
    job: dict = field(default_factory=dict)
    shard_s: list[float] = field(default_factory=list)


def _one_request(
    server: Server, golden: dict, kind: str, sub: Submission
) -> Outcome:
    phases, components = sub
    out = Outcome(kind, sent=time.time())
    status, job = server.request("POST", "/v1/campaigns", {
        "phases": phases, "components": list(components), "jobs": 2,
    })
    out.accepted = time.time()
    if status not in (200, 202):
        out.error = f"submit answered {status}: {job.get('error')}"
        return out
    out.attached = bool(job.get("attached_to_existing"))
    events = server.events(job["id"])
    status, job = server.request("GET", f"/v1/campaigns/{job['id']}")
    out.done = time.time()
    out.job = job
    out.shard_s = [
        float(e["duration"]) for e in events
        if e["event"] == "success" and "#" in str(e.get("job", ""))
        and "duration" in e
    ]
    problems = []
    if status != 200 or job.get("state") != "done":
        problems.append(f"state {job.get('state')}: {job.get('error')}")
    elif job.get("degraded_components"):
        problems.append(f"degraded {job['degraded_components']}")
    else:
        coverage = job["coverage"]
        rows = coverage["table5"][phases]
        if {r["name"] for r in rows} != {*components, "Plasma"}:
            problems.append("result covers other components")
        problems += compare_table5(golden, phases, rows)
        cycles = coverage["table4"][phases]["clock_cycles"]
        if cycles != golden[phases]["table4"]["clock_cycles"]:
            problems.append(f"{phases}: {cycles} clock cycles")
    out.error = "; ".join(problems)
    out.ok = not problems
    return out


def tail(values: list[float]) -> float:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    if len(values) <= TAIL_BEYOND:
        raise ValueError(f"{len(values)} requests are too few for a tail")
    return sorted(values)[-TAIL_BEYOND - 1]


def run_load(
    root: Path, work: Path, golden: dict, seed: int, seconds: float,
    traced: bool,
) -> dict[str, Any]:
    """Start servers, drive the closed loop, stop everything; return stats."""
    setups = []
    for start in range(SERVER_STARTS - 1):  # the last one serves the load
        server = Server(root, work / f"start-{start}")
        server.start()
        server.stop()
        setups.append((server.started, server.ready))
    server = Server(root, work / "cache")
    server.start()
    setups.append((server.started, server.ready))
    try:
        stream = list(submissions(seed))
        cold = [item for item in stream if item[0] == "cold"]
        utilization: list[float] = []
        finished = threading.Event()

        def drive(items: Iterator[tuple[str, Submission]],
                  deadline: float) -> list[Outcome]:
            """Two closed-loop clients until ``items`` or the time runs out."""
            lock = threading.Lock()
            outcomes: list[Outcome] = []

            def client() -> None:
                while time.perf_counter() < deadline:
                    with lock:
                        item = next(items, None)
                    if item is None:
                        return
                    kind, sub = item
                    try:
                        out = _one_request(server, golden, kind, sub)
                    except (OSError, http.client.HTTPException, RuntimeError,
                            ValueError, KeyError) as exc:
                        out = Outcome(kind,
                                      error=f"{type(exc).__name__}: {exc}")
                    with lock:
                        outcomes.append(out)

            clients = [threading.Thread(target=client) for _ in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            return outcomes

        def poll_stats() -> None:
            while not finished.is_set():
                _, stats = server.request("GET", "/v1/stats")
                utilization.append(float(stats["worker_utilization"]))
                finished.wait(0.25)

        poller = threading.Thread(target=poll_stats)
        if traced:
            poller.start()
        try:
            # The cold grades warm the store up; the window starts after.
            warmup = drive(iter(cold), math.inf)
            load_started = time.time()
            outcomes = drive(iter(stream[len(cold):]),
                             time.perf_counter() + seconds)
            window = (load_started, time.time())
        finally:
            finished.set()
            if traced:
                poller.join()
        _, stats = server.request("GET", "/v1/stats")
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {
        "setups": setups, "warmup": warmup, "outcomes": outcomes,
        "window": window,
        "stats": stats, "peak_rss": peak_rss, "utilization": utilization,
    }


def summarize(
    load: dict[str, Any], golden: dict, traced: bool, speed: HostSpeed
) -> tuple[dict[str, float], int, int, str]:
    """Metrics, attempted, failed and an input-share line for one load run.

    Every time is in reference seconds (``hostspeed.py``).
    """
    timed: list[Outcome] = load["outcomes"]
    outcomes: list[Outcome] = load["warmup"] + timed
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    ok = [o for o in timed if o.ok]
    ran = {o.job["id"]: o for o in ok if not o.attached}
    latencies = [speed.seconds(o.sent, o.done) for o in timed if o.job]
    grading = [speed.seconds(o.job["started"], o.job["finished"])
               for o in ran.values()]
    window_factor = speed.factor(*load["window"])
    rows = {}
    for o in outcomes:
        if not o.ok:
            continue
        for row in o.job["coverage"]["table5"].get("A", []):
            rows[row["name"]] = row
    rows.pop("Plasma", None)
    faults = sum(r["faults"] for r in rows.values()) or 1
    kinds = [o.kind for o in outcomes]
    shares = ", ".join(
        f"{kind} {kinds.count(kind) / max(1, attempted):.2f}"
        for kind in ("cold", "overlap", "duplicate")
    )
    if traced:
        shard_s = [s for o in ok for s in o.shard_s]
        stats = load["stats"]
        metrics = {
            "service.accept_ms": 1000 * statistics.median(
                speed.seconds(o.sent, o.accepted) for o in ok),
            "service.queue_ms": 1000 * statistics.median(
                speed.seconds(o.job["created"], o.job["started"])
                for o in ran.values()),
            "service.run_ms": 1000 * statistics.median(grading),
            "service.attached_frac": sum(o.attached for o in timed)
            / max(1, len(timed)),
            "service.store_hit_frac": (stats["store"] or {}).get(
                "hit_rate", 0.0),
            "service.rejected": stats["jobs"]["rejected"],
            "service.worker_utilization": statistics.fmean(
                load["utilization"] or [0.0]),
            "runtime.shards": len(shard_s),
            # Shard events carry no time stamps: the run's mean speed.
            "runtime.shard_s": window_factor * statistics.median(
                shard_s or [0.0]),
        }
    else:
        metrics = {
            "setup_s": statistics.median(
                speed.seconds(*span) for span in load["setups"]),
            "campaign_s": statistics.median(grading),
            "peak_rss_mb": load["peak_rss"],
            "overall_fc_pct": 100.0 * sum(
                r["detected"] for r in rows.values()) / faults,
            "program_cycles": next(
                o.job["coverage"]["table4"]["A"]["clock_cycles"]
                for o in outcomes
                if o.ok and "A" in o.job["coverage"]["table4"]),
            "request_p50_ms": 1000 * statistics.median(latencies),
            "request_tail_ms": 1000 * tail(latencies),
            "requests_per_s": len(ok) / speed.seconds(*load["window"]),
        }
    return metrics, attempted, failed, shares
