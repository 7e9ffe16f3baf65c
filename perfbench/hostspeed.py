"""Host speed, sampled beside the workload, to express times at one speed.

The benchmark runs on a few cores of a shared host whose speed changes
from second to second: a fixed loop of Python runs up to about twice as
slow while other tenants load the machine, and the guest sees no steal
time.  Host seconds then say as much about the neighbours as about the
program.  So every benchmark run starts this script as a sampler
process.  Every ``INTERVAL_S`` it times ``calibrate()``, a fixed loop of
interpreter work (integer arithmetic and dictionary updates), in
thread CPU time, so waiting for a core does not count, and appends
``<time.time()> <seconds>`` to a file.  The slowdown is host-wide: a
sampler on one core tracks a workload on the other.

``HostSpeed.seconds(start, end)`` turns a host-time interval into
reference seconds: its length times the mean of ``REFERENCE_S /
sample`` over the samples taken inside it.  A reference second is the
time the program would take on the 2-core x86 VM the benchmark was
tuned on at its full speed.  Changes to the program still move these
figures one for one; changes in the host's speed mostly do not.

Usage (``run.py`` does this)::

    python3 perfbench/hostspeed.py SAMPLES_FILE MAX_SECONDS
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Seconds between two samples; each sample costs 2 to 4 ms of CPU.
INTERVAL_S = 0.04

#: ``calibrate()``'s thread CPU time at the reference speed (the 5th
#: percentile of 2,000 samples on the reference VM).
REFERENCE_S = 0.002

#: An interval holding fewer samples uses this many nearest ones.
MIN_SAMPLES = 3

#: Seconds to wait for the sampler's first samples.
START_TIMEOUT = 10.0


def calibrate() -> int:
    """A fixed piece of interpreter work (about 2 ms at full speed)."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    table: dict[int, int] = {}
    for i in range(6000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return total + len(table)


def sample(path: Path, max_seconds: float) -> None:
    """Append one sample per interval until the parent goes away."""
    parent = os.getppid()
    end = time.time() + max_seconds
    with path.open("a") as out:
        while time.time() < end and os.getppid() == parent:
            time.sleep(INTERVAL_S)
            started = time.thread_time()
            calibrate()
            out.write(f"{time.time()!r} {time.thread_time() - started!r}\n")
            out.flush()


class HostSpeed:
    """A running sampler process and the samples it has written."""

    def __init__(self, path: Path, max_seconds: float):
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostspeed.py"), str(path),
             str(max_seconds)],
        )
        deadline = time.time() + START_TIMEOUT
        while len(self.samples()) < MIN_SAMPLES:
            if time.time() > deadline or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("the host-speed sampler did not start")
            time.sleep(INTERVAL_S)

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()

    def samples(self) -> list[tuple[float, float]]:
        """``(time.time(), speed)`` pairs, speed 1.0 at the reference."""
        # The text after the last newline may be a half-written line.
        lines = self.path.read_text().split("\n")[:-1]
        return [(float(stamp), REFERENCE_S / max(float(seconds), 1e-6))
                for stamp, seconds in (line.split() for line in lines)]

    def factor(self, start: float, end: float) -> float:
        """The mean speed over ``[start, end]`` (``time.time()`` stamps)."""
        samples = self.samples()
        inside = [s for t, s in samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda ts: abs(ts[0] - middle))
            inside = [s for _, s in nearest[:MIN_SAMPLES]]
        return statistics.fmean(inside)

    def seconds(self, start: float, end: float,
                host_s: float | None = None) -> float:
        """Reference seconds of ``host_s`` (default ``end - start``) spent
        between the two stamps."""
        length = end - start if host_s is None else host_s
        return length * self.factor(start, end)


if __name__ == "__main__":
    sample(Path(sys.argv[1]), float(sys.argv[2]))
