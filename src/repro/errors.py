"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so a
caller can catch one type to handle any library failure.  Subpackages raise
the most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AssemblyError(ReproError):
    """An assembly-language source could not be assembled.

    Carries the offending source line number (1-based) when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """An instruction could not be encoded or decoded."""


class NetlistError(ReproError):
    """A gate-level netlist is malformed or an operation on it is invalid."""


class SimulationError(ReproError):
    """The CPU or logic simulator reached an invalid state."""


class FaultSimError(ReproError):
    """The fault simulator was misused or reached an invalid state."""


class MethodologyError(ReproError):
    """The SBST methodology was applied to an unsupported configuration."""


class WatchdogTimeout(SimulationError):
    """The CPU watchdog tripped: a run exceeded its cycle or instruction
    budget without reaching the halt loop (runaway program)."""


class ReproRuntimeError(ReproError, RuntimeError):
    """Base class for campaign-runtime failures (job execution machinery).

    These errors describe what went wrong around the grading work —
    cancellation, journal damage — rather than a defect in the library
    itself.  They also derive from the builtin :class:`RuntimeError` so
    generic runtime handlers catch them.
    """


class JobCancelled(ReproRuntimeError):
    """A campaign run was cancelled through its ``RuntimeConfig.cancel``
    hook.

    Raised by :class:`~repro.runtime.pool.ShardScheduler` before an
    attempt (in process) or between scheduler iterations (on the pool)
    once the hook reports cancellation.  Work journaled before the
    cancellation stays valid: a resumed run re-grades exactly the shards
    that had not completed.
    """

    def __init__(self, job: str = ""):
        self.job = job
        detail = f" during job {job!r}" if job else ""
        super().__init__(f"campaign cancelled{detail}")


class CheckpointCorrupt(ReproRuntimeError):
    """A checkpoint journal entry cannot be decoded or trusted.

    Carries the offending job/shard key and the journal path when known,
    so a resumed campaign can report exactly which entry (and which file)
    to distrust instead of a bare lookup error.
    """

    def __init__(
        self,
        message: str,
        key: str | None = None,
        path: "object | None" = None,
    ):
        self.key = key
        self.path = str(path) if path is not None else None
        context = []
        if key is not None:
            context.append(f"key {key!r}")
        if self.path is not None:
            context.append(f"journal {self.path}")
        if context:
            message = f"{message} ({', '.join(context)})"
        super().__init__(message)
