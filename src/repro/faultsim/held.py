"""Held runs of a sequential stimulus: the cycles a walk may skip.

A cycle is *held* when it applies the same input vector as the cycle
before it.  Self-test programs drive a unit such as the multiplier in
short bursts and then hold it: 98% of MulD's traced cycles repeat the
previous input vector.  Once a sequential machine's state also repeats
at a held cycle, every net value repeats, and so does every later cycle
up to the next input change.  Both fault-simulation walks use this: they
jump from such a cycle to the end of its *segment*, a run of cycles with
one input vector and one observe entry.  A segment that starts with only
a new observe entry re-runs the detection check on the cached values
and nothing else.

The walks read held cycles off the good trace (:func:`held_rows`): a
cycle whose good row is the previous cycle's row object repeats the
good machine's state and inputs.  :func:`held_share` counts held input
vectors instead; ``engine="auto"`` reads it before any trace exists
(see :func:`repro.faultsim.engine.default_engine_name`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import pairwise


def held_rows(rows: Sequence[object]) -> list[bool]:
    """Per cycle, True when its good row is the previous cycle's object.

    The simulator and the store share one row per distinct ``(state,
    inputs)`` pair, so an aliased row means the good machine repeats the
    previous cycle exactly.
    """
    return [False, *(a is b for a, b in pairwise(rows))][: len(rows)]


def held_cycles(stimulus: Sequence[Mapping[str, int]]) -> list[bool]:
    """Per cycle, True when it repeats the previous cycle's inputs.

    Entries compare as mappings, so a port spelled ``0`` in one entry
    and left out of the next counts as a change.  That only costs a
    skipped opportunity, never a wrong skip.
    """
    return [False, *(a == b for a, b in pairwise(stimulus))][: len(stimulus)]


def held_share(stimulus: Sequence[Mapping[str, int]]) -> float:
    """Fraction of the stimulus' cycles that are held (0.0 when empty)."""
    if not stimulus:
        return 0.0
    return sum(held_cycles(stimulus)) / len(stimulus)


def segment_ends(
    held: Sequence[bool], observe: Sequence[object] | None
) -> list[int]:
    """Per cycle ``t``, the first cycle after ``t`` that starts a segment.

    A segment starts at cycle 0, at every cycle that is not held, and
    at every cycle whose observe entry is not the *same object* as the
    previous cycle's (equal entries built separately only add
    boundaries).  ``observe=None`` means the observe entry never
    changes.  The last segment ends at ``len(held)``.  A cycle that
    starts a segment although it is held starts it only because its
    observe entry changed.
    """
    n = len(held)
    ends = [n] * n
    boundary = n
    for t in range(n - 1, -1, -1):
        ends[t] = boundary
        if not held[t] or (
            observe is not None and observe[t] is not observe[t - 1]
        ):
            boundary = t
    return ends
