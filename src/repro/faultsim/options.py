"""One validated options object for every grading entry point.

:func:`repro.faultsim.grade` historically grew one keyword per feature —
``engine``, ``observe``, ``prune_untestable``, ``subset``, ``collapse`` —
and every campaign layer (component jobs, the sharded scheduler, the CLI)
re-declared the same parameters and threaded them down individually.
:class:`GradeOptions` collapses that surface into a single frozen
dataclass (execution knobs — isolation, timeouts, ``jobs`` — live on
:class:`~repro.runtime.RuntimeConfig` instead):

* **validated construction** — engine names, prune modes, lane counts
  and subsets are checked once, in ``__post_init__``, instead of deep
  inside an engine after minutes of simulation;
* **one object end to end** — ``run_campaign`` → ``grade_traced`` →
  the shard planner and :func:`~repro.core.sharded.grade_shard` all share
  the same instance, and the sharded scheduler ships it to pool workers
  as-is; each component's
  :class:`~repro.faultsim.engine.PreparedGrade` gets a copy with the
  component's ``name``/``observe`` stamped on via :meth:`replace`;
* **a checkpoint fingerprint** — :meth:`fingerprint` digests exactly the
  verdict-shaping knobs, so journal reuse rules live in one place.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.errors import FaultSimError
from repro.faultsim.observe import ObserveSpec
from repro.faultsim.store import TraceStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.collapse import CollapseMap

#: Default packed-lane group count for the ``packed`` engine: the good
#: machine rides group 0, so one word carries up to 63 fault classes.
DEFAULT_LANES = 64

#: Sanity bounds on the lane-group count.  Below 2 there is no room for
#: a fault next to the good machine; beyond 1024 the per-word big-int
#: cost grows past any amortization win.
_MIN_LANES, _MAX_LANES = 2, 1024


def resolve_prune_mode(value: bool | str) -> str:
    """Normalise a ``prune_untestable`` argument to a mode string.

    Returns ``""`` for ``False`` (every class counts) or ``"proven"``
    (SAT-certify the SCOAP-screened classes and exclude the
    proven-redundant subset from the FC denominator).  Either way every
    class is simulated.  Anything else, ``True`` included, is rejected
    rather than mapped onto a mode that moves the denominator.
    """
    if value is False:
        return ""
    if value == "proven":
        return "proven"
    raise FaultSimError(
        f"prune_untestable must be False or 'proven', got {value!r}"
    )


@dataclass(frozen=True)
class GradeOptions:
    """Every knob :func:`repro.faultsim.grade` accepts, validated once.

    Attributes:
        engine: ``"auto"`` (pick per netlist and stimulus),
            ``"differential"`` or ``"packed"`` (see
            :func:`repro.faultsim.engine.engine_names`).
        observe: observability spec, any form accepted by
            :meth:`~repro.faultsim.observe.ObservePlan.from_spec`
            (``None`` = every output port, every entry).
        name: campaign label (default: the netlist name).
        prune_untestable: ``False`` counts every class; ``"proven"``
            SAT-certifies the SCOAP-screened untestable classes and
            excludes the proven subset from the FC denominator.  Every
            class is simulated in both modes.
        subset: restrict grading to these class representatives (one
            shard of the universe); ``None`` grades everything.
        collapse: ``True`` computes the structural collapse map and
            simulates super-class representatives only; a precomputed
            :class:`~repro.analysis.collapse.CollapseMap` is reused
            as-is; ``False`` grades every class.
        cache: persistent content-addressed store for good traces and
            verdict records — a :class:`~repro.faultsim.store.TraceStore`
            or a cache-directory path (normalised to a store at
            construction).  ``None`` keeps grading purely in-memory.
        lanes: lane-group count for the ``packed`` engine (good machine
            in group 0, up to ``lanes - 1`` fault classes per word).
            The differential engine ignores it.
    """

    engine: str = "auto"
    observe: ObserveSpec = None
    name: str = ""
    prune_untestable: bool | str = False
    subset: Sequence[int] | None = None
    collapse: "bool | CollapseMap" = False
    cache: TraceStore | str | Path | None = None
    lanes: int = DEFAULT_LANES

    def __post_init__(self) -> None:
        # Local import: the engine module imports this module at load
        # time, so name validation must resolve it lazily.
        from repro.faultsim.engine import engine_names

        if self.engine != "auto" and self.engine not in engine_names():
            known = ", ".join(sorted({*engine_names(), "auto"}))
            raise FaultSimError(
                f"unknown engine {self.engine!r} (choose from {known})"
            )
        resolve_prune_mode(self.prune_untestable)  # raises on bad modes
        if not isinstance(self.lanes, int) or isinstance(self.lanes, bool):
            raise FaultSimError(f"lanes must be an int, got {self.lanes!r}")
        if not _MIN_LANES <= self.lanes <= _MAX_LANES:
            raise FaultSimError(
                f"lanes must be within [{_MIN_LANES}, {_MAX_LANES}], "
                f"got {self.lanes}"
            )
        if self.subset is not None:
            object.__setattr__(self, "subset", tuple(self.subset))
        if isinstance(self.cache, (str, Path)):
            object.__setattr__(self, "cache", TraceStore(self.cache))

    # ---------------------------------------------------------- accessors

    @property
    def prune_mode(self) -> str:
        """The resolved prune mode: ``""`` or ``"proven"``."""
        return resolve_prune_mode(self.prune_untestable)

    @property
    def store(self) -> TraceStore | None:
        """The normalised persistent store (``None`` when uncached)."""
        cache = self.cache
        return cache if isinstance(cache, TraceStore) else None

    @property
    def collapse_map(self) -> "CollapseMap | None":
        """A precomputed collapse map, when one was passed directly."""
        return None if isinstance(self.collapse, bool) else self.collapse

    @property
    def collapse_requested(self) -> bool:
        """True when grading should run through a collapse map."""
        return self.collapse is not False

    def replace(self, **changes: Any) -> "GradeOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -------------------------------------------------------- fingerprint

    def fingerprint(self) -> str:
        """Digest of the verdict-shaping options, for checkpoint reuse.

        Covers exactly the knobs that change *what a journaled verdict
        means*: the prune mode (``"proven"`` changes the FC denominator)
        and the canonical fault ordering epoch.  Engine choice, lane
        counts, caching and collapsing are deliberately excluded —
        verdicts are invariant under all of them (collapse hashes are
        appended separately where shard bounds index the collapsed
        universe), so a resumed campaign may switch engines or toggle
        caching and still reuse its journal.
        """
        digest = hashlib.blake2b(digest_size=8)
        digest.update(b"prune-proven" if self.prune_mode else b"")
        # Fault-ordering contract epoch (see faults.py docstring): shard
        # bounds journaled under another ordering must not be reused.
        digest.update(b"order-v2")
        return digest.hexdigest()
