"""One normalized observability plan shared by every fault-sim engine.

Historically each engine parsed its own ``observe`` argument: the
differential harness took per-cycle ``{port: lane-mask}`` mappings, the
batch engine accepted ``Mapping | set | frozenset | tuple | list`` entries
and only used the keys, and the combinational campaign took per-pattern
port-name sequences.  :class:`ObservePlan` normalizes all of those forms
once — validation (entry count, port names) happens in exactly one place —
and every engine converts the plan to its internal representation through
the accessors below.

Accepted per-entry forms (one entry per pattern / cycle):

* an iterable of output-port names — those ports observed on **all** lanes
  of that entry;
* a mapping ``{port name: lane mask}`` — ports observed on the masked
  lanes only (the legacy differential form);
* the whole spec may be ``None`` — every output port observed on every
  lane of every entry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from collections.abc import Callable, Iterable, Mapping, Sequence

from repro.errors import FaultSimError
from repro.netlist.netlist import Netlist, PortDirection

#: One normalized entry: ``(port name, lane mask)`` pairs in name order;
#: a ``None`` mask means "all lanes of this entry".
Entry = tuple[tuple[str, "int | None"], ...]

#: Netlists whose projections one plan keeps (oldest dropped first).  A
#: traced program's plans live as long as the process holds its trace,
#: so a transformed netlist built per grade must not stay pinned.
_MEMO_NETLISTS = 4

#: Guards the per-netlist memo: one plan may serve grades in several
#: threads at once (the campaign service's executors).
_MEMO_LOCK = threading.Lock()


@dataclass(frozen=True)
class ObservePlan:
    """Which output ports are compared, per stimulus entry and lane.

    Attributes:
        n_entries: number of stimulus entries (patterns or cycles) the
            plan covers.
        entries: one normalized :data:`Entry` per stimulus entry, or
            ``None`` meaning *every output port, every lane, always*.

    A plan is immutable and memoizes what it derives: its
    :meth:`signature`, and per netlist its port check and engine
    projections.  One plan can therefore back every grade of a traced
    program (:func:`repro.core.campaign.trace_program`); a pickled plan
    carries no netlist.
    """

    n_entries: int
    entries: tuple[Entry, ...] | None = None

    # ------------------------------------------------------ construction

    @classmethod
    def everything(cls, n_entries: int) -> "ObservePlan":
        """Full observability: all output ports, all lanes, every entry."""
        return cls(n_entries)

    @classmethod
    def from_spec(
        cls,
        observe: ObserveSpec,
        n_entries: int,
        netlist: Netlist | None = None,
    ) -> "ObservePlan":
        """Normalize and validate any accepted ``observe`` spec.

        Args:
            observe: ``None``, an existing plan, or a sequence with one
                entry per stimulus entry (see module docstring).  A plan
                is returned as is, after the same checks.
            n_entries: stimulus length the plan must match.
            netlist: when given, port names are checked against its
                output ports (once per netlist for a given plan).

        Raises:
            FaultSimError: entry-count mismatch, unknown or non-output
                port name, or a negative lane mask.
        """
        if observe is None:
            return cls.everything(n_entries)
        if isinstance(observe, ObservePlan):
            if observe.n_entries != n_entries:
                raise FaultSimError(
                    f"observe plan covers {observe.n_entries} entries "
                    f"for {n_entries} stimulus entries"
                )
            if netlist is not None:
                observe._memo(
                    netlist, ("ports",), partial(observe._check_ports, netlist)
                )
            return observe
        if len(observe) != n_entries:
            raise FaultSimError(
                f"observe list has {len(observe)} entries for "
                f"{n_entries} stimulus entries"
            )
        output_ports = None
        if netlist is not None:
            output_ports = _output_ports(netlist)
        # Phase-A specs hold thousands of entries but only a handful of
        # distinct ones: normalize and validate each distinct raw entry
        # once, and share one tuple between equal entries.  Only entries
        # whose names are all plain ``str`` are memoized, since names
        # that compare equal can still ``str()`` differently (1, True).
        memo: dict[tuple[object, ...], Entry] = {}
        shared: dict[Entry, Entry] = {}
        entries: list[Entry] = []
        for raw in observe:
            if isinstance(raw, Mapping):
                pairs = tuple(raw.items())
                key: tuple[object, ...] = (True, pairs)
            else:
                names = tuple(raw)
                key = (False, names)
            hashable = True
            try:
                entry = memo.get(key)
            except TypeError:  # an unhashable name or mask: no memo
                entry, hashable = None, False
            if entry is None:
                items: list[tuple[str, int | None]]
                if isinstance(raw, Mapping):
                    names = tuple(k for k, _ in pairs)
                    items = [(str(k), int(v)) for k, v in pairs]
                else:
                    items = [(str(name), None) for name in names]
                for name, lane_mask in items:
                    if lane_mask is not None and lane_mask < 0:
                        raise FaultSimError(
                            f"negative lane mask for observed port {name!r}"
                        )
                    if output_ports is not None and name not in output_ports:
                        raise FaultSimError(
                            f"observed port {name!r} is not an output port"
                        )
                normalized = tuple(sorted(items))
                entry = shared.setdefault(normalized, normalized)
                if hashable and all(type(name) is str for name in names):
                    memo[key] = entry
            entries.append(entry)
        return cls(n_entries, tuple(entries))

    def _check_ports(self, netlist: Netlist) -> bool:
        """Raise unless every observed port is an output of ``netlist``."""
        names = {
            name
            for entry in dict.fromkeys(self.entries or ())
            for name, _ in entry
        }
        unknown = names - _output_ports(netlist)
        if unknown:
            raise FaultSimError(
                f"observed port {min(unknown)!r} is not an output port"
            )
        return True

    def __getstate__(self) -> dict[str, object]:
        # The projection memo pins netlists: leave it out of a pickle.
        state = dict(self.__dict__)
        state.pop("_projection_memo", None)
        return state

    # -------------------------------------------------------- properties

    @property
    def observes_everything(self) -> bool:
        return self.entries is None

    def signature(self) -> str:
        """Stable content digest of the plan, for persistent-store keys.

        Entry order matters (entry *t* guards stimulus entry *t*), so
        the digest walks entries in order.  Full observability digests
        to the literal ``"all:<n_entries>"`` so the common case stays
        readable in record headers.
        """
        if self.entries is None:
            return f"all:{self.n_entries}"
        memo = self.__dict__.get("_signature_memo")
        if memo is not None:
            return memo  # type: ignore[no-any-return]
        import hashlib

        # Encode each distinct entry once; hashing the concatenation
        # gives the same digest as feeding the pieces one by one.
        encoded: dict[Entry, bytes] = {}
        parts = [str(self.n_entries).encode()]
        for entry in self.entries:
            chunk = encoded.get(entry)
            if chunk is None:
                chunk = encoded[entry] = ("|" + "".join(
                    f"{name}="
                    f"{'*' if lane_mask is None else format(lane_mask, 'x')};"
                    for name, lane_mask in entry
                )).encode()
            parts.append(chunk)
        digest = hashlib.blake2b(b"".join(parts), digest_size=12)
        sig = digest.hexdigest()
        self.__dict__["_signature_memo"] = sig
        return sig

    # ------------------------------------------- engine representations
    #
    # The projections below are memoized on the plan instance: grading
    # through a collapse map runs up to two engine passes over one plan,
    # a traced program's plan serves every later grade of that program,
    # and re-deriving the net maps dominated the second pass's cost on
    # small components.  Netlists are keyed by ``id()`` and pinned in the
    # entry, so a key match implies object identity.  Callers must treat
    # the returned structures as read-only — they are shared between
    # passes and grades.

    def _memo(
        self,
        netlist: Netlist,
        key: tuple[object, ...],
        build: "Callable[[], object]",
    ) -> object:
        with _MEMO_LOCK:
            memo: dict[int, tuple[Netlist, dict[tuple[object, ...], object]]]
            memo = self.__dict__.setdefault("_projection_memo", {})
            slot = memo.get(id(netlist))
            if slot is not None and key in slot[1]:
                return slot[1][key]
        value = build()
        with _MEMO_LOCK:
            slot = memo.get(id(netlist))
            if slot is None:
                slot = memo[id(netlist)] = (netlist, {})
                while len(memo) > _MEMO_NETLISTS:
                    del memo[next(iter(memo))]
            # The first value stored wins: racing threads share one.
            return slot[1].setdefault(key, value)

    def net_masks(
        self, netlist: Netlist, full_mask: int
    ) -> list[dict[int, int]] | None:
        """Per entry, ``{net: observed-lane-mask}`` (differential form).

        Equal entries share one dict object.
        """
        if self.entries is None:
            return None
        return self._memo(  # type: ignore[return-value]
            netlist, ("nets", full_mask),
            lambda: self._build_net_masks(netlist, full_mask),
        )

    def _build_net_masks(
        self, netlist: Netlist, full_mask: int
    ) -> list[dict[int, int]]:
        assert self.entries is not None
        # Phase-A plans hold thousands of entries but at most a handful
        # of distinct ones: expand each distinct entry once and share its
        # dict, so equal entries are also the same object (the held-run
        # segment pass compares entries by identity).
        expanded: dict[Entry, dict[int, int]] = {}
        per_entry: list[dict[int, int]] = []
        for entry in self.entries:
            nets = expanded.get(entry)
            if nets is None:
                nets = expanded[entry] = {}
                for name, lane_mask in entry:
                    m = (
                        full_mask if lane_mask is None
                        else lane_mask & full_mask
                    )
                    if not m:
                        continue
                    for net in netlist.port(name).nets:
                        nets[net] = nets.get(net, 0) | m
            per_entry.append(nets)
        return per_entry

    def packed_net_masks(self, netlist: Netlist) -> dict[int, int] | None:
        """Single-cycle ``{net: lane-mask}`` for lane-packed patterns.

        Pattern *t* rides lane *t*; its entry contributes bit *t* to each
        port it observes (an explicit zero mask contributes nothing).
        Returns ``None`` for full observability.
        """
        if self.entries is None:
            return None
        return self._memo(  # type: ignore[return-value]
            netlist, ("packed",),
            lambda: self._build_packed(netlist),
        )

    def _build_packed(self, netlist: Netlist) -> dict[int, int]:
        assert self.entries is not None
        # Self-test stimulus observes the same ports for long runs of
        # patterns, so fold identical entries into one combined lane mask
        # and expand each distinct entry to nets exactly once.
        lanes_of: dict[Entry, int] = {}
        for lane, entry in enumerate(self.entries):
            lanes_of[entry] = lanes_of.get(entry, 0) | (1 << lane)
        nets: dict[int, int] = {}
        for entry, lanes in lanes_of.items():
            for name, lane_mask in entry:
                if lane_mask is not None and not lane_mask:
                    continue
                for net in netlist.port(name).nets:
                    nets[net] = nets.get(net, 0) | lanes
        return nets


def _output_ports(netlist: Netlist) -> set[str]:
    return {
        p.name
        for p in netlist.ports.values()
        if p.direction is PortDirection.OUTPUT
    }


#: Every ``observe`` form :meth:`ObservePlan.from_spec` accepts: nothing,
#: an existing plan, or a sequence of per-entry port mappings / name
#: iterables (see the module docstring).
ObserveSpec = (
    ObservePlan | Sequence[Mapping[str, int] | Iterable[str]] | None
)
