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

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence

from repro.errors import FaultSimError
from repro.netlist.netlist import Netlist, PortDirection

#: One normalized entry: ``(port name, lane mask)`` pairs in name order;
#: a ``None`` mask means "all lanes of this entry".
Entry = tuple[tuple[str, "int | None"], ...]


@dataclass(frozen=True)
class ObservePlan:
    """Which output ports are compared, per stimulus entry and lane.

    Attributes:
        n_entries: number of stimulus entries (patterns or cycles) the
            plan covers.
        entries: one normalized :data:`Entry` per stimulus entry, or
            ``None`` meaning *every output port, every lane, always*.
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
                entry per stimulus entry (see module docstring).
            n_entries: stimulus length the plan must match.
            netlist: when given, port names are checked against its
                output ports.

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
            return observe
        if len(observe) != n_entries:
            raise FaultSimError(
                f"observe list has {len(observe)} entries for "
                f"{n_entries} stimulus entries"
            )
        output_ports = None
        if netlist is not None:
            output_ports = {
                p.name
                for p in netlist.ports.values()
                if p.direction is PortDirection.OUTPUT
            }
        entries: list[Entry] = []
        for raw in observe:
            if isinstance(raw, Mapping):
                items = [(str(k), int(v)) for k, v in raw.items()]
            else:
                items = [(str(name), None) for name in raw]
            for name, lane_mask in items:
                if lane_mask is not None and lane_mask < 0:
                    raise FaultSimError(
                        f"negative lane mask for observed port {name!r}"
                    )
                if output_ports is not None and name not in output_ports:
                    raise FaultSimError(
                        f"observed port {name!r} is not an output port"
                    )
            entries.append(tuple(sorted(items)))
        return cls(n_entries, tuple(entries))

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

        digest = hashlib.blake2b(digest_size=12)
        digest.update(str(self.n_entries).encode())
        for entry in self.entries:
            digest.update(b"|")
            for name, lane_mask in entry:
                mask = "*" if lane_mask is None else format(lane_mask, "x")
                digest.update(f"{name}={mask};".encode())
        sig = digest.hexdigest()
        self.__dict__["_signature_memo"] = sig
        return sig

    # ------------------------------------------- engine representations
    #
    # The projections below are memoized on the plan instance: grading
    # through a collapse map runs up to two engine passes over one plan,
    # and re-deriving the net maps dominated the second pass's cost on
    # small components.  Netlists are keyed by ``id()`` and pinned in the
    # entry, so a key match implies object identity.  Callers must treat
    # the returned structures as read-only — they are shared between
    # passes.

    def _memo(
        self,
        key: tuple[object, ...],
        pin: object,
        build: "Callable[[], object]",
    ) -> object:
        memo: dict[tuple[object, ...], tuple[object, object]] = (
            self.__dict__.setdefault("_projection_memo", {})
        )
        entry = memo.get(key)
        if entry is None:
            entry = (pin, build())
            memo[key] = entry
        return entry[1]

    def net_masks(
        self, netlist: Netlist, full_mask: int
    ) -> list[dict[int, int]] | None:
        """Per entry, ``{net: observed-lane-mask}`` (differential form).

        Equal entries share one dict object.
        """
        if self.entries is None:
            return None
        return self._memo(  # type: ignore[return-value]
            ("nets", id(netlist), full_mask),
            netlist,
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
            ("packed", id(netlist)),
            netlist,
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


#: Every ``observe`` form :meth:`ObservePlan.from_spec` accepts: nothing,
#: an existing plan, or a sequence of per-entry port mappings / name
#: iterables (see the module docstring).
ObserveSpec = (
    ObservePlan | Sequence[Mapping[str, int] | Iterable[str]] | None
)
