"""Stable structural hashing of netlists and stimulus sequences.

The fault-simulation engine cache (:mod:`repro.faultsim.trace_cache`) and
the compiled-program cache key their entries by circuit *structure*, not by
object identity: two independently built netlists with the same gates,
flip-flops and ports hash identically, so a resumed or re-run campaign
reuses work computed for an earlier build of the same component.

The hash is a BLAKE2b digest over a canonical byte serialization:

* gates in list order — ``(type, output net, input nets)``;
* DFFs in list order — ``(d, q, init)``;
* ports in name order — ``(name, direction, nets)``;
* the net count (distinguishes dangling nets).

Net *names* and the netlist's display name are deliberately excluded:
they do not affect simulation semantics.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from collections.abc import Mapping, Sequence
from itertools import chain
from operator import itemgetter

from repro.netlist.netlist import Netlist

_DIGEST_SIZE = 16  # 128-bit digests render as 32 hex chars


def structural_hash(netlist: Netlist) -> str:
    """Deterministic hex digest of a netlist's simulation-relevant structure."""
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(b"nets:%d;" % netlist.n_nets)
    for gate in netlist.gates:
        h.update(
            b"g:%s:%d:%s;"
            % (
                gate.gtype.name.encode(),
                gate.output,
                b",".join(b"%d" % n for n in gate.inputs),
            )
        )
    for dff in netlist.dffs:
        h.update(b"d:%d:%d:%d;" % (dff.d, dff.q, dff.init))
    for name in sorted(netlist.ports):
        port = netlist.ports[name]
        h.update(
            b"p:%s:%s:%s;"
            % (
                name.encode(),
                port.direction.value.encode(),
                b",".join(b"%d" % n for n in port.nets),
            )
        )
    return h.hexdigest()


def _value_rows(
    cycles: Sequence[Mapping[str, int]], names: list[str]
) -> array[int] | None:
    """Every entry's values in ``names`` order, as one ``uint64`` array.

    ``None`` when some entry drives other ports than ``names`` (an entry
    of the same size lacks one of them, so ``itemgetter`` raises) or
    holds a value outside ``[0, 2**64)``.
    """
    if not names or set(map(len, cycles)) != {len(names)}:
        return None
    rows = map(itemgetter(*names), cycles)
    try:
        values = array("Q", chain.from_iterable(rows) if len(names) > 1 else rows)
    except (KeyError, OverflowError, TypeError):
        return None
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        values.byteswap()
    return values


def stimulus_hash(cycles: Sequence[Mapping[str, int]]) -> str:
    """Deterministic hex digest of a pattern / cycle-input sequence.

    Entries are hashed in order (sequential stimulus is order-sensitive);
    port names are sorted once, so dict insertion order does not leak
    into the key.  When every entry drives the same ports (the traced
    stimulus always does), the values are read in one ``itemgetter``
    pass into one fixed-width array, hashed after the port names;
    otherwise each entry contributes its sorted ``(port, value)`` pairs.
    The two layouts are tagged apart, so no stimulus of one layout can
    collide with one of the other.
    """
    names = sorted(cycles[0]) if cycles else []
    values = _value_rows(cycles, names)
    if values is None:
        pairs = [sorted(cycle.items()) for cycle in cycles]
        return hashlib.blake2b(
            b"pairs:" + repr(pairs).encode(), digest_size=_DIGEST_SIZE
        ).hexdigest()
    h = hashlib.blake2b(
        b"rows:%d:%s;" % (len(cycles), repr(names).encode()),
        digest_size=_DIGEST_SIZE,
    )
    h.update(values)
    return h.hexdigest()
