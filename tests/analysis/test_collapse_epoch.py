"""Pin the collapse and fault-universe output behind ``COLLAPSE_EPOCH``
and ``FAULT_EPOCH``.

Persistent-store verdict keys carry the collapse and fault-universe
epoch tags, not the collapse hash or the universe: a store hit replays a
record without building the map or the fault list.  That is sound only
while the map and the fault order and classes are a function of the
netlist structure and the tags.  This test pins both for every phase-A
component, so a change to ``compute_collapse`` or to
``build_fault_list`` cannot reach a store silently: whoever changes the
output must bump the tag and re-pin here.  ``COLLAPSE_EPOCH`` is hashed
into every ``collapse_hash``, and the universe digests are pinned under
``PINNED_FAULT_EPOCH``, so a bump alone also shows up as a mismatch.
"""

import hashlib
import random

import pytest

from repro.analysis.collapse import compute_collapse
from repro.faultsim.faults import FAULT_EPOCH, build_fault_list, fault_token
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType
from repro.plasma.components import COMPONENTS

#: Per component: (collapse_hash, digest of the fault order and classes).
PINNED = {
    "RegF": ("3756c0c063510f0e994c60bb76613f18",
             "ee2a9d18b79c6c72b4047daee23da010"),
    "MulD": ("d5c3fef3af29760366b7d08c517c06ec",
             "6e80f9af7f117883e60350301d9f5369"),
    "ALU": ("1afc7cf2a5a20db76ccc5b1f70d86788",
            "af72d7a53395e686f6c55f270a0cbdb8"),
    "BSH": ("5f310edb764f4828a3b7a46cb3943dca",
            "5cae24db64e9251affe18a3e129419f9"),
    "MCTRL": ("2eb8a3d0e9c5043964c0fac53a9fc5b2",
              "b43d783fcbf788e7955b8a05ba2ca419"),
    "PCL": ("5059194713c05e29c0660598e3d28989",
            "f96456843104388cc22a29ee07ffcabc"),
    "CTRL": ("d91f6cfeb16a3540a4dedccdbf783233",
             "f1a6867af3da6602ed7f3d6aefce24bb"),
    "BMUX": ("c4fc28b6b404a8131c8ceb5ffb37c3c6",
             "4aed4983ba16a2494c8c02a57e36b8b7"),
    "PLN": ("8abe4a183eb8e4cffbe77405ee2efbc9",
            "fe09ed704538ce7d7514a93d017f09ea"),
    "GL": ("b4b8cf75dd85fb122534f50a2a11dfe3",
           "0f5598f728c08780514af477aab657d6"),
}

#: Per seed of :func:`_every_gate_type`: the same pair.
PINNED_SYNTHETIC = {
    1: ("aaf23531524b75954e8519079ba7e51d",
        "49e568a38e09b86cb5f12cc7e76a0731"),
    2: ("ce564bfa613c23a0900a0035b68cf53a",
        "962046e7e9b32be529e24561edc61995"),
}

#: The fault-universe epoch the digests above were pinned under.
PINNED_FAULT_EPOCH = "faults-v1"

BUMP = (
    "collapse or fault-universe output changed: bump `COLLAPSE_EPOCH` "
    "(collapse hash) or `FAULT_EPOCH` (universe digest) and re-pin "
    "(store records would otherwise replay stale verdicts)"
)


def _universe_digest(fault_list):
    """Each fault's token in index order, with its class representative."""
    digest = hashlib.blake2b(digest_size=16)
    for fault, rep in zip(
        fault_list.faults, fault_list.representative, strict=True
    ):
        digest.update(f"{fault_token(fault)}>{rep}\0".encode())
    return digest.hexdigest()


def _every_gate_type(seed):
    """A seeded netlist over every gate type, with registered taps.

    The phase-A components use no NAND or AOI21 gates, so their pins
    alone would not see a change to those rows of the collapse tables.
    """
    rng = random.Random(seed)
    b = NetlistBuilder(f"epoch{seed}")
    nets = list(b.input("x", 6))
    arity = {GateType.NOT: 1, GateType.BUF: 1, GateType.MUX2: 3,
             GateType.AOI21: 3}
    for i in range(120):
        gtype = list(GateType)[i % len(GateType)]
        n_in = arity.get(gtype, rng.choice((2, 3)))
        out = b.gate(gtype, *(rng.choice(nets) for _ in range(n_in)))
        if rng.random() < 0.1:
            out = b.dff(out, init=rng.randrange(2))
        nets.append(out)
    b.output("y", nets[-12:])
    return b.build()


def _pinned(netlist):
    cmap = compute_collapse(netlist, build_fault_list(netlist))
    return cmap.collapse_hash, _universe_digest(cmap.fault_list)


@pytest.mark.parametrize("info", COMPONENTS, ids=lambda i: i.name)
def test_collapse_output_matches_the_epoch(info):
    assert _pinned(info.builder()) == PINNED[info.name], BUMP


@pytest.mark.parametrize("seed", sorted(PINNED_SYNTHETIC))
def test_every_gate_type_matches_the_epoch(seed):
    assert _pinned(_every_gate_type(seed)) == PINNED_SYNTHETIC[seed], BUMP


def test_digests_are_pinned_under_the_current_fault_epoch():
    assert FAULT_EPOCH == PINNED_FAULT_EPOCH, (
        "FAULT_EPOCH was bumped: re-pin the universe digests above and "
        "PINNED_FAULT_EPOCH"
    )
