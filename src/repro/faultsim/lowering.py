"""Netlist lowering and code generation for the faulty-machine kernels.

The packed engine (:mod:`repro.faultsim.packed`) and the good-machine
simulator (:mod:`repro.faultsim.simulator`) lower a levelized
:class:`~repro.netlist.netlist.Netlist` **once** into a flat straight-line
program over lane words and execute it through generated Python code
(``exec``-compiled once, then called per word or per cycle).  The lowering
pipeline:

1. **dead-net elimination** — a reverse-levelized cone walk keeps only the
   gates that can reach an observation root (observed output nets, plus
   every DFF ``D`` net for sequential circuits); logic feeding nothing
   observable is never evaluated;
2. **constant folding** — ``CONST0``/``CONST1`` *operands* are folded into
   the per-gate expressions (an AND with a tied-0 input becomes the
   literal ``0``, an XOR with a tied-1 input becomes an inversion, a MUX
   with a tied select collapses to one branch).  Folding is restricted to
   the literal constant nets: a net that is merely *structurally* constant
   may still carry an injected fault, so it must stay materialized;
3. **fusion** — each gate type lowers to its cheapest big-int form
   (``NOT`` as ``x ^ M``, ``NAND`` as ``(a & b) ^ M``, ``MUX2`` as
   ``a ^ ((a ^ b) & s)`` — three operations instead of four and no ``~``,
   which would leave the word domain; a *single-lane* program, valid
   only for ``M == 1``, branches instead: ``b if s else a``);
4. **code generation** — :func:`compile_seq` emits one function per level
   writing the net array in place, so lane-parallel evaluation can
   interleave fault injection between levels.  The good-machine simulator
   runs the same shape with every gate output as a root, so
   :func:`gate_expr` is the only statement of gate semantics on the
   good-machine side.

The packed engine's sequential walk lowers no whole netlist: per fault
batch, :class:`ConeLowering` emits one function over the batch's fan-out
cone, reading every other net from the good trace row and folding those
good operands into branches (:func:`cone_gate`, the cone-side statement
of gate semantics), with the faults applied inline through set and keep
masks.

Compiled programs are cached process-wide by ``(structural hash,
observation roots, single-lane flag)`` — re-grading a component (cache-warm runs, resumes,
equivalence suites) skips both lowering and ``exec``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import cast

from repro.errors import FaultSimError
from repro.faultsim.faults import FaultKind
from repro.netlist.gates import GateType
from repro.netlist.levelize import levelize, levels
from repro.netlist.netlist import CONST0, CONST1, Gate, Netlist
from repro.netlist.hashing import structural_hash

# --------------------------------------------------------------- operands
#
# An operand is ("zero" | "one" | "var", text).  "zero" folds as the
# constant 0 word, "one" as the all-lanes mask M; "var" text is always
# safe to embed without extra parentheses (atoms stay bare, compound
# results are parenthesized at build time).

_ZERO = ("zero", "0")
_ONE = ("one", "M")


def _wrap(text: str) -> str:
    """Parenthesize a compound expression for safe embedding."""
    return text if text.isidentifier() or text.isdigit() else f"({text})"


def _fold_and(ops: list[tuple[str, str]]) -> tuple[str, str]:
    keep = []
    for kind, text in ops:
        if kind == "zero":
            return _ZERO
        if kind != "one":
            keep.append(text)
    if not keep:
        return _ONE
    if len(keep) == 1:
        return ("var", keep[0])
    return ("var", " & ".join(_wrap(t) for t in keep))


def _fold_or(ops: list[tuple[str, str]]) -> tuple[str, str]:
    keep = []
    for kind, text in ops:
        if kind == "one":
            return _ONE
        if kind != "zero":
            keep.append(text)
    if not keep:
        return _ZERO
    if len(keep) == 1:
        return ("var", keep[0])
    return ("var", " | ".join(_wrap(t) for t in keep))


def _fold_xor(ops: list[tuple[str, str]], invert: bool = False) -> tuple[str, str]:
    keep = []
    for kind, text in ops:
        if kind == "one":
            invert = not invert
        elif kind != "zero":
            keep.append(text)
    if not keep:
        return _ONE if invert else _ZERO
    body = " ^ ".join(_wrap(t) for t in keep)
    if invert:
        body = f"{body} ^ M"
    elif len(keep) == 1:
        return ("var", keep[0])
    return ("var", body)


def _fold_not(op: tuple[str, str]) -> tuple[str, str]:
    kind, text = op
    if kind == "zero":
        return _ONE
    if kind == "one":
        return _ZERO
    return ("var", f"{_wrap(text)} ^ M")


def gate_expr(
    gtype: GateType, ops: list[tuple[str, str]], single_lane: bool = False
) -> str:
    """Cheapest folded big-int expression for one gate.

    Every produced expression stays within ``[0, M]`` provided the
    operands do (no ``~``), so no trailing ``& M`` is needed.
    ``single_lane`` programs run with ``M == 1`` only, where every
    value is 0 or 1 and a multiplexer can branch on its select.
    """
    if gtype is GateType.AND:
        return _fold_and(ops)[1]
    if gtype is GateType.OR:
        return _fold_or(ops)[1]
    if gtype is GateType.XOR:
        return _fold_xor(ops)[1]
    if gtype is GateType.NOT:
        return _fold_not(ops[0])[1]
    if gtype is GateType.BUF:
        return ops[0][1]
    if gtype is GateType.NAND:
        return _fold_not(_fold_and(ops))[1]
    if gtype is GateType.NOR:
        return _fold_not(_fold_or(ops))[1]
    if gtype is GateType.XNOR:
        return _fold_xor(ops, invert=True)[1]
    if gtype is GateType.AOI21:
        a, b, c = ops
        return _fold_not(_fold_or([_fold_and([a, b]), c]))[1]
    if gtype is GateType.MUX2:
        a, b, s = ops
        if s[0] == "zero":
            return a[1]
        if s[0] == "one":
            return b[1]
        if a == b:
            return a[1]
        if a[0] == "zero":
            return _fold_and([b, s])[1]
        aw, bw, sw = _wrap(a[1]), _wrap(b[1]), _wrap(s[1])
        if single_lane:
            return f"{bw} if {sw} else {aw}"
        return f"{aw} ^ (({aw} ^ {bw}) & {sw})"
    raise FaultSimError(f"unhandled gate type {gtype}")  # pragma: no cover


# ---------------------------------------------------------- cone pruning


def cone_keep(netlist: Netlist, roots: Iterable[int]) -> set[int]:
    """Indices of gates that can reach any root net (reverse cone walk)."""
    need = set(roots)
    keep: set[int] = set()
    for gate in reversed(levelize(netlist)):
        if gate.output in need:
            keep.add(gate.index)
            need.update(gate.inputs)
    return keep


# ----------------------------------------------------------- compilation


@dataclass(frozen=True)
class CompiledSeq:
    """One netlist lowered for batched-lane sequential evaluation.

    Attributes:
        level_fns: per level (1-based, index 0 unused) ``fn(v, M)``
            writing every kept gate output of that level into ``v``.
        driven_at: net -> driving level (sources are level 0).
        gate_level: gate index -> level.
        keep: kept gate indices (cone of the roots).
        max_level: deepest kept level.
        n_gates_kept / n_gates_total / n_folded_operands: accounting.
        source: concatenated generated source (debugging aid).
    """

    level_fns: tuple[Callable[[list[int], int], None], ...]
    driven_at: dict[int, int]
    gate_level: dict[int, int]
    keep: frozenset[int]
    max_level: int
    n_gates_kept: int
    n_gates_total: int
    n_folded_operands: int
    source: str


def _driven_at(netlist: Netlist, gate_level: dict[int, int]) -> dict[int, int]:
    return {g.output: gate_level[g.index] for g in netlist.gates}


def _count_folded(gates: Sequence[Gate]) -> int:
    return sum(
        1 for g in gates for n in g.inputs if n in (CONST0, CONST1)
    )


def compile_seq(
    netlist: Netlist, roots: Iterable[int], single_lane: bool = False
) -> CompiledSeq:
    """Lower a netlist for batched-lane cycle walks (see module doc).

    ``roots`` must contain every net whose value the driver reads back:
    observed output nets plus every DFF ``D`` net.  A ``single_lane``
    program is valid only when called with ``M == 1`` (the good
    machine's single-lane cycle walk); see :func:`gate_expr`.
    """
    gate_level = levels(netlist)
    order = levelize(netlist)
    keep = cone_keep(netlist, roots)
    kept = [g for g in order if g.index in keep]
    driven_at = _driven_at(netlist, gate_level)

    by_level: dict[int, list[Gate]] = {}
    for g in kept:
        by_level.setdefault(gate_level[g.index], []).append(g)
    max_level = max(by_level, default=0)

    def opnd(n: int) -> tuple[str, str]:
        if n == CONST0:
            return _ZERO
        if n == CONST1:
            return _ONE
        return ("var", f"v[{n}]")

    sources: list[str] = []
    fns: list[Callable[[list[int], int], None]] = [lambda v, M: None]
    for level in range(1, max_level + 1):
        lines = [f"def _lvl{level}(v, M):"]
        for g in by_level.get(level, []):
            expr = gate_expr(
                g.gtype, [opnd(n) for n in g.inputs], single_lane
            )
            lines.append(f"    v[{g.output}] = {expr}")
        if len(lines) == 1:
            lines.append("    pass")
        src = "\n".join(lines)
        sources.append(src)
        namespace: dict[str, object] = {}
        exec(compile(src, f"<faultsim-seq-l{level}>", "exec"), namespace)
        fns.append(
            cast(
                "Callable[[list[int], int], None]",
                namespace[f"_lvl{level}"],
            )
        )

    return CompiledSeq(
        level_fns=tuple(fns),
        driven_at=driven_at,
        gate_level=gate_level,
        keep=frozenset(keep),
        max_level=max_level,
        n_gates_kept=len(kept),
        n_gates_total=len(netlist.gates),
        n_folded_operands=_count_folded(kept),
        source="\n\n".join(sources),
    )


# ----------------------------------------------------------- cone kernels
#
# A cone kernel evaluates one fault batch's fan-out cone for one cycle of
# a single-lane good trace.  Its operands come in three kinds: ("c",
# "0"|"1") a constant, ("b", text) a good value read from the trace row
# ``r`` (0 or 1, the same in every lane), and ("w", text) a lane word.
# Every text is safe to embed as is: a name, a digit, ``r[n]`` or a
# parenthesized expression.  Good operands fold into branches, so a gate
# pays word operations only for its inputs inside the cone.

_Operand = tuple[str, str]


def _word(op: _Operand) -> str:
    kind, text = op
    if kind == "c":
        return "M" if text == "1" else "0"
    if kind == "b":
        return f"(M if {text} else 0)"
    return text


def _split(ops: list[_Operand]) -> tuple[list[str], list[str], list[str]]:
    consts: list[str] = []
    goods: list[str] = []
    words: list[str] = []
    for kind, text in ops:
        (consts if kind == "c" else goods if kind == "b" else words).append(
            text
        )
    return consts, goods, words


def _join(texts: list[str], sep: str) -> str:
    return texts[0] if len(texts) == 1 else f"({sep.join(texts)})"


def _cone_and(ops: list[_Operand]) -> _Operand:
    consts, goods, words = _split(ops)
    if "0" in consts:
        return ("c", "0")
    if not words:
        return ("b", _join(goods, " and ")) if goods else ("c", "1")
    word = _join(words, " & ")
    if not goods:
        return ("w", word)
    return ("w", f"({word} if {_join(goods, ' and ')} else 0)")


def _cone_or(ops: list[_Operand]) -> _Operand:
    consts, goods, words = _split(ops)
    if "1" in consts:
        return ("c", "1")
    if not words:
        return ("b", _join(goods, " or ")) if goods else ("c", "0")
    word = _join(words, " | ")
    if not goods:
        return ("w", word)
    return ("w", f"(M if {_join(goods, ' or ')} else {word})")


def _cone_xor(ops: list[_Operand], invert: bool = False) -> _Operand:
    consts, goods, words = _split(ops)
    invert ^= consts.count("1") % 2 == 1
    if not words:
        if not goods:
            return ("c", "1" if invert else "0")
        parity = _join(goods, " ^ ")
        return ("b", f"({parity} ^ 1)") if invert else ("b", parity)
    word = _join(words, " ^ ")
    flipped = f"({word} ^ M)"
    if not goods:
        return ("w", flipped if invert else word)
    parity = _join(goods, " ^ ")
    if invert:
        return ("w", f"({word} if {parity} else {flipped})")
    return ("w", f"({flipped} if {parity} else {word})")


def _cone_not(op: _Operand) -> _Operand:
    kind, text = op
    if kind == "c":
        return ("c", "0" if text == "1" else "1")
    if kind == "b":
        return ("b", f"({text} ^ 1)")
    return ("w", f"({text} ^ M)")


def _cone_mux(a: _Operand, b: _Operand, s: _Operand) -> _Operand:
    """``s ? b : a``; a good select picks one input outright."""
    if s[0] == "c":
        return b if s[1] == "1" else a
    if a == b:
        return a
    if s[0] == "b":
        if a[0] != "w" and b[0] != "w":
            return ("b", f"({b[1]} if {s[1]} else {a[1]})")
        return ("w", f"({_word(b)} if {s[1]} else {_word(a)})")
    sel = s[1]
    nsel = f"({sel} ^ M)"
    if a[0] == "w" and b[0] == "w":
        return ("w", f"({a[1]} ^ (({a[1]} ^ {b[1]}) & {sel}))")
    if b[0] == "w":  # good a: lanes with s=0 read a
        return ("w", f"(({b[1]} | {nsel}) if {a[1]} else ({b[1]} & {sel}))")
    if a[0] == "w":  # good b: lanes with s=1 read b
        return ("w", f"(({a[1]} | {sel}) if {b[1]} else ({a[1]} & {nsel}))")
    return (
        "w",
        f"((M if {b[1]} else {nsel}) if {a[1]} else "
        f"({sel} if {b[1]} else 0))",
    )


def cone_gate(gtype: GateType, ops: list[_Operand]) -> _Operand:
    """One gate over mixed cone operands (see the section comment)."""
    if gtype is GateType.AND:
        return _cone_and(ops)
    if gtype is GateType.OR:
        return _cone_or(ops)
    if gtype is GateType.XOR:
        return _cone_xor(ops)
    if gtype is GateType.NOT:
        return _cone_not(ops[0])
    if gtype is GateType.BUF:
        return ops[0]
    if gtype is GateType.NAND:
        return _cone_not(_cone_and(ops))
    if gtype is GateType.NOR:
        return _cone_not(_cone_or(ops))
    if gtype is GateType.XNOR:
        return _cone_xor(ops, invert=True)
    if gtype is GateType.AOI21:
        a, b, c = ops
        return _cone_not(_cone_or([_cone_and([a, b]), c]))
    if gtype is GateType.MUX2:
        return _cone_mux(*ops)
    raise FaultSimError(f"unhandled gate type {gtype}")  # pragma: no cover


def _inject(op: _Operand, slot: int) -> _Operand:
    """Apply slot ``slot``'s set mask ``S`` and keep mask ``K``."""
    kind, text = op
    if kind == "c":
        return ("w", f"K{slot}" if text == "1" else f"S{slot}")
    if kind == "b":
        return ("w", f"(K{slot} if {text} else S{slot})")
    return ("w", f"(({text} | S{slot}) & K{slot})")


#: One injection site: ``(kind, net, gate, pin)`` of a fault without its
#: stuck value.  Faults of both polarities on one site share a slot.
Site = tuple[FaultKind, int, int, int]


@dataclass(frozen=True)
class ConeKernel:
    """One fault batch's fan-out cone, lowered to a cycle function.

    Attributes:
        make: ``make(M, S0, K0, S1, K1, ...)`` binds the all-lanes mask
            and each site slot's set and keep masks, and returns
            ``step(r, s) -> (next_s, diffs)``.  ``r`` is the cycle's good
            trace row; ``s`` holds, per cone DFF, the lanes whose state
            differs from the good state (likewise ``next_s``); ``diffs``
            holds, per observe entry, the lanes that differ from the good
            machine on one of its nets.
        dffs: the cone's DFF indices, in state order.
    """

    make: Callable[..., Callable[[bytes, tuple[int, ...]], tuple]]
    dffs: tuple[int, ...]


class ConeLowering:
    """The cone-kernel compiler for one netlist and its observed nets.

    A net is *live* when its value can reach an observed net, through
    gates and through DFFs (D to Q).  A batch's cone is the fan-out of
    its fault sites, closed over gates and DFFs and cut to live logic;
    every net outside it carries its good value in every lane, which the
    kernel reads from the trace row.
    """

    def __init__(self, netlist: Netlist, observed: Iterable[int]):
        self.netlist = netlist
        order = levelize(netlist)
        self._position = {g.index: i for i, g in enumerate(order)}
        readers: dict[int, list[int]] = {}
        for gate in netlist.gates:
            for net in gate.inputs:
                readers.setdefault(net, []).append(gate.index)
        self._readers = readers
        latches: dict[int, list[int]] = {}
        for dff in netlist.dffs:
            latches.setdefault(dff.d, []).append(dff.index)
        self._latches = latches
        driver = {g.output: g for g in netlist.gates}
        q_of = {d.q: d for d in netlist.dffs}
        live = set(observed)
        stack = list(live)
        while stack:
            net = stack.pop()
            feeds: tuple[int, ...] = ()
            if net in driver:
                feeds = driver[net].inputs
            elif net in q_of:
                feeds = (q_of[net].d,)
            for n in feeds:
                if n not in live:
                    live.add(n)
                    stack.append(n)
        self.live = frozenset(live)

    def reaches(self, site: Site) -> bool:
        """Whether a fault on ``site`` can ever reach an observed net."""
        kind, net, gate, _pin = site
        if kind is FaultKind.STEM:
            return net in self.live
        if kind is FaultKind.BRANCH:
            return self.netlist.gates[gate].output in self.live
        return self.netlist.dffs[gate].q in self.live

    def compile(
        self, sites: Sequence[Site], entries: Sequence[Sequence[int]]
    ) -> ConeKernel:
        """Lower the live fan-out cone of ``sites`` (slot ``i`` is
        ``sites[i]``), reporting one diff word per observe entry."""
        netlist = self.netlist
        gates, dffs, live = netlist.gates, netlist.dffs, self.live
        stem_slot: dict[int, int] = {}
        pin_slot: dict[tuple[int, int], int] = {}
        dff_slot: dict[int, int] = {}
        cone_gates: set[int] = set()
        cone_dffs: set[int] = set()
        stack: list[int] = []
        for slot, (kind, net, gate, pin) in enumerate(sites):
            if kind is FaultKind.STEM:
                stem_slot[net] = slot
                stack.append(net)
            elif kind is FaultKind.BRANCH:
                pin_slot[gate, pin] = slot
                cone_gates.add(gate)
                stack.append(gates[gate].output)
            else:
                dff_slot[gate] = slot
                cone_dffs.add(gate)
                stack.append(dffs[gate].q)
        cone_nets: set[int] = set()
        while stack:
            net = stack.pop()
            if net in cone_nets or net not in live:
                continue
            cone_nets.add(net)
            for g in self._readers.get(net, ()):
                if gates[g].output in live:
                    cone_gates.add(g)
                    stack.append(gates[g].output)
            for d in self._latches.get(net, ()):
                if dffs[d].q in live:
                    cone_dffs.add(d)
                    stack.append(dffs[d].q)

        state = sorted(cone_dffs)
        val: dict[int, _Operand] = {}
        lines: list[str] = []

        def read(net: int) -> _Operand:
            if net in val:
                return val[net]
            if net == CONST0:
                return ("c", "0")
            if net == CONST1:
                return ("c", "1")
            return ("b", f"r[{net}]")

        def assign(net: int, op: _Operand) -> None:
            if net in stem_slot:
                op = _inject(op, stem_slot[net])
            if op[0] != "c" and not op[1].isidentifier():
                lines.append(f"v{net} = {op[1]}")
                op = (op[0], f"v{net}")
            val[net] = op

        # Sources first: the cone DFFs' Q nets, then stem faults on nets
        # whose driver lies outside the cone (good value, then masks).
        for k, d in enumerate(state):
            q = dffs[d].q
            assign(q, ("w", f"((q{k} ^ M) if r[{q}] else q{k})"))
        driven = {gates[g].output for g in cone_gates}
        for net in stem_slot:
            if net not in val and net not in driven:
                assign(net, read(net))
        for g in sorted(cone_gates, key=self._position.__getitem__):
            gate = gates[g]
            ops = [read(n) for n in gate.inputs]
            for pin in range(len(ops)):
                slot = pin_slot.get((g, pin))
                if slot is not None:
                    ops[pin] = _inject(ops[pin], slot)
            assign(gate.output, cone_gate(gate.gtype, ops))

        def diff(net: int, op: _Operand) -> str:
            """Lanes where ``op`` differs from the good value of ``net``."""
            if op[0] != "w":
                return "0"
            return f"(({op[1]} ^ M) if r[{net}] else {op[1]})"

        next_state = []
        for d in state:
            op = read(dffs[d].d)
            if d in dff_slot:
                op = _inject(op, dff_slot[d])
            next_state.append(diff(dffs[d].d, op))
        observed: dict[int, str] = {}
        for entry in entries:
            for net in entry:
                if net not in observed and net in val and val[net][0] == "w":
                    lines.append(f"x{net} = {diff(net, val[net])}")
                    observed[net] = f"x{net}"
        diffs = [
            " | ".join(observed[n] for n in entry if n in observed) or "0"
            for entry in entries
        ]

        params = ", ".join(
            ["M", *(f"S{i}, K{i}" for i in range(len(sites)))]
        )
        body = [f"q{k}" for k in range(len(state))]
        src = [f"def make({params}):", "    def step(r, s):"]
        if body:
            src.append(f"        {', '.join(body)}, = s")
        src.extend(f"        {line}" for line in lines)
        src.append(
            f"        return ({''.join(f'{x}, ' for x in next_state)}), "
            f"({''.join(f'{x}, ' for x in diffs)})"
        )
        src.append("    return step")
        source = "\n".join(src)
        namespace: dict[str, object] = {}
        exec(compile(source, "<faultsim-cone>", "exec"), namespace)
        return ConeKernel(
            make=cast("Callable[..., Callable]", namespace["make"]),
            dffs=tuple(state),
        )


# ------------------------------------------------------ compiled-program cache

_MAX_PROGRAMS = 16
_programs: "OrderedDict[tuple[str, tuple[int, ...], bool], CompiledSeq]" = (
    OrderedDict()
)


def cached_compile_seq(
    netlist: Netlist, roots: Sequence[int], single_lane: bool = False
) -> CompiledSeq:
    """`compile_seq` through the process-wide program cache (LRU).

    The single-lane flag is part of the key, so a multi-lane caller
    (the packed engine) can never receive a single-lane program.
    """
    key = (structural_hash(netlist), tuple(sorted(set(roots))), single_lane)
    prog = _programs.get(key)
    if prog is not None:
        _programs.move_to_end(key)
        return prog
    prog = compile_seq(netlist, roots, single_lane)
    _programs[key] = prog
    while len(_programs) > _MAX_PROGRAMS:
        _programs.popitem(last=False)
    return prog


def clear_program_cache() -> None:
    _programs.clear()
