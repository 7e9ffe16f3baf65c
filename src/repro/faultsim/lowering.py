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
