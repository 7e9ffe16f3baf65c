"""Abstract interpretation of assembled SBST programs.

A worklist fixpoint over the delay-slot-aware CFG (:mod:`repro.analysis.
cfg`) propagates one :class:`AbsState` — 34 abstract registers
(HI/LO as pseudo-registers, matching :data:`~repro.analysis.cfg.REG_HI`)
plus an abstract memory map — through every reachable basic block.  The
per-instruction transfer function mirrors the behavioural CPU
(:mod:`repro.plasma.cpu`) *exactly* on every value the component tracer
records, because the reach analysis (:mod:`repro.analysis.reach`) derives
its abstract stimulus patterns from these facts and its soundness
argument is "every traced concrete stimulus entry is covered by some
derived abstract pattern" (DESIGN.md §15).

Soundness policies for the hard cases:

* **indirect control** (``jr``/``jalr`` reachable): every block becomes
  reachable and a fully havocked state (all registers, HI/LO and data
  memory unknown) is joined into every block entry.  Instruction words,
  PCs and control bundles stay exact — they do not depend on state.
* **calls** (``jal``/``jalr``): the fall-through (return) edge carries
  the havocked state — the callee may have changed anything.
* **split branch/delay-slot pairs** (a leader lands on a delay slot):
  the target edge carries the block's out-state with the slot
  instruction's effects havocked.
* **stores**: the analysis's soundness target is the *traced good-machine
  run* (fault grading replays the trace of the one concrete execution of
  the program — there is no faulty-machine program run).  That run is
  deterministic and cheap, so :func:`observe_stores` executes it once
  behaviourally and records the exact set of stored word addresses.  If
  none lies in a code segment the static instruction image is valid for
  the traced run, and a store at an abstractly-imprecise address merely
  havocs the observed write set.  Without that dynamic evidence (program
  did not halt, or the caller opted out) a store that cannot be proven
  outside every code segment degrades the whole analysis — a
  non-relational domain cannot bound response pointers advanced inside
  counted loops, so the dynamic pass is what keeps shipped phase
  programs precise.
* **undecodable reachable words** degrade the analysis the same way.

A degraded analysis is still *sound*: it simply proves nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.analysis.absword import (
    TOP,
    AbstractWord,
    const,
)
from repro.analysis.cfg import (
    REG_HI,
    REG_LO,
    BasicBlock,
    ControlFlowGraph,
    Instr,
    build_cfg,
)
from repro.isa.program import Program
from repro.library.alu import AluOp
from repro.library.multiplier import MulDivOp, muldiv_reference
from repro.plasma.controls import (
    ASource,
    BranchType,
    BSource,
    ControlBundle,
    MemSize,
    RegDest,
    WbSource,
    decode_controls,
)

#: Joins at a block entry before interval bounds are widened.
_WIDEN_AFTER = 2

_ZERO = const(0)


class AnalysisDegraded(Exception):
    """The abstraction cannot certify the static program image; raised
    internally and converted into a degraded :class:`ProgramAbstraction`."""


# ------------------------------------------------------------------ memory


class AbsMemory:
    """Abstract data-memory map over the program's initial image.

    The initial image is exact (the sparse behavioural memory reads 0
    for untouched words); stores at exactly-known addresses update a
    write overlay; a store at an imprecise address havocs the whole map
    (every later load reads ⊤).  The image mapping is shared, never
    copied.
    """

    __slots__ = ("image", "writes", "havoc")

    def __init__(
        self,
        image: Mapping[int, int],
        writes: dict[int, AbstractWord] | None = None,
        havoc: bool = False,
    ) -> None:
        self.image = image
        self.writes: dict[int, AbstractWord] = writes if writes is not None else {}
        self.havoc = havoc

    def copy(self) -> "AbsMemory":
        return AbsMemory(self.image, dict(self.writes), self.havoc)

    def load_word(self, addr: int) -> AbstractWord:
        """Abstract value of the aligned word at a known byte address."""
        if self.havoc:
            return TOP
        addr &= ~3
        hit = self.writes.get(addr)
        if hit is not None:
            return hit
        return const(self.image.get(addr, 0))

    def store_word(self, addr: int, value: AbstractWord) -> None:
        """Strong update at a known aligned address (flow-sensitive)."""
        if not self.havoc:
            self.writes[addr & ~3] = value

    def havocked(self) -> "AbsMemory":
        return AbsMemory(self.image, None, True)

    def havoc_words(self, words: frozenset[int]) -> "AbsMemory":
        """Forget the value of every word in the observed write set.

        Used instead of a full havoc when the concrete run's store
        addresses are known: any store — wherever its abstract address
        points — can only have written words in this set.
        """
        if self.havoc:
            return AbsMemory(self.image, None, True)
        writes = dict(self.writes)
        for addr in words:
            writes[addr] = TOP
        return AbsMemory(self.image, writes)

    def join(self, other: "AbsMemory") -> "AbsMemory":
        if self.havoc or other.havoc:
            return AbsMemory(self.image, None, True)
        writes: dict[int, AbstractWord] = {}
        for addr in self.writes.keys() | other.writes.keys():
            writes[addr] = self.load_word(addr).join(other.load_word(addr))
        return AbsMemory(self.image, writes)

    def widen(self, new: "AbsMemory") -> "AbsMemory":
        if self.havoc or new.havoc:
            return AbsMemory(self.image, None, True)
        writes: dict[int, AbstractWord] = {}
        for addr in self.writes.keys() | new.writes.keys():
            writes[addr] = self.load_word(addr).widen(new.load_word(addr))
        return AbsMemory(self.image, writes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbsMemory):
            return NotImplemented
        return self.havoc == other.havoc and self.writes == other.writes

    def __hash__(self) -> int:  # pragma: no cover - never hashed
        raise TypeError("AbsMemory is unhashable")


# ------------------------------------------------------------------- state


@dataclass
class AbsState:
    """Abstract machine state at a program point: 34 registers + memory."""

    regs: list[AbstractWord]
    mem: AbsMemory

    def copy(self) -> "AbsState":
        return AbsState(list(self.regs), self.mem.copy())

    def join(self, other: "AbsState") -> "AbsState":
        return AbsState(
            [a.join(b) for a, b in zip(self.regs, other.regs)],
            self.mem.join(other.mem),
        )

    def widen(self, new: "AbsState") -> "AbsState":
        return AbsState(
            [a.widen(b) for a, b in zip(self.regs, new.regs)],
            self.mem.widen(new.mem),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbsState):
            return NotImplemented
        return self.regs == other.regs and self.mem == other.mem

    def havoc_all(self, written: frozenset[int] | None = None) -> "AbsState":
        regs = [TOP] * len(self.regs)
        regs[0] = _ZERO
        if written is None:
            return AbsState(regs, self.mem.havocked())
        return AbsState(regs, self.mem.havoc_words(written))


# ------------------------------------------------------------------- facts


@dataclass(frozen=True)
class InstrFacts:
    """Everything the tracer records about one static instruction, as
    abstract values covering every dynamic execution of it."""

    instr: Instr
    bundle: ControlBundle
    rs_val: AbstractWord
    rt_val: AbstractWord
    a_bus: AbstractWord
    b_bus: AbstractWord
    alu_result: AbstractWord
    shift_result: AbstractWord
    mem_value: AbstractWord
    mem_word: AbstractWord
    mem_steered: AbstractWord
    lo: AbstractWord
    hi: AbstractWord
    wb_value: AbstractWord
    wb_dest: int
    uses_alu_result: bool
    uses_shifter: bool
    is_muldiv_write: bool
    is_branch: bool
    needs_muldiv: bool
    has_mem_access: bool
    branch_target: AbstractWord
    branch_taken: AbstractWord

    @property
    def pc_plus4(self) -> int:
        return (self.instr.address + 4) & 0xFFFF_FFFF


@dataclass
class ProgramAbstraction:
    """Result of abstractly interpreting one assembled program.

    ``facts`` holds one :class:`InstrFacts` per *reachable* instruction
    address; unreachable instructions never trace and derive no
    patterns.  A ``degraded`` abstraction proves nothing (the reach
    screen marks every fault class unknown).
    """

    digest: str
    entry: int
    entry_word: int
    facts: dict[int, InstrFacts] = field(default_factory=dict)
    degraded: bool = False
    degrade_reason: str = ""
    indirect_control: bool = False
    n_blocks_reachable: int = 0


def program_digest(program: Program) -> str:
    """Content digest of an assembled program (identity for reach caching)."""
    h = hashlib.sha256()
    h.update(f"entry:{program.entry}".encode())
    for seg in sorted(program.segments, key=lambda s: (s.base, s.is_code)):
        h.update(f"seg:{seg.base}:{int(seg.is_code)}".encode())
        for word in seg.words:
            h.update(word.to_bytes(4, "little"))
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- transfer


def _abs_alu(op: AluOp, a: AbstractWord, b: AbstractWord) -> AbstractWord:
    """Abstract mirror of :func:`repro.library.alu.alu_reference`."""
    if op is AluOp.PASS_A:
        return _ZERO  # idle encoding: no pass-through path exists
    if op is AluOp.PASS_B:
        return b
    if op is AluOp.ADD:
        return a.add(b)
    if op is AluOp.SUB:
        return a.sub(b)
    if op is AluOp.AND:
        return a.band(b)
    if op is AluOp.OR:
        return a.bor(b)
    if op is AluOp.XOR:
        return a.bxor(b)
    if op is AluOp.NOR:
        return a.bnor(b)
    if op is AluOp.SLT:
        return a.slt(b)
    if op is AluOp.SLTU:
        return a.sltu(b)
    raise AssertionError(f"unhandled op {op}")  # pragma: no cover


def _abs_busmux_b(
    b_source: BSource, rt_val: AbstractWord, imm: int
) -> AbstractWord:
    """Abstract b-bus; every non-``RT`` choice is a pure function of the
    (constant) immediate, so it delegates to the bit-true reference."""
    from repro.plasma.busmux import busmux_reference

    if b_source is BSource.RT:
        return rt_val
    _, b_bus, _ = busmux_reference(0, int(b_source), 0, 0, 0, imm, 0)
    return const(b_bus)


def _abs_shift(
    value: AbstractWord, shamt: int | None, left: bool, arith: bool
) -> AbstractWord:
    """Abstract mirror of :func:`repro.library.shifter.shifter_reference`."""
    if shamt is None:
        return TOP
    if left:
        return value.shl(shamt)
    if arith:
        return value.sar(shamt)
    return value.shr(shamt)


def _abs_branch_taken(
    bt: BranchType, rs: AbstractWord, rt: AbstractWord
) -> AbstractWord:
    """Abstract mirror of the branch-condition reference (result 0/1)."""
    from repro.analysis.absword import BOOL_UNKNOWN

    if bt is BranchType.NONE:
        return _ZERO
    if bt is BranchType.ALWAYS:
        return const(1)
    if bt in (BranchType.EQ, BranchType.NE):
        eq = rs.decide_eq(rt)
        if eq is None:
            return BOOL_UNKNOWN
        taken = eq if bt is BranchType.EQ else not eq
        return const(int(taken))
    s_lo, s_hi = rs.signed_bounds()
    if bt is BranchType.LTZ:
        taken = None if s_lo < 0 <= s_hi else s_hi < 0
    elif bt is BranchType.GEZ:
        taken = None if s_lo < 0 <= s_hi else s_lo >= 0
    elif bt is BranchType.LEZ:
        taken = None if s_lo <= 0 <= s_hi and s_hi > 0 else s_hi <= 0
    else:  # GTZ
        taken = None if s_lo <= 0 <= s_hi and s_hi > 0 else s_lo > 0
    if taken is None:
        return BOOL_UNKNOWN
    return const(int(taken))


class _Interpreter:
    """One fixpoint run over one program."""

    def __init__(
        self,
        program: Program,
        written_words: frozenset[int] | None = None,
    ) -> None:
        self.program = program
        self.cfg: ControlFlowGraph = build_cfg(program)
        self.image = program.to_image()
        self.code_ranges: list[tuple[int, int]] = [
            (seg.base, seg.end)
            for seg in program.segments
            if seg.is_code and seg.words
        ]
        #: Word addresses the concrete run stored to (None = unobserved).
        #: When present, interpret_program has already checked that none
        #: lies in a code segment, so the static image is trusted and
        #: imprecise stores havoc only this set.
        self.written_words = written_words
        self.indirect = False

    # ------------------------------------------------------------ helpers

    def _hits_code(self, lo: int, hi: int) -> bool:
        """Could a byte access in ``[lo, hi]`` touch a code segment?"""
        return any(lo < end and base <= hi for base, end in self.code_ranges)

    def _degrade(self, instr: Instr, why: str) -> None:
        raise AnalysisDegraded(f"@{instr.address:#010x}: {why}")

    # ----------------------------------------------------------- transfer

    def transfer(
        self, instr: Instr, state: AbsState
    ) -> tuple[InstrFacts, AbsState]:
        """Execute one instruction abstractly; mirrors ``PlasmaCPU.step``."""
        decoded = instr.decoded
        if decoded is None:
            self._degrade(instr, "reachable word is not decodable")
            raise AssertionError  # pragma: no cover - _degrade raises
        bundle = decode_controls(decoded)
        state = state.copy()

        rs_val = state.regs[decoded.rs]
        rt_val = state.regs[decoded.rt]
        pc_plus4 = (instr.address + 4) & 0xFFFF_FFFF

        uses_alu_result = (
            bundle.mem_read
            or bundle.mem_write
            or (bundle.reg_write and bundle.wb_source is WbSource.ALU)
            or (bundle.branch_type is not BranchType.NONE
                and not bundle.jump_reg and not bundle.jump_abs)
        )
        uses_shifter = bundle.reg_write and bundle.wb_source is WbSource.SHIFT
        is_muldiv_write = bundle.muldiv_op is not MulDivOp.IDLE
        is_branch = bundle.branch_type is not BranchType.NONE
        needs_muldiv = (
            is_muldiv_write
            or bundle.wb_source in (WbSource.LO, WbSource.HI)
        )

        # ----------------------------------------------------- datapath
        a_bus = (
            const(pc_plus4)
            if bundle.a_source is ASource.PC_PLUS4 else rs_val
        )
        b_bus = _abs_busmux_b(bundle.b_source, rt_val, decoded.imm)
        alu_result = _abs_alu(bundle.alu_func, a_bus, b_bus)

        shift_result = _ZERO
        if uses_shifter:
            if bundle.shift_variable:
                masked = rs_val.band(const(31))
                shamt = masked.as_const()
            else:
                shamt = decoded.shamt
            shift_result = _abs_shift(
                rt_val, shamt, bundle.shift_left, bundle.shift_arith
            )

        # ------------------------------------------------- memory access
        mem_value = _ZERO
        mem_word = _ZERO
        mem_steered = _ZERO
        if bundle.mem_read:
            mem_value, mem_word = self._load(instr, bundle, alu_result, state)
        elif bundle.mem_write:
            mem_steered = self._store(instr, bundle, alu_result, rt_val, state)

        # ------------------------------------------------- mul/div issue
        if bundle.muldiv_op is MulDivOp.MTHI:
            state.regs[REG_HI] = rs_val
        elif bundle.muldiv_op is MulDivOp.MTLO:
            state.regs[REG_LO] = rs_val
        elif is_muldiv_write:
            rs_c, rt_c = rs_val.as_const(), rt_val.as_const()
            if rs_c is not None and rt_c is not None:
                hi_c, lo_c = muldiv_reference(bundle.muldiv_op, rs_c, rt_c)
                state.regs[REG_HI] = const(hi_c)
                state.regs[REG_LO] = const(lo_c)
            else:
                state.regs[REG_HI] = TOP
                state.regs[REG_LO] = TOP
        lo_val = state.regs[REG_LO]
        hi_val = state.regs[REG_HI]

        # --------------------------------------------------- write-back
        wb_value = _ZERO
        wb_dest = 0
        if bundle.reg_write:
            if bundle.reg_dest is RegDest.RD:
                wb_dest = decoded.rd
            elif bundle.reg_dest is RegDest.RT:
                wb_dest = decoded.rt
            else:
                wb_dest = 31
            if bundle.wb_source is WbSource.ALU:
                wb_value = alu_result
            elif bundle.wb_source is WbSource.SHIFT:
                wb_value = shift_result
            elif bundle.wb_source is WbSource.MEM:
                wb_value = mem_value
            elif bundle.wb_source is WbSource.LO:
                wb_value = lo_val
            else:
                wb_value = hi_val
            if wb_dest != 0:
                state.regs[wb_dest] = wb_value

        # ----------------------------------------------------- branches
        branch_target: AbstractWord = _ZERO
        branch_taken: AbstractWord = _ZERO
        if is_branch:
            if bundle.jump_abs:
                branch_target = const(
                    (pc_plus4 & 0xF000_0000) | (decoded.target << 2)
                )
            elif bundle.jump_reg:
                branch_target = rs_val
            else:
                branch_target = alu_result
            branch_taken = _abs_branch_taken(
                bundle.branch_type, rs_val, rt_val
            )

        facts = InstrFacts(
            instr=instr,
            bundle=bundle,
            rs_val=rs_val,
            rt_val=rt_val,
            a_bus=a_bus,
            b_bus=b_bus,
            alu_result=alu_result,
            shift_result=shift_result,
            mem_value=mem_value,
            mem_word=mem_word,
            mem_steered=mem_steered,
            lo=lo_val,
            hi=hi_val,
            wb_value=wb_value,
            wb_dest=wb_dest,
            uses_alu_result=uses_alu_result,
            uses_shifter=uses_shifter,
            is_muldiv_write=is_muldiv_write,
            is_branch=is_branch,
            needs_muldiv=needs_muldiv,
            has_mem_access=bundle.mem_read or bundle.mem_write,
            branch_target=branch_target,
            branch_taken=branch_taken,
        )
        return facts, state

    def _load(
        self,
        instr: Instr,
        bundle: ControlBundle,
        addr: AbstractWord,
        state: AbsState,
    ) -> tuple[AbstractWord, AbstractWord]:
        """Abstract ``_do_load``: (extracted value, full aligned word)."""
        addr_c = addr.as_const()
        if addr_c is None:
            return TOP, TOP
        if bundle.mem_size is MemSize.WORD and addr_c % 4:
            self._degrade(instr, f"unaligned word load at {addr_c:#010x}")
        if bundle.mem_size is MemSize.HALF and addr_c % 2:
            self._degrade(instr, f"unaligned halfword load at {addr_c:#010x}")
        word = state.mem.load_word(addr_c & ~3)
        if bundle.mem_size is MemSize.BYTE:
            value = word.extract_byte(addr_c & 3, bundle.mem_signed)
        elif bundle.mem_size is MemSize.HALF:
            value = word.extract_half(addr_c & 2, bundle.mem_signed)
        else:
            value = word
        return value, word

    def _store(
        self,
        instr: Instr,
        bundle: ControlBundle,
        addr: AbstractWord,
        data: AbstractWord,
        state: AbsState,
    ) -> AbstractWord:
        """Abstract ``_do_store``; returns the steered bus word."""
        # Steered word, mirroring mctrl_store_reference.
        if bundle.mem_size is MemSize.BYTE:
            byte = data.band(const(0xFF))
            steered = (
                byte.bor(byte.shl(8)).bor(byte.shl(16)).bor(byte.shl(24))
            )
        elif bundle.mem_size is MemSize.HALF:
            half = data.band(const(0xFFFF))
            steered = half.bor(half.shl(16))
        else:
            steered = data

        addr_c = addr.as_const()
        if addr_c is None:
            if self.written_words is not None:
                # Concrete run validated: no store touched code, and every
                # stored word is in the observed set.
                state.mem = state.mem.havoc_words(self.written_words)
                return steered
            if self._hits_code(addr.lo, addr.hi):
                self._degrade(
                    instr,
                    "store address cannot be proven outside every code "
                    "segment (possible self-modifying code)",
                )
            state.mem = state.mem.havocked()
            return steered

        if bundle.mem_size is MemSize.HALF and addr_c % 2:
            self._degrade(instr, f"unaligned halfword store at {addr_c:#010x}")
        if bundle.mem_size is MemSize.WORD and addr_c % 4:
            self._degrade(instr, f"unaligned word store at {addr_c:#010x}")
        if self.written_words is None and self._hits_code(addr_c, addr_c + 3):
            self._degrade(
                instr, f"store into a code segment at {addr_c:#010x}"
            )

        base = addr_c & ~3
        if bundle.mem_size is MemSize.WORD:
            state.mem.store_word(base, data)
        else:
            old = state.mem.load_word(base)
            if bundle.mem_size is MemSize.BYTE:
                shift = 8 * (addr_c & 3)
                keep = const(~(0xFF << shift))
                new = old.band(keep).bor(
                    data.band(const(0xFF)).shl(shift)
                )
            else:
                shift = 8 * (addr_c & 2)
                keep = const(~(0xFFFF << shift))
                new = old.band(keep).bor(
                    data.band(const(0xFFFF)).shl(shift)
                )
            state.mem.store_word(base, new)
        return steered

    # ----------------------------------------------------------- the run

    def _block_edges(
        self, block: BasicBlock, out_state: AbsState
    ) -> list[tuple[int, AbsState]]:
        """Successor edges with call/split-pair havoc policies applied."""
        ct = block.control_transfer()
        edges: list[tuple[int, AbsState]] = []
        fall_idx = self.cfg.block_at.get(block.end)
        havoc = out_state.havoc_all(self.written_words)

        if ct is not None and ct is block.instrs[-1]:
            # Split pair: the delay slot is the first instruction of the
            # fall-through block.  The target edge must over-approximate
            # "slot executed first": havoc the slot's effects.
            target = ct.branch_target()
            if fall_idx is not None:
                slot = self.cfg.blocks[fall_idx].instrs[0]
                if slot.decoded is None or slot.is_control:
                    self._degrade(
                        slot, "control transfer or undecodable word in a "
                        "branch delay slot"
                    )
                edges.append((fall_idx, out_state))
                if target is not None:
                    tgt_idx = self.cfg.block_at.get(target)
                    if tgt_idx is not None:
                        slot_state = self._havoc_instr_effects(
                            slot, out_state
                        )
                        edges.append((tgt_idx, slot_state))
            d = ct.decoded
            if d is not None and d.mnemonic in ("jr", "jalr"):
                self.indirect = True
            return edges

        mnem = ""
        if ct is not None and ct.decoded is not None:
            mnem = ct.decoded.mnemonic
        for succ in block.successors:
            succ_start = self.cfg.blocks[succ].start
            is_fall = succ_start == block.end
            if mnem in ("jal", "jalr") and is_fall:
                edges.append((succ, havoc))  # callee ran in between
            else:
                edges.append((succ, out_state))
        if mnem in ("jr", "jalr"):
            self.indirect = True
        return edges

    def _havoc_instr_effects(
        self, instr: Instr, state: AbsState
    ) -> AbsState:
        """Out-state with one instruction's possible effects havocked."""
        from repro.analysis.cfg import instruction_effects

        result = state.copy()
        assert instr.decoded is not None
        _reads, writes = instruction_effects(instr.decoded)
        for reg in writes:
            result.regs[reg] = TOP
        if instr.decoded.spec.kind.name == "STORE":
            if self.written_words is not None:
                result.mem = result.mem.havoc_words(self.written_words)
            else:
                result.mem = result.mem.havocked()
        return result

    def run(self) -> ProgramAbstraction:
        digest = program_digest(self.program)
        entry_word = self.image.get(self.program.entry, 0)
        result = ProgramAbstraction(
            digest=digest, entry=self.program.entry, entry_word=entry_word
        )
        if self.cfg.entry is None:
            return result
        try:
            facts, indirect, n_reach = self._fixpoint()
        except AnalysisDegraded as exc:
            result.degraded = True
            result.degrade_reason = str(exc)
            return result
        result.facts = facts
        result.indirect_control = indirect
        result.n_blocks_reachable = n_reach
        return result

    def _initial_state(self) -> AbsState:
        regs = [_ZERO] * 34
        return AbsState(regs, AbsMemory(self.image))

    def _fixpoint(self) -> tuple[dict[int, InstrFacts], bool, int]:
        assert self.cfg.entry is not None
        # Pre-scan: any CFG-reachable jr/jalr forces the indirect
        # fallback (all blocks reachable, havoc joined everywhere).
        reachable = self.cfg.reachable()
        for bi in reachable:
            for instr in self.cfg.blocks[bi].instrs:
                d = instr.decoded
                if d is not None and d.mnemonic in ("jr", "jalr"):
                    self.indirect = True

        initial = self._initial_state()
        in_states: dict[int, AbsState] = {}
        if self.indirect:
            havoc = initial.havoc_all(self.written_words)
            for block in self.cfg.blocks:
                in_states[block.index] = havoc.copy()
            in_states[self.cfg.entry] = (
                in_states[self.cfg.entry].join(initial)
            )
            worklist = [b.index for b in self.cfg.blocks]
        else:
            in_states[self.cfg.entry] = initial
            worklist = [self.cfg.entry]

        joins: dict[int, int] = {}
        pending = set(worklist)
        while worklist:
            bi = worklist.pop()
            pending.discard(bi)
            block = self.cfg.blocks[bi]
            state = in_states[bi].copy()
            for instr in block.instrs:
                _facts, state = self.transfer(instr, state)
            for succ, edge_state in self._block_edges(block, state):
                seen = in_states.get(succ)
                if seen is None:
                    in_states[succ] = edge_state.copy()
                else:
                    joins[succ] = joins.get(succ, 0) + 1
                    if joins[succ] > _WIDEN_AFTER:
                        merged = seen.widen(edge_state)
                    else:
                        merged = seen.join(edge_state)
                    if merged == seen:
                        continue
                    in_states[succ] = merged
                if succ not in pending:
                    pending.add(succ)
                    worklist.append(succ)

        # Final pass: converged in-states -> per-instruction facts.
        facts: dict[int, InstrFacts] = {}
        for bi, in_state in in_states.items():
            state = in_state.copy()
            block = self.cfg.blocks[bi]
            for instr in block.instrs:
                fact, state = self.transfer(instr, state)
                facts[instr.address] = fact
            # Re-run the edge policy so split-pair/delay-slot degrade
            # checks fire deterministically in this pass too.
            self._block_edges(block, state)
        return facts, self.indirect, len(in_states)


class _CodeStore(Exception):
    """Raised by :class:`_RecordingMemory` on a store into program code."""


def _code_words(program: Program) -> frozenset[int]:
    """Word addresses of every code-segment word of ``program``."""
    return frozenset(
        seg.base + 4 * i
        for seg in program.segments
        if seg.is_code
        for i in range(len(seg.words))
    )


class _RecordingMemory:
    """Memory wrapper that records the word address of every store.

    A store into one of ``code_words`` is recorded and then stops the
    run (:class:`_CodeStore`): the static instruction image is already
    invalid, so executing further only burns the instruction budget.
    """

    def __init__(self, inner: object, code_words: frozenset[int]) -> None:
        self._inner = inner
        self._code_words = code_words
        self.stored_words: set[int] = set()

    def __getattr__(self, name: str) -> object:
        return getattr(self._inner, name)

    def _record(self, addr: int) -> None:
        word = addr & ~3
        self.stored_words.add(word)
        if word in self._code_words:
            raise _CodeStore

    def write_word(self, addr: int, value: int) -> None:
        self._record(addr)
        self._inner.write_word(addr, value)  # type: ignore[attr-defined]

    def write_half(self, addr: int, value: int) -> None:
        self._record(addr)
        self._inner.write_half(addr, value)  # type: ignore[attr-defined]

    def write_byte(self, addr: int, value: int) -> None:
        self._record(addr)
        self._inner.write_byte(addr, value)  # type: ignore[attr-defined]


def observe_stores(
    program: Program, max_instructions: int = 2_000_000
) -> frozenset[int] | None:
    """Run the program behaviourally once; return its stored word set.

    The reach analysis's soundness target is the traced good-machine run,
    which is deterministic — one cheap instruction-level execution
    yields the *exact* set of word addresses the program ever stores to.
    The run stops at the first store into a code-segment word; the set
    returned then includes that word.  Returns None when the run fails
    (no halt within the budget, or a simulation error), in which case
    the interpreter falls back to its conservative static store policy.
    """
    from repro.errors import SimulationError
    from repro.plasma.cpu import PlasmaCPU
    from repro.plasma.memory import Memory

    memory = Memory()
    recorder = _RecordingMemory(memory, _code_words(program))
    cpu = PlasmaCPU(memory=recorder)  # type: ignore[arg-type]
    cpu.load_program(program)
    try:
        cpu.run(max_instructions=max_instructions)
    except _CodeStore:
        pass
    except SimulationError:
        return None
    return frozenset(recorder.stored_words)


def interpret_program(
    program: Program, max_instructions: int = 2_000_000
) -> ProgramAbstraction:
    """Abstractly interpret one assembled program (the public entry).

    Runs the program behaviourally first (:func:`observe_stores`); a
    store into a code segment during that run invalidates the static
    instruction image and degrades the whole abstraction.
    """
    written = observe_stores(program, max_instructions)
    if written is not None:
        hits = written & _code_words(program)
        if hits:
            return ProgramAbstraction(
                digest=program_digest(program),
                entry=program.entry,
                entry_word=program.to_image().get(program.entry, 0),
                degraded=True,
                degrade_reason=(
                    "program stores into its own code segment at "
                    f"{min(hits):#010x} (self-modifying code)"
                ),
            )
    return _Interpreter(program, written).run()
