"""Behavioural Plasma/MIPS CPU with cycle accounting and component tracing.

The model executes one instruction per step, charging the Plasma 3-stage
pipeline's cycle costs:

* 2 cycles of pipeline fill at reset;
* 1 cycle per issued instruction;
* +1 pause cycle for every data-memory access (unified bus, as in Plasma's
  ``mem_ctrl`` handshake);
* multiply/divide results become readable 33 cycles after issue; HI/LO
  accesses (and new mul/div issues) interlock until then;
* one architectural branch delay slot (MIPS I semantics).

When constructed with a :class:`~repro.plasma.tracer.ComponentTracer`, the
model records every component's boundary stimulus and tracks value taint for
observability (see the tracer's module docstring).  Tracing costs time, so
pass ``tracer=None`` for plain functional runs.

Halt convention: an absolute or relative jump to its own address (the usual
``halt: j halt`` / ``b halt`` idiom) stops execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError, WatchdogTimeout
from repro.isa.encoding import decode
from repro.isa.program import Program
from repro.library.alu import alu_reference
from repro.library.multiplier import MulDivOp, muldiv_reference
from repro.library.shifter import shifter_reference
from repro.plasma.busmux import busmux_reference
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
from repro.plasma.mctrl import mctrl_load_reference, mctrl_store_reference
from repro.plasma.memory import Memory
from repro.plasma.pclogic import branch_taken_reference
from repro.plasma.tracer import ComponentTracer, TaintNode
from repro.utils.bits import MASK32

#: Cycles from a mul/div issue until HI/LO are readable (issue + 32 steps).
MULDIV_LATENCY = 33

#: Pipeline fill cycles charged at reset.
PIPELINE_FILL = 2


@dataclass(frozen=True)
class CPUResult:
    """Summary of a completed run (read-only: every grade of one traced
    program shares it)."""

    cycles: int
    instructions: int
    halted: bool
    pc: int


@dataclass
class _PendingBranch:
    """Branch decision presented to the PC logic during the delay slot."""

    branch_type: int
    rs_data: int
    rt_data: int
    target: int


class PlasmaCPU:
    """Instruction-level Plasma model with optional component tracing."""

    def __init__(
        self,
        memory: Memory | None = None,
        tracer: ComponentTracer | None = None,
    ):
        self.memory = memory if memory is not None else Memory()
        self.tracer = tracer
        self.regs = [0] * 32
        self.hi = 0
        self.lo = 0
        self.pc = 0
        self.next_pc = 4
        self.cycles = PIPELINE_FILL
        self.instructions = 0
        self.halted = False
        self.muldiv_ready = 0  # cycle from which HI/LO may be read
        self._pending_branch: _PendingBranch | None = None
        # Taint shadows (only maintained when tracing).
        self._reg_taint: list[TaintNode | None] = [None] * 32
        self._hi_taint: TaintNode | None = None
        self._lo_taint: TaintNode | None = None
        self._reset_emitted = False

    # ----------------------------------------------------------- loading

    def load_program(self, program: Program) -> None:
        """Load an assembled program and point the PC at its entry."""
        self.memory.load_program(program)
        self.pc = program.entry
        self.next_pc = program.entry + 4

    # ------------------------------------------------------ trace helpers

    def _emit_reset_cycles(self) -> None:
        """Pipeline-fill cycles; the first exercises the PLN flush path."""
        t = self.tracer
        assert t is not None
        first_word = self.memory.read_word(self.pc)
        for i in range(PIPELINE_FILL):
            t.trace_pcl_cycle(0, 0, 0, 0, pause=1)
            t.trace_pln_cycle(first_word, self.pc, 0, 0, 0, pause=0,
                              flush=1 if i == 0 else 0)
            t.trace_gl_cycle(pause_mem=0, pause_muldiv=0, branch_taken=0)
            t.trace_muld_cycle(0, 0, 0)

    def _emit_stall_cycle(self, mem: bool, muldiv: bool) -> None:
        """One pause cycle (memory or mul/div interlock)."""
        t = self.tracer
        if t is None:
            return
        t.trace_pcl_cycle(0, 0, 0, 0, pause=1)
        t.trace_pln_cycle(0, self.pc, 0, 0, 0, pause=1, flush=0)
        t.trace_gl_cycle(
            pause_mem=int(mem), pause_muldiv=int(muldiv), branch_taken=0
        )
        t.trace_muld_cycle(0, 0, 0)

    # ------------------------------------------------------------ memory

    def _do_load(self, bundle: ControlBundle, addr: int) -> tuple[int, int]:
        """Perform a load; returns (value, full aligned word for the trace)."""
        if bundle.mem_size is MemSize.WORD and addr % 4:
            raise SimulationError(f"unaligned word load at {addr:#010x}")
        if bundle.mem_size is MemSize.HALF and addr % 2:
            raise SimulationError(f"unaligned halfword load at {addr:#010x}")
        word = self.memory.read_word(addr & ~3)
        value = mctrl_load_reference(
            int(bundle.mem_size), bundle.mem_signed, addr, word
        )
        return value, word

    def _do_store(self, bundle: ControlBundle, addr: int, data: int) -> int:
        """Perform a store; returns the steered bus word for the trace."""
        steered, _be = mctrl_store_reference(int(bundle.mem_size), addr, data)
        if bundle.mem_size is MemSize.BYTE:
            self.memory.write_byte(addr, data & 0xFF)
        elif bundle.mem_size is MemSize.HALF:
            if addr % 2:
                raise SimulationError(f"unaligned halfword store at {addr:#010x}")
            self.memory.write_half(addr, data & 0xFFFF)
        else:
            if addr % 4:
                raise SimulationError(f"unaligned word store at {addr:#010x}")
            self.memory.write_word(addr, data)
        return steered

    # -------------------------------------------------------------- step

    def step(self) -> bool:
        """Execute one instruction.  Returns False once halted."""
        if self.halted:
            return False
        if self.tracer is not None and not self._reset_emitted:
            self._emit_reset_cycles()
            self._reset_emitted = True

        instr_pc = self.pc
        word = self.memory.read_word(instr_pc)
        decoded = decode(word)
        bundle = decode_controls(decoded)
        t = self.tracer

        # ---------------------------------------- mul/div interlock stall
        needs_muldiv = (
            bundle.muldiv_op is not MulDivOp.IDLE
            or bundle.wb_source in (WbSource.LO, WbSource.HI)
        )
        pause_muldiv = 0
        if needs_muldiv and self.cycles < self.muldiv_ready:
            pause_muldiv = self.muldiv_ready - self.cycles
            for _ in range(pause_muldiv):
                self._emit_stall_cycle(mem=False, muldiv=True)
            self.cycles += pause_muldiv

        # ------------------------------------------------------ operands
        rs_val = self.regs[decoded.rs]
        rt_val = self.regs[decoded.rt]
        rs_taint = self._reg_taint[decoded.rs]
        rt_taint = self._reg_taint[decoded.rt]
        pc_plus4 = (instr_pc + 4) & MASK32

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

        uses_rs = (
            (uses_alu_result and bundle.a_source is ASource.RS)
            or bundle.shift_variable
            or is_muldiv_write
            or bundle.jump_reg
            or (is_branch and not bundle.jump_reg and not bundle.jump_abs)
        )
        uses_rt = (
            (uses_alu_result and bundle.b_source is BSource.RT)
            or uses_shifter
            or bundle.muldiv_op in (MulDivOp.MULT, MulDivOp.MULTU,
                                    MulDivOp.DIV, MulDivOp.DIVU)
            or bundle.mem_write
            or bundle.branch_type in (BranchType.EQ, BranchType.NE)
        )

        # ------------------------------------------------------- datapath
        a_bus, b_bus, _ = busmux_reference(
            int(bundle.a_source), int(bundle.b_source), 0,
            rs_val, rt_val, decoded.imm, pc_plus4,
        )
        alu_result = alu_reference(bundle.alu_func, a_bus, b_bus)

        shift_result = 0
        if uses_shifter:
            shamt = rs_val & 31 if bundle.shift_variable else decoded.shamt
            shift_result = shifter_reference(
                rt_val, shamt, bundle.shift_left, bundle.shift_arith
            )

        # ------------------------------------------------- apps & tracing
        apps: list[tuple] = []
        parents: list[TaintNode | None] = []
        if t is not None:
            apps.append(t.trace_ctrl(word, bundle))
            if uses_alu_result:
                apps.append(t.trace_alu(a_bus, b_bus, int(bundle.alu_func)))
            if uses_shifter:
                shamt = rs_val & 31 if bundle.shift_variable else decoded.shamt
                apps.append(
                    t.trace_bsh(rt_val, shamt,
                                int(bundle.shift_left), int(bundle.shift_arith))
                )
            if uses_rs:
                parents.append(rs_taint)
            if uses_rt:
                parents.append(rt_taint)

        # ------------------------------------------------ memory access
        mem_value = 0
        mem_word_for_trace = 0
        mem_steered = 0
        pause_mem = 0
        if bundle.mem_read:
            mem_value, mem_word_for_trace = self._do_load(bundle, alu_result)
            pause_mem = 1
        elif bundle.mem_write:
            mem_steered = self._do_store(bundle, alu_result, rt_val)
            pause_mem = 1

        # ------------------------------------------------ mul/div issue
        exec_cycle = self.cycles  # index of this instruction's issue cycle
        if bundle.muldiv_op is MulDivOp.MTHI:
            self.hi = rs_val
            self._hi_taint = None
        elif bundle.muldiv_op is MulDivOp.MTLO:
            self.lo = rs_val
            self._lo_taint = None
        elif is_muldiv_write:
            self.hi, self.lo = muldiv_reference(bundle.muldiv_op, rs_val, rt_val)
            self.muldiv_ready = exec_cycle + MULDIV_LATENCY
            self._hi_taint = None
            self._lo_taint = None

        # --------------------------------------------------- write-back
        wb_value = 0
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
                wb_value = self.lo
            else:
                wb_value = self.hi
            if wb_dest != 0:
                self.regs[wb_dest] = wb_value

        # ------------------------------------------------------ branches
        taken = False
        target = 0
        if is_branch:
            if bundle.jump_abs:
                target = (pc_plus4 & 0xF000_0000) | (decoded.target << 2)
                taken = True
            elif bundle.jump_reg:
                target = rs_val
                taken = True
            else:
                target = alu_result  # PC+4 + (imm << 2), from the ALU
                taken = branch_taken_reference(
                    int(bundle.branch_type), rs_val, rt_val
                )
            if taken and target == instr_pc:
                self.halted = True

        # ----------------------------------------------------- observe
        if t is not None:
            bmux_inputs = {
                "rs_data": rs_val, "rt_data": rt_val, "imm": decoded.imm,
                "pc_plus4": pc_plus4, "alu_result": alu_result,
                "shift_result": shift_result, "mem_data": mem_value,
                "lo": self.lo, "hi": self.hi,
                "a_source": int(bundle.a_source),
                "b_source": int(bundle.b_source),
                "wb_source": int(bundle.wb_source),
            }
            apps.append(t.trace_bmux(bmux_inputs, bundle))

            app_a, app_b = t.trace_regf(
                decoded.rs, decoded.rt, wb_dest if bundle.reg_write else 0,
                wb_value, int(bundle.reg_write),
            )
            if uses_rs:
                apps.append(app_a)
            if uses_rt:
                apps.append(app_b)

            if bundle.mem_read or bundle.mem_write:
                mctrl_app = t.trace_mctrl_access(
                    addr=alu_result,
                    size=int(bundle.mem_size),
                    signed=int(bundle.mem_signed),
                    re=int(bundle.mem_read),
                    we=int(bundle.mem_write),
                    wr_data=mem_steered if bundle.mem_write else 0,
                    mem_rdata=mem_word_for_trace,
                )
                if bundle.mem_read:
                    apps.append(mctrl_app)

            if bundle.wb_source is WbSource.LO:
                apps.append(t.muld_read_app(exec_cycle, "lo"))
                parents.append(self._lo_taint)
            elif bundle.wb_source is WbSource.HI:
                apps.append(t.muld_read_app(exec_cycle, "hi"))
                parents.append(self._hi_taint)

            node = t.tracker.node(apps, parents)

            if is_muldiv_write:
                if bundle.muldiv_op is MulDivOp.MTHI:
                    self._hi_taint = node
                elif bundle.muldiv_op is MulDivOp.MTLO:
                    self._lo_taint = node
                else:
                    self._hi_taint = node
                    self._lo_taint = node

            if bundle.reg_write and wb_dest != 0:
                self._reg_taint[wb_dest] = node

            if bundle.mem_write or is_branch:
                # Stores reach the tester-readable response area; branch
                # and jump decisions reach the (observable) control flow.
                t.tracker.observe(node)

            # -------- per-cycle traces for the issue + memory-pause cycles
            stash = self._pending_branch
            if stash is not None:
                t.trace_pcl_cycle(
                    stash.rs_data, stash.rt_data, stash.branch_type,
                    stash.target, pause=0,
                )
                gl_branch_taken = int(
                    branch_taken_reference(
                        stash.branch_type, stash.rs_data, stash.rt_data
                    )
                )
            else:
                t.trace_pcl_cycle(0, 0, 0, 0, pause=0)
                gl_branch_taken = 0
            ctrl8 = (
                int(bundle.alu_func)
                | (int(bundle.reg_write) << 4)
                | (int(bundle.mem_read) << 5)
                | (int(bundle.mem_write) << 6)
                | (int(bundle.use_shifter) << 7)
            )
            t.trace_pln_cycle(
                word, instr_pc, wb_value, wb_dest, ctrl8, pause=0, flush=0
            )
            t.trace_gl_cycle(
                pause_mem=0, pause_muldiv=0, branch_taken=gl_branch_taken
            )
            if is_muldiv_write:
                t.trace_muld_cycle(rs_val, rt_val, int(bundle.muldiv_op))
            else:
                t.trace_muld_cycle(0, 0, 0)

        # Stash this instruction's branch decision for the delay slot.
        if is_branch:
            self._pending_branch = _PendingBranch(
                int(bundle.branch_type), rs_val, rt_val, target
            )
        else:
            self._pending_branch = None

        # Memory pause cycle.
        self.cycles += 1
        if pause_mem:
            self._emit_stall_cycle(mem=True, muldiv=False)
            self.cycles += 1

        # ------------------------------------------------- PC update
        self.instructions += 1
        self.pc = self.next_pc
        self.next_pc = (self.next_pc + 4) & MASK32
        if taken:
            self.next_pc = target
        return not self.halted

    # --------------------------------------------------------------- run

    def run(
        self, max_instructions: int = 2_000_000, max_cycles: int | None = None
    ) -> CPUResult:
        """Run until halt or a limit is hit.

        Raises:
            WatchdogTimeout: if a limit is exceeded (runaway program).
                It subclasses :class:`SimulationError`, so existing
                handlers keep working.
        """
        while not self.halted:
            if self.instructions >= max_instructions:
                raise WatchdogTimeout(
                    f"exceeded {max_instructions} instructions without halting"
                )
            if max_cycles is not None and self.cycles >= max_cycles:
                raise WatchdogTimeout(
                    f"exceeded {max_cycles} cycles without halting"
                )
            self.step()
        return CPUResult(
            cycles=self.cycles,
            instructions=self.instructions,
            halted=self.halted,
            pc=self.pc,
        )
