"""Functional-level processors.

Two flavors, matching the paper's Figure 13 methodology:

- :class:`IsaSim` — a bare object-oriented instruction-set simulator
  with no ports and no notion of cycles.  This is the "simple ISA
  simulator" baseline every Figure 13 configuration is normalized
  against (LOD = 1).
- :class:`ProcFL` — a port-based FL processor that fetches and
  loads/stores through latency-insensitive memory interfaces and
  drives an accelerator port, so it composes with FL/CL/RTL caches
  and accelerators.
"""

from __future__ import annotations

from ..accel.msgs import XcelMsg, XcelReqMsg
from ..core import (
    Model,
    OutPort,
    ParentReqRespBundle,
    ParentReqRespQueueAdapter,
)
from ..mem.msgs import MemMsg, MemReqMsg
from ..mem.test_memory import Pages, check_size
from .isa import XCEL_GO, alu, branch_taken, decode


class IsaSim:
    """Bare MinRISC instruction-set simulator (the Figure 13 baseline).

    ``xcel_handler(ctrl, data)`` models the accelerator functionally;
    the default built-in handler implements the dot-product protocol
    directly against simulator memory.
    """

    def __init__(self, mem_size=1 << 20, xcel_handler=None):
        check_size(mem_size, "IsaSim")
        self.mem_size = mem_size
        self.pages = Pages()
        self.regs = [0] * 32
        self.pc = 0
        self.halted = False
        self.num_instrs = 0
        self.xcel_handler = xcel_handler or self._default_xcel
        self._xcel_state = {"size": 0, "src0": 0, "src1": 0}

    # -- memory ------------------------------------------------------------

    def load_program(self, words, base=0):
        for i, word in enumerate(words):
            self.write_mem(base + 4 * i, word)
        self.pc = base

    def read_mem(self, addr):
        return self.pages.read(addr & (self.mem_size - 1) & ~0x3)

    def write_mem(self, addr, value):
        self.pages.write(addr & (self.mem_size - 1) & ~0x3,
                         value & 0xFFFFFFFF)

    # -- accelerator (functional) ---------------------------------------------

    def _default_xcel(self, ctrl, data):
        state = self._xcel_state
        if ctrl == 1:
            state["size"] = data
        elif ctrl == 2:
            state["src0"] = data
        elif ctrl == 3:
            state["src1"] = data
        elif ctrl == XCEL_GO:
            total = 0
            for i in range(state["size"]):
                a = self.read_mem(state["src0"] + 4 * i)
                b = self.read_mem(state["src1"] + 4 * i)
                total += a * b
            return total & 0xFFFFFFFF
        return None

    # -- execution --------------------------------------------------------------

    def step(self):
        """Execute one instruction."""
        if self.halted:
            return
        instr = decode(self.read_mem(self.pc))
        self.num_instrs += 1
        regs = self.regs
        op = instr.op
        next_pc = self.pc + 4

        if op == "halt":
            self.halted = True
        elif op in ("j",):
            next_pc = instr.imm * 4
        elif op == "jal":
            regs[31] = self.pc + 4
            next_pc = instr.imm * 4
        elif op == "jr":
            next_pc = regs[instr.rs1]
        elif op in ("beq", "bne", "blt", "bge"):
            if branch_taken(op, regs[instr.rs1], regs[instr.rd]):
                next_pc = self.pc + 4 + instr.imm * 4
        elif op == "lw":
            addr = alu("add", regs[instr.rs1], instr.imm)
            self._write_reg(instr.rd, self.read_mem(addr))
        elif op == "sw":
            addr = alu("add", regs[instr.rs1], instr.imm)
            self.write_mem(addr, regs[instr.rd])
        elif op == "xcel":
            result = self.xcel_handler(instr.imm, regs[instr.rs1])
            if instr.imm == XCEL_GO:
                self._write_reg(instr.rd, result or 0)
        elif op in ("addi", "andi", "ori", "xori", "slti",
                    "slli", "srli", "lui"):
            self._write_reg(instr.rd, alu(op, regs[instr.rs1], instr.imm))
        else:
            self._write_reg(
                instr.rd, alu(op, regs[instr.rs1], regs[instr.rs2])
            )

        self.pc = next_pc & 0xFFFFFFFF

    def _write_reg(self, idx, value):
        if idx != 0:
            self.regs[idx] = value & 0xFFFFFFFF

    def run(self, max_instrs=1_000_000):
        while not self.halted and self.num_instrs < max_instrs:
            self.step()
        if not self.halted:
            raise RuntimeError(f"IsaSim: no halt after {max_instrs} instrs")
        return self.num_instrs


class ProcFL(Model):
    """Port-based FL processor.

    Functionally executes MinRISC but performs every instruction fetch,
    load/store, and coprocessor transaction over val/rdy interfaces, so
    it can be composed with caches, memories, and accelerators at any
    abstraction level.  Timing is not modeled beyond the natural
    latency of the interfaces.
    """

    def __init__(s, mem_ifc_types=None, xcel_ifc_types=None):
        mem_ifc_types = mem_ifc_types or MemMsg()
        xcel_ifc_types = xcel_ifc_types or XcelMsg()
        s.imem_ifc = ParentReqRespBundle(mem_ifc_types)
        s.dmem_ifc = ParentReqRespBundle(mem_ifc_types)
        s.xcel_ifc = ParentReqRespBundle(xcel_ifc_types)
        s.done = OutPort(1)

        s.imem = ParentReqRespQueueAdapter(s.imem_ifc)
        s.dmem = ParentReqRespQueueAdapter(s.dmem_ifc)
        s.xcel = ParentReqRespQueueAdapter(s.xcel_ifc)

        s.regs = [0] * 32
        s.pc = 0
        s.halted = False
        s.num_instrs = 0
        s.state = "fetch"
        s.instr = None
        s.counter("insts_retired", "instructions committed",
                  state=("num_instrs",))

        @s.tick_fl
        def logic():
            s.imem.xtick()
            s.dmem.xtick()
            s.xcel.xtick()
            if s.reset:
                # Back to the power-on state, with the adapters' queues
                # (a response to a request made before reset must not
                # answer one made after it), as ProcCL does.
                s.imem.reset()
                s.dmem.reset()
                s.xcel.reset()
                s.state = "fetch"
                s.halted = False
                s.pc = 0
                s.regs[:] = [0] * 32
                s.num_instrs = 0
                s.instr = None
                s.done.next = 0
                return
            if s.halted:
                s.done.next = 1
                return
            getattr(s, "_state_" + s.state)()

    # -- state machine ---------------------------------------------------------

    def _state_fetch(s):
        if not s.imem.req_q.full():
            s.imem.push_req(MemReqMsg.mk_rd(s.pc))
            s.state = "fetch_wait"

    def _state_fetch_wait(s):
        if s.imem.resp_q.empty():
            return
        word = int(s.imem.get_resp().data)
        s.instr = decode(word)
        s.num_instrs += 1
        s._execute()

    def _execute(s):
        instr = s.instr
        op = instr.op
        regs = s.regs
        next_pc = s.pc + 4

        if op == "halt":
            s.halted = True
            s.state = "fetch"
            return
        if op == "j":
            next_pc = instr.imm * 4
        elif op == "jal":
            s._write_reg(31, s.pc + 4)
            next_pc = instr.imm * 4
        elif op == "jr":
            next_pc = regs[instr.rs1]
        elif op in ("beq", "bne", "blt", "bge"):
            if branch_taken(op, regs[instr.rs1], regs[instr.rd]):
                next_pc = s.pc + 4 + instr.imm * 4
        elif op == "lw":
            addr = alu("add", regs[instr.rs1], instr.imm)
            s.dmem.push_req(MemReqMsg.mk_rd(addr))
            s.pc = next_pc & 0xFFFFFFFF
            s.state = "load_wait"
            return
        elif op == "sw":
            addr = alu("add", regs[instr.rs1], instr.imm)
            s.dmem.push_req(MemReqMsg.mk_wr(addr, regs[instr.rd]))
            s.pc = next_pc & 0xFFFFFFFF
            s.state = "store_wait"
            return
        elif op == "xcel":
            s.xcel.push_req(XcelReqMsg.mk(instr.imm, regs[instr.rs1]))
            s.pc = next_pc & 0xFFFFFFFF
            if instr.imm == XCEL_GO:
                s.state = "xcel_wait"
            else:
                s.state = "fetch"
                s._state_fetch()
            return
        elif op in ("addi", "andi", "ori", "xori", "slti",
                    "slli", "srli", "lui"):
            s._write_reg(instr.rd, alu(op, regs[instr.rs1], instr.imm))
        else:
            s._write_reg(
                instr.rd, alu(op, regs[instr.rs1], regs[instr.rs2])
            )

        s.pc = next_pc & 0xFFFFFFFF
        s.state = "fetch"
        s._state_fetch()

    def _state_load_wait(s):
        if not s.dmem.resp_q.empty():
            s._write_reg(s.instr.rd, int(s.dmem.get_resp().data))
            s.state = "fetch"
            s._state_fetch()

    def _state_store_wait(s):
        if not s.dmem.resp_q.empty():
            s.dmem.get_resp()
            s.state = "fetch"
            s._state_fetch()

    def _state_xcel_wait(s):
        if not s.xcel.resp_q.empty():
            s._write_reg(s.instr.rd, int(s.xcel.get_resp().data))
            s.state = "fetch"
            s._state_fetch()

    def _write_reg(s, idx, value):
        if idx != 0:
            s.regs[idx] = value & 0xFFFFFFFF

    def line_trace(s):
        return f"pc={s.pc:08x} {s.state:10}"
