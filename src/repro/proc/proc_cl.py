"""Cycle-level processor: pipelined instruction fetch, blocking loads.

Approximates the timing of a simple in-order pipeline without modeling
pipeline registers: up to two instruction fetches are kept in flight,
so straight-line code approaches one instruction per memory-hit round
trip; mispredicted control flow squashes the speculative fetches.
Loads, stores, and "go" coprocessor requests block until their
response returns.

The fetch predictor is a CL design-space knob (the kind of first-order
exploration the paper's Section III-C motivates):

- ``"static"`` — always predict fall-through (mispredict on every
  taken branch/jump);
- ``"btb"`` — an infinite branch-target buffer records the last target
  of each control-transfer PC, so loops mispredict only on exit.
"""

from __future__ import annotations

from collections import deque

from ..accel.msgs import XcelMsg, XcelReqMsg
from ..core import (
    Model,
    OutPort,
    ParentReqRespBundle,
    ParentReqRespQueueAdapter,
)
from ..mem.msgs import MemMsg, MemReqMsg
from .isa import XCEL_GO, alu, branch_taken, decode

_MAX_INFLIGHT_FETCHES = 2


class ProcCL(Model):
    """Cycle-level MinRISC processor."""

    def __init__(s, mem_ifc_types=None, xcel_ifc_types=None,
                 predictor="static"):
        if predictor not in ("static", "btb"):
            raise ValueError(f"unknown predictor {predictor!r}")
        mem_ifc_types = mem_ifc_types or MemMsg()
        xcel_ifc_types = xcel_ifc_types or XcelMsg()
        s.predictor = predictor
        s.btb = {}
        s.imem_ifc = ParentReqRespBundle(mem_ifc_types)
        s.dmem_ifc = ParentReqRespBundle(mem_ifc_types)
        s.xcel_ifc = ParentReqRespBundle(xcel_ifc_types)
        s.done = OutPort(1)

        s.imem = ParentReqRespQueueAdapter(s.imem_ifc, req_qsize=2,
                                           resp_qsize=2)
        s.dmem = ParentReqRespQueueAdapter(s.dmem_ifc)
        s.xcel = ParentReqRespQueueAdapter(s.xcel_ifc)

        s.regs = [0] * 32
        s.pc = 0
        s.pred_pc = 0
        s.halted = False
        s.num_instrs = 0
        s.num_squashes = 0
        s.counter("insts_retired", "instructions committed",
                  state=("num_instrs",))
        s.counter("squashes", "fetches squashed by taken branches",
                  state=("num_squashes",))
        s.state = "run"         # run | load_wait | store_wait | xcel_wait
        s.instr = None
        # In-flight fetch bookkeeping: (fetch_addr, squashed) FIFO.
        s.inflight = deque()

        @s.tick_cl
        def logic():
            s.imem.xtick()
            s.dmem.xtick()
            s.xcel.xtick()
            if s.reset:
                # Back to the power-on state.  Fetches, loads and
                # coprocessor requests issued before reset are
                # forgotten together with their adapters' queues: a
                # response that came back later would be taken for the
                # answer to a fetch made after reset.
                s.imem.reset()
                s.dmem.reset()
                s.xcel.reset()
                s.inflight.clear()
                s.state = "run"
                s.halted = False
                s.pc = s.pred_pc = 0
                s.regs[:] = [0] * 32
                s.btb.clear()
                s.num_instrs = s.num_squashes = 0
                s.done.next = 0
                return
            if s.halted:
                s.done.next = 1
                return
            s._tick_body()

    def _tick_body(s):
        # Retire a pending blocking operation first.
        if s.state == "load_wait":
            if not s.dmem.resp_q.empty():
                s._write_reg(s.instr.rd, int(s.dmem.get_resp().data))
                s.state = "run"
        elif s.state == "store_wait":
            if not s.dmem.resp_q.empty():
                s.dmem.get_resp()
                s.state = "run"
        elif s.state == "xcel_wait":
            if not s.xcel.resp_q.empty():
                s._write_reg(s.instr.rd, int(s.xcel.get_resp().data))
                s.state = "run"

        # Execute at most one instruction per cycle.
        if s.state == "run" and not s.imem.resp_q.empty():
            addr, squashed = s.inflight.popleft()
            resp = s.imem.get_resp()
            if squashed:
                s.num_squashes += 1
            else:
                s.instr = decode(int(resp.data))
                s.num_instrs += 1
                s._execute()

        # Keep the fetch pipeline full (predicted-path speculation).
        while (not s.halted
               and len(s.inflight) < _MAX_INFLIGHT_FETCHES
               and not s.imem.req_q.full()):
            s.imem.push_req(MemReqMsg.mk_rd(s.pred_pc))
            s.inflight.append([s.pred_pc, False])
            if s.predictor == "btb" and s.pred_pc in s.btb:
                s.pred_pc = s.btb[s.pred_pc]
            else:
                s.pred_pc = (s.pred_pc + 4) & 0xFFFFFFFF

    def _redirect(s, target):
        """Taken control transfer: train the BTB; fetch verification
        happens uniformly in ``_verify_fetch_path``."""
        target &= 0xFFFFFFFF
        if s.predictor == "btb":
            s.btb[s.pc] = target
        return target

    def _verify_fetch_path(s, next_pc):
        """After every instruction: if the speculative fetch stream
        is not fetching ``next_pc`` next, squash and refetch."""
        if s.halted:
            return
        if s.inflight:
            head = s.inflight[0]
            if head[1] or head[0] != next_pc:
                s.num_squashes += 1
                for entry in s.inflight:
                    entry[1] = True
                s.pred_pc = next_pc
        elif s.pred_pc != next_pc:
            s.pred_pc = next_pc

    def _execute(s):
        instr = s.instr
        op = instr.op
        regs = s.regs
        next_pc = (s.pc + 4) & 0xFFFFFFFF

        if op == "halt":
            s.halted = True
            return
        if op == "j":
            next_pc = s._redirect(instr.imm * 4)
        elif op == "jal":
            s._write_reg(31, s.pc + 4)
            next_pc = s._redirect(instr.imm * 4)
        elif op == "jr":
            next_pc = s._redirect(regs[instr.rs1])
        elif op in ("beq", "bne", "blt", "bge"):
            if branch_taken(op, regs[instr.rs1], regs[instr.rd]):
                next_pc = s._redirect(s.pc + 4 + instr.imm * 4)
        elif op == "lw":
            addr = alu("add", regs[instr.rs1], instr.imm)
            s.dmem.push_req(MemReqMsg.mk_rd(addr))
            s.state = "load_wait"
        elif op == "sw":
            addr = alu("add", regs[instr.rs1], instr.imm)
            s.dmem.push_req(MemReqMsg.mk_wr(addr, regs[instr.rd]))
            s.state = "store_wait"
        elif op == "xcel":
            s.xcel.push_req(XcelReqMsg.mk(instr.imm, regs[instr.rs1]))
            if instr.imm == XCEL_GO:
                s.state = "xcel_wait"
        elif op in ("addi", "andi", "ori", "xori", "slti",
                    "slli", "srli", "lui"):
            s._write_reg(instr.rd, alu(op, regs[instr.rs1], instr.imm))
        else:
            s._write_reg(
                instr.rd, alu(op, regs[instr.rs1], regs[instr.rs2])
            )

        s.pc = next_pc
        s._verify_fetch_path(next_pc)

    def _write_reg(s, idx, value):
        if idx != 0:
            s.regs[idx] = value & 0xFFFFFFFF

    def line_trace(s):
        return f"pc={s.pc:08x} {s.state:10} if={len(s.inflight)}"
