"""CL dot-product accelerator (paper Figure 8).

Cycle-level model: once "go" arrives, all memory read addresses are
pre-generated (src0/src1 interleaved) and issued in a pipelined manner
as backpressure allows; responses accumulate into a list and the final
dot product is computed with ``numpy.dot`` when the last word returns.
Captures the cycle-approximate behaviour — pipelined memory requests —
without modeling the real datapath.
"""

from __future__ import annotations

from ..core import (
    ChildReqRespBundle,
    ChildReqRespQueueAdapter,
    Model,
    ParentReqRespBundle,
    ParentReqRespQueueAdapter,
)
from ..mem.msgs import MemReqMsg
from .msgs import XcelRespMsg


def gen_addresses(size, src0, src1):
    """Interleaved word addresses for two vectors (src0[i], src1[i]).

    Returned reversed so ``list.pop()`` yields them in order (the
    idiom used by paper Figure 8's ``s.addrs.pop()``).
    """
    addrs = []
    for i in range(size):
        addrs.append(src0 + 4 * i)
        addrs.append(src1 + 4 * i)
    addrs.reverse()
    return addrs


class DotProductCL(Model):
    """Cycle-level dot-product coprocessor."""

    def __init__(s, mem_ifc_types, cpu_ifc_types):
        s.cpu_ifc = ChildReqRespBundle(cpu_ifc_types)
        s.mem_ifc = ParentReqRespBundle(mem_ifc_types)

        s.cpu = ChildReqRespQueueAdapter(s.cpu_ifc)
        s.mem = ParentReqRespQueueAdapter(s.mem_ifc)

        s.go = False
        s.size = 0
        s.src0 = 0
        s.src1 = 0
        s.data = []
        s.addrs = []

        s.ctr_ops = s.counter("xcel_ops", "dot products computed")
        s.ctr_mem_reads = s.counter(
            "mem_reads", "vector elements fetched from memory")

        @s.tick_cl
        def logic():
            s.cpu.xtick()
            s.mem.xtick()

            if s.reset:
                s.go = False
                s.data = []
                s.addrs = []
                return

            if s.go:
                if s.addrs and not s.mem.req_q.full():
                    s.mem.push_req(MemReqMsg.mk_rd(s.addrs.pop()))
                    s.ctr_mem_reads.incr()
                if not s.mem.resp_q.empty():
                    s.data.append(int(s.mem.get_resp().data))

                if len(s.data) == s.size * 2 and not s.cpu.resp_q.full():
                    import numpy    # at first use, not with repro.accel
                    result = numpy.dot(
                        numpy.array(s.data[0::2], dtype=object),
                        numpy.array(s.data[1::2], dtype=object),
                    )
                    s.cpu.push_resp(XcelRespMsg.mk(int(result) & 0xFFFFFFFF))
                    s.ctr_ops.incr()
                    s.go = False

            elif not s.cpu.req_q.empty() and not s.cpu.resp_q.full():
                req = s.cpu.get_req()
                if req.ctrl_msg == 1:
                    s.size = int(req.data)
                elif req.ctrl_msg == 2:
                    s.src0 = int(req.data)
                elif req.ctrl_msg == 3:
                    s.src1 = int(req.data)
                elif req.ctrl_msg == 0:
                    s.addrs = gen_addresses(s.size, s.src0, s.src1)
                    s.data = []
                    s.go = True

    def line_trace(s):
        return f"go={int(s.go)} got={len(s.data)}/{2 * s.size}"
