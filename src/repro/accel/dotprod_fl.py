"""FL dot-product accelerator (paper Figure 7).

Functional-level coprocessor: configuration requests set the vector
size and source base addresses; "go" computes the dot product by
passing two list-like memory proxies straight into ``numpy.dot``.  The
``ListMemPortAdapter`` proxies transparently expand each element access
into a latency-insensitive memory transaction, so this model composes
with FL, CL, or RTL memories and processors.
"""

from __future__ import annotations

from ..core import (
    ChildReqRespBundle,
    ChildReqRespQueueAdapter,
    ListMemPortAdapter,
    Model,
    ParentReqRespBundle,
)
from .msgs import XcelRespMsg


class DotProductFL(Model):
    """Functional-level dot-product coprocessor."""

    def __init__(s, mem_ifc_types, cpu_ifc_types):
        s.cpu_ifc = ChildReqRespBundle(cpu_ifc_types)
        s.mem_ifc = ParentReqRespBundle(mem_ifc_types)

        s.cpu = ChildReqRespQueueAdapter(s.cpu_ifc)
        s.src0 = ListMemPortAdapter(s.mem_ifc)
        s.src1 = ListMemPortAdapter(s.mem_ifc)

        s.ctr_ops = s.counter("xcel_ops", "dot products computed")
        s.ctr_mem_reads = s.counter(
            "mem_reads", "vector elements fetched from memory")

        @s.tick_fl
        def logic():
            s.cpu.xtick()
            if not s.cpu.req_q.empty() and not s.cpu.resp_q.full():
                req = s.cpu.get_req()
                if req.ctrl_msg == 1:
                    s.src0.set_size(int(req.data))
                    s.src1.set_size(int(req.data))
                elif req.ctrl_msg == 2:
                    s.src0.set_base(int(req.data))
                elif req.ctrl_msg == 3:
                    s.src1.set_base(int(req.data))
                elif req.ctrl_msg == 0:
                    import numpy    # at first use, not with repro.accel
                    result = numpy.dot(
                        numpy.array(list(s.src0), dtype=object),
                        numpy.array(list(s.src1), dtype=object),
                    )
                    s.ctr_ops.incr()
                    s.ctr_mem_reads.incr(len(s.src0) + len(s.src1))
                    s.cpu.push_resp(XcelRespMsg.mk(int(result) & 0xFFFFFFFF))

    def line_trace(s):
        return f"{s.cpu_ifc.req.to_str()}>{s.cpu_ifc.resp.to_str()}"
