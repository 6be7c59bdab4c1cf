"""FL cache: functionally transparent, no timing model.

Forwards every CPU request to memory and every memory response back to
the CPU.  Used as the golden model for the CL/RTL caches and as the
"magic" memory-system component in mixed-level tile compositions
(paper Section IV-B's <P, C, A> configurations).
"""

from __future__ import annotations

from ..core import (
    ChildReqRespBundle,
    ChildReqRespQueueAdapter,
    Model,
    ParentReqRespBundle,
    ParentReqRespQueueAdapter,
)


class CacheFL(Model):
    """Pass-through cache model (cpu side in, mem side out)."""

    def __init__(s, mem_ifc_types, cpu_ifc_types):
        s.cpu_ifc = ChildReqRespBundle(cpu_ifc_types)
        s.mem_ifc = ParentReqRespBundle(mem_ifc_types)

        s.cpu = ChildReqRespQueueAdapter(s.cpu_ifc)
        s.mem = ParentReqRespQueueAdapter(s.mem_ifc)

        # Every access is a "hit" at FL; the counter keeps the FL/CL/RTL
        # telemetry schema aligned across abstraction levels.
        s.ctr_accesses = s.counter("accesses", "CPU requests forwarded")

        @s.tick_fl
        def logic():
            s.cpu.xtick()
            s.mem.xtick()
            if s.reset:
                # Nothing queued before reset is served after it.
                s.cpu.reset()
                s.mem.reset()
                return
            if not s.cpu.req_q.empty() and not s.mem.req_q.full():
                s.ctr_accesses.incr()
                s.mem.push_req(s.cpu.get_req())
            if not s.mem.resp_q.empty() and not s.cpu.resp_q.full():
                s.cpu.push_resp(s.mem.get_resp())

    def line_trace(s):
        return f"{s.cpu_ifc.req.to_str()}>{s.cpu_ifc.resp.to_str()}"
