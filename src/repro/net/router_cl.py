"""CL mesh router: XY dimension-ordered routing, elastic-buffer flow
control, cycle-level detail.

Five ports per router (terminal + four mesh directions).  Input packets
buffer in per-port FIFOs; each output port arbitrates round-robin among
the input FIFOs whose head packet routes to it.  Backpressure
propagates through val/rdy, so buffers never overflow.

The model is written in the SimJIT-CL *translatable subset* (paper
Section IV-A): all state is plain integers and fixed-size integer
lists (the FIFOs are flat ring buffers), and the tick block uses only
integer arithmetic — so ``SimJITCL`` can compile it to C.
"""

from __future__ import annotations

from math import isqrt

from ..core import InValRdyBundle, Model, OutValRdyBundle
from .msgs import NetMsg


class RouterCL(Model):
    """Cycle-level 5-port XY mesh router."""

    TERM = 0
    NORTH = 1
    EAST = 2
    SOUTH = 3
    WEST = 4
    NPORTS = 5

    def __init__(s, router_id, nrouters, nmsgs, data_nbits, nentries):
        net_msg = NetMsg(nrouters, nmsgs, data_nbits)
        s.msg_type = net_msg
        s.in_ = InValRdyBundle[s.NPORTS](net_msg)
        s.out = OutValRdyBundle[s.NPORTS](net_msg)

        s.router_id = router_id
        s.nrouters = nrouters
        s.nentries = nentries
        s.dim = isqrt(nrouters)
        s.my_x = router_id % s.dim
        s.my_y = router_id // s.dim
        dest_lo, dest_hi = net_msg.field_slice("dest")
        s.dest_shift = dest_lo
        s.dest_mask = (1 << (dest_hi - dest_lo)) - 1

        # Per-port FIFOs as flat ring buffers (SimJIT-CL subset).
        s.buf_data = [0] * (s.NPORTS * nentries)
        s.buf_head = [0] * s.NPORTS
        s.buf_count = [0] * s.NPORTS
        # Which input FIFO feeds each output (-1 = none); round-robin
        # priority pointer per output.
        s.grants = [-1] * s.NPORTS
        s.priority = [0] * s.NPORTS

        # Per-output telemetry, kept as flat int lists updated with
        # subset-style statements so the block stays SimJIT-CL
        # translatable (and the counters survive specialization as
        # state-backed reads).
        s.ctr_flits = [0] * s.NPORTS
        s.ctr_stalls = [0] * s.NPORTS
        for o in range(s.NPORTS):
            s.counter(f"flits_out{o}",
                      f"flits accepted downstream on port {o}",
                      state=("ctr_flits", o))
            s.counter(f"stalls_out{o}",
                      f"cycles port {o} offered a flit that stalled",
                      state=("ctr_stalls", o))

        @s.tick_cl
        def router_logic():
            if s.reset.uint():
                for i in range(s.NPORTS):
                    s.buf_head[i] = 0
                    s.buf_count[i] = 0
                    s.grants[i] = -1
                    s.priority[i] = 0
                    s.ctr_flits[i] = 0
                    s.ctr_stalls[i] = 0
                    s.in_[i].rdy.next = 0
                    s.out[i].val.next = 0
            else:
                # 1. Packets accepted by downstream on the last edge
                #    leave their input FIFO.
                for o in range(s.NPORTS):
                    if s.out[o].val.uint() and s.out[o].rdy.uint():
                        src = s.grants[o]
                        s.buf_head[src] = (s.buf_head[src] + 1) % s.nentries
                        s.buf_count[src] = s.buf_count[src] - 1
                        s.priority[o] = (src + 1) % s.NPORTS
                        s.ctr_flits[o] = s.ctr_flits[o] + 1

                # 2. Packets offered by upstream on the last edge enter.
                for i in range(s.NPORTS):
                    if s.in_[i].val.uint() and s.in_[i].rdy.uint():
                        tail = (s.buf_head[i] + s.buf_count[i]) % s.nentries
                        s.buf_data[i * s.nentries + tail] = \
                            s.in_[i].msg.uint()
                        s.buf_count[i] = s.buf_count[i] + 1

                # 3. Route + arbitrate for each output.  An offer that
                #    stalled (val high, rdy low at the edge) holds its
                #    grant: a pending offer's payload must stay stable
                #    until accepted (val/rdy protocol), so a stalled
                #    output may not re-arbitrate.
                claimed = [0] * s.NPORTS
                held = [0] * s.NPORTS
                for o in range(s.NPORTS):
                    if (s.out[o].val.uint() and not s.out[o].rdy.uint()
                            and s.grants[o] >= 0):
                        held[o] = 1
                        claimed[s.grants[o]] = 1
                        s.ctr_stalls[o] = s.ctr_stalls[o] + 1
                for o in range(s.NPORTS):
                    if held[o]:
                        continue        # val/msg registers keep the offer
                    s.grants[o] = -1
                    choice = -1
                    for k in range(s.NPORTS):
                        i = (s.priority[o] + k) % s.NPORTS
                        if claimed[i] or s.buf_count[i] == 0 or choice >= 0:
                            continue
                        head = s.buf_data[i * s.nentries + s.buf_head[i]]
                        dest = (head >> s.dest_shift) & s.dest_mask
                        dest_x = dest % s.dim
                        dest_y = dest // s.dim
                        if dest_x > s.my_x:
                            route = s.EAST
                        elif dest_x < s.my_x:
                            route = s.WEST
                        elif dest_y > s.my_y:
                            route = s.SOUTH
                        elif dest_y < s.my_y:
                            route = s.NORTH
                        else:
                            route = s.TERM
                        if route == o:
                            choice = i
                    if choice >= 0:
                        claimed[choice] = 1
                        s.grants[o] = choice
                        s.out[o].val.next = 1
                        s.out[o].msg.next = \
                            s.buf_data[choice * s.nentries
                                       + s.buf_head[choice]]
                    else:
                        s.out[o].val.next = 0

                # 4. Input flow control for next cycle.
                for i in range(s.NPORTS):
                    s.in_[i].rdy.next = s.buf_count[i] < s.nentries

    def route(s, dest):
        """XY dimension-ordered routing: X first, then Y, then eject."""
        dest = int(dest)
        dest_x = dest % s.dim
        dest_y = dest // s.dim
        if dest_x > s.my_x:
            return s.EAST
        if dest_x < s.my_x:
            return s.WEST
        if dest_y > s.my_y:
            return s.SOUTH
        if dest_y < s.my_y:
            return s.NORTH
        return s.TERM

    def line_trace(s):
        return "".join(str(c) for c in s.buf_count)
