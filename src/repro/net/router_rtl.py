"""RTL mesh router: input-queued, XY-routed, round-robin arbitrated.

Same architecture as :class:`RouterCL` but at register-transfer level:
input buffering uses real ``NormalQueue`` instances, the switch is a
combinational route/arbitrate/crossbar block, and the per-output
round-robin pointers are explicit registers.  Combinational cycles
between routers are broken by the queues' registered ``rdy``/``val``.
"""

from __future__ import annotations

from math import isqrt

from ..components.queues import NormalQueue
from ..core import InValRdyBundle, Model, OutValRdyBundle, Wire, bw
from .msgs import NetMsg


class RouterRTL(Model):
    """Register-transfer-level 5-port XY mesh router."""

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
        s.dim = isqrt(nrouters)
        s.my_x = router_id % s.dim
        s.my_y = router_id // s.dim
        s.dest_lo, s.dest_hi = net_msg.field_slice("dest")

        # Input queues.
        s.queues = [NormalQueue(nentries, net_msg) for _ in range(s.NPORTS)]
        for i in range(s.NPORTS):
            s.connect(s.in_[i], s.queues[i].enq)

        # Arbitration state: grant per output, round-robin pointer,
        # and a registered hold: an offer that stalled (val & !rdy at
        # the edge) pins its grant so the pending payload stays stable
        # until accepted (val/rdy protocol).
        s.grant = [Wire(bw(s.NPORTS)) for _ in range(s.NPORTS)]
        s.grant_val = [Wire(1) for _ in range(s.NPORTS)]
        s.priority = [Wire(bw(s.NPORTS)) for _ in range(s.NPORTS)]
        s.hold_val = [Wire(1) for _ in range(s.NPORTS)]
        s.hold_grant = [Wire(bw(s.NPORTS)) for _ in range(s.NPORTS)]

        from ..telemetry.counters import enabled as _telemetry_enabled
        if _telemetry_enabled():
            # Telemetry registers in their own gated tick; nothing
            # is declared when telemetry is disabled, keeping the
            # disabled design structurally unchanged.
            s.flit_count = [Wire(32) for _ in range(s.NPORTS)]
            s.stall_count = [Wire(32) for _ in range(s.NPORTS)]
            for o in range(s.NPORTS):
                s.counter(f"flits_out{o}",
                          f"flits accepted downstream on port {o}",
                          sig=s.flit_count[o])
                s.counter(f"stalls_out{o}",
                          f"cycles port {o} offered a flit that "
                          "stalled",
                          sig=s.stall_count[o])

            @s.tick_rtl
            def telemetry_logic():
                if s.reset:
                    for o in range(s.NPORTS):
                        s.flit_count[o].next = 0
                        s.stall_count[o].next = 0
                else:
                    for o in range(s.NPORTS):
                        if s.grant_val[o].uint() \
                                and s.out[o].rdy.uint():
                            s.flit_count[o].next = s.flit_count[o] + 1
                        if s.grant_val[o].uint() \
                                and not s.out[o].rdy.uint():
                            s.stall_count[o].next = s.stall_count[o] + 1

        @s.combinational
        def switch_logic():
            # Hoist per-queue head state into locals once per run: the
            # arbitration loop below would otherwise re-walk the
            # queue/bundle attribute chains 25 times.
            msgs = [0] * s.NPORTS
            vals = [0] * s.NPORTS
            routes = [0] * s.NPORTS
            for i in range(s.NPORTS):
                # Route each queue's head packet (XY dimension-ordered,
                # written inline so the block is SimJIT-translatable).
                msg = s.queues[i].deq.msg.uint()
                msgs[i] = msg
                vals[i] = s.queues[i].deq.val.uint()
                dest = (msg >> s.dest_lo) & \
                    ((1 << (s.dest_hi - s.dest_lo)) - 1)
                dest_x = dest % s.dim
                dest_y = dest // s.dim
                if dest_x > s.my_x:
                    routes[i] = s.EAST
                elif dest_x < s.my_x:
                    routes[i] = s.WEST
                elif dest_y > s.my_y:
                    routes[i] = s.SOUTH
                elif dest_y < s.my_y:
                    routes[i] = s.NORTH
                else:
                    routes[i] = s.TERM

            # Held grants claim their inputs first: a stalled output
            # must re-offer the same packet, and no other output may
            # steal that input meanwhile.
            claimed = [0] * s.NPORTS
            choices = [-1] * s.NPORTS
            for o in range(s.NPORTS):
                if s.hold_val[o].uint():
                    i = s.hold_grant[o].uint()
                    if claimed[i] == 0 and vals[i] and routes[i] == o:
                        choices[o] = i
                        claimed[i] = 1
            for o in range(s.NPORTS):
                choice = choices[o]
                if choice < 0:
                    base = s.priority[o].uint()
                    for k in range(s.NPORTS):
                        i = (base + k) % s.NPORTS
                        if (choice < 0 and claimed[i] == 0
                                and vals[i] and routes[i] == o):
                            choice = i
                    if choice >= 0:
                        claimed[choice] = 1
                if choice >= 0:
                    s.grant[o].value = choice
                    s.grant_val[o].value = 1
                    s.out[o].val.value = 1
                    s.out[o].msg.value = msgs[choice]
                else:
                    s.grant[o].value = 0
                    s.grant_val[o].value = 0
                    s.out[o].val.value = 0
                    s.out[o].msg.value = 0

            # Dequeue-side flow control back into the winning queues.
            for i in range(s.NPORTS):
                s.queues[i].deq.rdy.value = 0
            for o in range(s.NPORTS):
                if s.grant_val[o].uint():
                    s.queues[s.grant[o].uint()].deq.rdy.value = \
                        s.out[o].rdy.uint()

        @s.tick_rtl
        def priority_logic():
            if s.reset:
                for o in range(s.NPORTS):
                    s.priority[o].next = 0
                    s.hold_val[o].next = 0
                    s.hold_grant[o].next = 0
            else:
                for o in range(s.NPORTS):
                    if s.grant_val[o].uint() and s.out[o].rdy.uint():
                        s.priority[o].next = \
                            (s.grant[o].uint() + 1) % s.NPORTS
                    # Pin the grant of an offer that stalled this edge.
                    if s.grant_val[o].uint() \
                            and not s.out[o].rdy.uint():
                        s.hold_val[o].next = 1
                        s.hold_grant[o].next = s.grant[o].uint()
                    else:
                        s.hold_val[o].next = 0

    def route(s, dest):
        """XY dimension-ordered routing (same policy as RouterCL)."""
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
        return "".join(str(int(q.count)) for q in s.queues)
