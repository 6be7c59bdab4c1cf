"""Memory-over-network: a shared memory node behind the mesh.

A composability showcase in the spirit of paper Figure 5(a)'s
multi-tile system: client adapters turn latency-insensitive memory
transactions into network packets, a memory-server node at another
terminal services them, and everything rides the same FL/CL/RTL mesh
models — so a processor can execute programs out of a *remote* memory
across the on-chip network without changing a line of its code.

Packet format: ``NetMsg`` with a payload wide enough to carry a packed
``MemReqMsg`` (65 bits); responses carry a packed ``MemRespMsg``.
"""

from __future__ import annotations

from collections import deque

from ..core import (
    ChildReqRespBundle,
    ChildReqRespQueueAdapter,
    InValRdyBundle,
    Model,
    OutValRdyBundle,
)
from ..mem.msgs import MEM_REQ_WRITE, MemMsg, MemReqMsg, MemRespMsg
from ..mem.test_memory import Pages, check_size
from .mesh import MeshNetworkStructural
from .msgs import NetMsg
from .router_cl import RouterCL

#: payload must hold a packed MemReqMsg plus the requester id is in src
MEM_PAYLOAD_NBITS = MemReqMsg.nbits


class RemoteMemClient(Model):
    """Bridges a local memory interface onto network terminals.

    The local requester (processor, cache, test bench) talks ordinary
    val/rdy memory transactions into ``mem_ifc``; each request is
    wrapped in a network packet to ``server_id`` and the matching
    response packet is unwrapped back.  Requests are pipelined (the
    network preserves ordering between one source/dest pair).
    """

    def __init__(s, my_id, server_id, nrouters, nmsgs=256):
        net_msg = NetMsg(nrouters, nmsgs, MEM_PAYLOAD_NBITS)
        s.msg_type = net_msg
        s.mem_ifc = ChildReqRespBundle(MemMsg())
        s.net_out = OutValRdyBundle(net_msg)
        s.net_in = InValRdyBundle(net_msg)
        s.my_id = my_id
        s.server_id = server_id

        s.mem = ChildReqRespQueueAdapter(s.mem_ifc)
        s.send_q = deque()
        s.seq = 0

        @s.tick_fl
        def logic():
            s.mem.xtick()
            if s.reset:
                s.send_q.clear()
                s.net_out.val.next = 0
                s.net_in.rdy.next = 0
                return

            # Outgoing: wrap memory requests into packets.
            if not s.mem.req_q.empty():
                req = s.mem.get_req()
                packet = s.msg_type()
                packet.dest = s.server_id
                packet.src = s.my_id
                packet.opaque = s.seq % 256
                packet.payload = int(req)
                s.seq += 1
                s.send_q.append(int(packet))

            if int(s.net_out.val) and int(s.net_out.rdy):
                s.send_q.popleft()
            if s.send_q:
                s.net_out.val.next = 1
                s.net_out.msg.next = s.send_q[0]
            else:
                s.net_out.val.next = 0

            # Incoming: unwrap responses.
            if int(s.net_in.val) and int(s.net_in.rdy):
                payload = int(s.net_in.msg.value.payload)
                s.mem.push_resp(MemRespMsg(payload & ((1 << 33) - 1)))
            s.net_in.rdy.next = not s.mem.resp_q.full()

    def line_trace(s):
        return f"c{s.my_id}[{len(s.send_q)}]"


class RemoteMemServer(Model):
    """Memory node: services packed memory requests from the network.

    Functionally a magic memory (like :class:`~repro.mem.TestMemory`,
    whose :class:`~repro.mem.test_memory.Pages` hold its words)
    reachable only through its network terminal; responses go back to
    each packet's ``src``.
    """

    def __init__(s, my_id, nrouters, nmsgs=256, size=1 << 20):
        check_size(size, "RemoteMemServer")
        net_msg = NetMsg(nrouters, nmsgs, MEM_PAYLOAD_NBITS)
        s.msg_type = net_msg
        s.net_out = OutValRdyBundle(net_msg)
        s.net_in = InValRdyBundle(net_msg)
        s.my_id = my_id
        s.size = size
        s.pages = Pages()
        s.resp_q = deque()

        @s.tick_fl
        def logic():
            if s.reset:
                s.resp_q.clear()
                s.net_out.val.next = 0
                s.net_in.rdy.next = 0
                return

            if int(s.net_out.val) and int(s.net_out.rdy):
                s.resp_q.popleft()

            if int(s.net_in.val) and int(s.net_in.rdy):
                packet = s.net_in.msg.value
                req = MemReqMsg(int(packet.payload))
                resp = s._process(req)
                reply = s.msg_type()
                reply.dest = int(packet.src)
                reply.src = s.my_id
                reply.opaque = int(packet.opaque)
                reply.payload = int(resp)
                s.resp_q.append(int(reply))

            if s.resp_q:
                s.net_out.val.next = 1
                s.net_out.msg.next = s.resp_q[0]
            else:
                s.net_out.val.next = 0
            s.net_in.rdy.next = len(s.resp_q) < 8

    def _process(s, req):
        addr = int(req.addr) & (s.size - 1) & ~0x3
        if int(req.type_) == MEM_REQ_WRITE:
            s.pages.write(addr, int(req.data))
            return MemRespMsg.mk(MEM_REQ_WRITE, 0)
        return MemRespMsg.mk(0, s.pages.read(addr))

    # backdoor access for tests
    def write_word(s, addr, value):
        s.pages.write(addr & (s.size - 1) & ~0x3, value & 0xFFFFFFFF)

    def read_word(s, addr):
        return s.pages.read(addr & (s.size - 1) & ~0x3)

    def load(s, base, words):
        for i, word in enumerate(words):
            s.write_word(base + 4 * i, word)

    def line_trace(s):
        return f"srv[{len(s.resp_q)}]"


class RemoteMemSystem(Model):
    """Mesh + memory server at terminal 0 + clients elsewhere.

    Exposes one memory interface bundle per client; the backing
    storage lives in ``s.server``.
    """

    def __init__(s, nclients=3, nrouters=4, router_type=RouterCL,
                 nentries=2, nmsgs=256):
        assert nclients < nrouters
        s.nclients = nclients
        s.net = MeshNetworkStructural(
            router_type, nrouters, nmsgs, MEM_PAYLOAD_NBITS, nentries)
        s.server = RemoteMemServer(0, nrouters, nmsgs)
        s.clients = [
            RemoteMemClient(i + 1, 0, nrouters, nmsgs)
            for i in range(nclients)
        ]
        s.mem_ifcs = [client.mem_ifc for client in s.clients]

        s.connect(s.server.net_out, s.net.in_[0])
        s.connect(s.net.out[0], s.server.net_in)
        for i, client in enumerate(s.clients):
            s.connect(client.net_out, s.net.in_[i + 1])
            s.connect(s.net.out[i + 1], client.net_in)

    def line_trace(s):
        return " ".join(
            [s.server.line_trace()]
            + [c.line_trace() for c in s.clients]
        )
