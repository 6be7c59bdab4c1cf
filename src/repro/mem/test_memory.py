"""TestMemory: FL magic memory with port-based latency-insensitive
interfaces.

The memory responds to read/write requests over one or more val/rdy
request/response channels with a configurable fixed latency.  It is the
substrate under the accelerator (paper Figures 7-9) and the processor
case studies, and also serves FL-composition roles: because it exposes
the same interface as the caches, test benches swap freely between
"magic" and realistic memory systems.

Its tick drives the ports as a lowered block does: it binds each
port's six signals to their root nets at its first tick, reads
``_value``, writes through ``_Net.write_next``, and decodes a request
and encodes a response by shift and mask with the field slices of
``MemReqMsg`` / ``MemRespMsg``, so no message ``BitStruct`` is built
per request.

Its words live in 4 KiB pages (:class:`Pages`), created by the first
write of a non-zero word, so a memory holds only what a run writes:
a tile's 1 MiB address space costs the few pages its program and data
touch.  A read of an untouched word is 0 and allocates nothing.
"""

from __future__ import annotations

from array import array
from collections import deque

from ..core import ChildReqRespBundle, Model
from .msgs import MEM_REQ_WRITE, MemMsg, MemReqMsg, MemRespMsg

_PORT_NETS = ("req_val", "req_rdy", "req_msg",
              "resp_val", "resp_rdy", "resp_msg")


def _field(struct, name):
    """``(lo, mask)`` of field ``name`` of ``struct``."""
    lo, hi = struct.field_slice(name)
    return lo, (1 << (hi - lo)) - 1


_PAGE_SHIFT = 12                       # 4 KiB pages
_PAGE_WORDS = 1 << (_PAGE_SHIFT - 2)
_ZERO_PAGE = array("I", [0]) * _PAGE_WORDS
_ZERO_BYTES = _ZERO_PAGE.tobytes()


class Pages(dict):
    """A word memory by page: page index (``addr >> 12``) to a
    1 024-word ``array('I')``.  A missing page reads as zeros.  A
    checkpoint keeps only the pages holding a non-zero word
    (:meth:`touched`), so an all-zero page and an absent one are the
    same state."""

    __slots__ = ()

    def read(self, addr):
        """The word at the word-aligned byte address ``addr``."""
        page = self.get(addr >> _PAGE_SHIFT)
        return 0 if page is None else page[(addr >> 2) & (_PAGE_WORDS - 1)]

    def write(self, addr, word):
        """Store the 32-bit ``word`` at the word-aligned ``addr``."""
        page = self.get(addr >> _PAGE_SHIFT)
        if page is None:
            if not word:
                return          # untouched memory already reads 0
            page = self[addr >> _PAGE_SHIFT] = _ZERO_PAGE[:]
        page[(addr >> 2) & (_PAGE_WORDS - 1)] = word

    def touched(self):
        """``{index: bytes}`` of every page holding a non-zero word."""
        return {index: raw for index, page in self.items()
                if (raw := page.tobytes()) != _ZERO_BYTES}

    def load_image(self, image):
        """Become the memory :meth:`touched` returned, in place."""
        self.clear()
        for index, raw in image.items():
            self[index] = array("I", raw)


def check_size(size, owner):
    """Refuse a memory ``size`` that is not a power of two: addresses
    wrap with ``& (size - 1)``, which is a wrap only for one."""
    if size < 4 or size & (size - 1):
        raise ValueError(
            f"{owner} size must be a power of two of at least 4 bytes "
            f"(addresses wrap with & (size - 1)), got {size}")


class TestMemory(Model):
    """Magic word-addressable memory.

    Parameters
    ----------
    nports : number of independent request/response ports.
    latency : cycles between request acceptance and response validity
        (minimum 1: a request accepted at edge N produces a response no
        earlier than edge N+1, like a synchronous SRAM).
    size : bytes of address space, a power of two: addresses wrap
        with ``& (size - 1)``.  Storage is allocated per 4 KiB page on
        the first non-zero write, so ``size`` costs nothing by itself.
    """

    __test__ = False      # not a pytest class, despite the name

    def __init__(s, nports=1, latency=1, size=1 << 20):
        check_size(size, "TestMemory")
        mem_msg = MemMsg()
        s.ports = [ChildReqRespBundle(mem_msg) for _ in range(nports)]
        s.nports = nports
        s.latency = max(1, latency)
        s.size = size
        s.pages = Pages()
        # Per-port FIFO of (ready_cycle, resp_int) awaiting delivery.
        s.pending = [deque() for _ in range(nports)]
        s.cycle_count = 0
        s._nets = None        # bound at the first tick

        @s.tick_fl
        def logic():
            s.cycle_count += 1
            reset, ports = s._nets or s._bind()
            # ``s.pending`` is read each tick, not bound: a checkpoint
            # restore refills the list with new queues.
            if reset._value:
                for pending, (_, req_rdy, _, resp_val, _, _) in zip(
                        s.pending, ports):
                    pending.clear()
                    req_rdy.write_next(0)
                    resp_val.write_next(0)
                return
            for pending, nets in zip(s.pending, ports):
                req_val, req_rdy, _, resp_val, _, _ = nets
                # A settled idle port (nothing in flight, no request
                # offered, outputs at their idle values) ticks to an
                # exact no-op — skip the call.
                if (pending or req_val._value or resp_val._value
                        or not req_rdy._value):
                    s._port_tick(pending, nets)

    def _bind(s):
        """``(reset, [nets])``: the reset net, and per port the root
        nets of ``_PORT_NETS``."""
        s._nets = (s.reset._net.find(), [
            tuple(getattr(port, name)._net.find() for name in _PORT_NETS)
            for port in s.ports])
        return s._nets

    def _port_tick(s, pending, nets):
        req_val, req_rdy, req_msg, resp_val, resp_rdy, resp_msg = nets
        cycle = s.cycle_count

        if not pending:
            # Fast path: no response in flight (``resp_val`` can only
            # be high while ``pending`` holds its message, so there is
            # nothing to retire).  Idle ports write no signals at all.
            if req_val._value and req_rdy._value:
                pending.append((cycle + s.latency - 1,
                                s._process(req_msg._value)))
            else:
                if not req_rdy._value:
                    req_rdy.write_next(1)
                if resp_val._value:
                    resp_val.write_next(0)
                return
        else:
            # Response delivered on the last edge?
            if resp_val._value and resp_rdy._value:
                pending.popleft()
            # Accept a new request?
            if req_val._value and req_rdy._value:
                pending.append((cycle + s.latency - 1,
                                s._process(req_msg._value)))

        # Drive next-cycle outputs, writing only on change.
        rdy = 1 if len(pending) < 4 else 0
        if req_rdy._value != rdy:
            req_rdy.write_next(rdy)
        if pending and pending[0][0] <= cycle:
            resp_val.write_next(1)
            resp_msg.write_next(pending[0][1])
        elif resp_val._value:
            resp_val.write_next(0)

    _TYPE = _field(MemReqMsg, "type_")
    _ADDR = _field(MemReqMsg, "addr")
    _DATA = _field(MemReqMsg, "data")
    _RESP_WRITE = MEM_REQ_WRITE << MemRespMsg.field_slice("type_")[0]
    _RESP_DATA = MemRespMsg.field_slice("data")[0]

    def _process(s, req):
        """Serve the request ``req`` (a ``MemReqMsg`` as an int) and
        return its response as a ``MemRespMsg`` int."""
        lo, mask = s._ADDR
        addr = (req >> lo) & mask & (s.size - 1) & ~0x3
        lo, mask = s._TYPE
        if (req >> lo) & mask == MEM_REQ_WRITE:
            lo, mask = s._DATA
            s.pages.write(addr, (req >> lo) & mask)
            return s._RESP_WRITE
        return s.pages.read(addr) << s._RESP_DATA

    # -- direct (backdoor) access for test setup ---------------------------

    def write_word(s, addr, value):
        """Backdoor word write for test initialization."""
        s.pages.write(addr & (s.size - 1) & ~0x3, value & 0xFFFFFFFF)

    def read_word(s, addr):
        """Backdoor word read for test checking."""
        return s.pages.read(addr & (s.size - 1) & ~0x3)

    def load(s, base, words):
        """Backdoor bulk load of a word list starting at ``base``."""
        for i, word in enumerate(words):
            s.write_word(base + 4 * i, word)

    def line_trace(s):
        return "|".join(
            f"{p.req.to_str()}>{p.resp.to_str()}" for p in s.ports
        )
