"""CL cache: set-associative, blocking, cycle-approximate timing.

Captures the timing behaviour that matters for design-space
exploration: single-cycle hits, multi-cycle line refills on read
misses, and write-through (no-allocate) writes.  Data is mirrored in
the cache so reads after refill hit locally.

Geometry: 4-word (16-byte) lines, ``nlines`` total lines organized as
``nlines/assoc`` sets of ``assoc`` ways with LRU replacement
(``assoc=1`` is the paper's direct-mapped configuration).
"""

from __future__ import annotations

from ..core import (
    ChildReqRespBundle,
    ChildReqRespQueueAdapter,
    Model,
    ParentReqRespBundle,
    ParentReqRespQueueAdapter,
    clog2,
)
from .msgs import MEM_REQ_WRITE, MemReqMsg, MemRespMsg

WORDS_PER_LINE = 4
LINE_BYTES = 4 * WORDS_PER_LINE


class CacheCL(Model):
    """Blocking set-associative write-through cache, cycle-level.

    ``assoc=1`` (the default) gives the direct-mapped cache of the
    paper's tile; higher associativities use LRU replacement.  ``nlines``
    counts total lines, so ``nlines=64, assoc=2`` is 32 sets x 2 ways.
    """

    def __init__(s, mem_ifc_types, cpu_ifc_types, nlines=64, assoc=1):
        if nlines % assoc:
            raise ValueError("nlines must be a multiple of assoc")
        s.cpu_ifc = ChildReqRespBundle(cpu_ifc_types)
        s.mem_ifc = ParentReqRespBundle(mem_ifc_types)

        s.cpu = ChildReqRespQueueAdapter(s.cpu_ifc)
        s.mem = ParentReqRespQueueAdapter(s.mem_ifc)

        s.nlines = nlines
        s.assoc = assoc
        s.nsets = nlines // assoc
        s.idx_bits = clog2(s.nsets)
        # Per-set way lists in LRU order (index 0 = most recent):
        # each way is [tag, data_words].
        s.sets = [[] for _ in range(s.nsets)]

        # Miss-handling state.
        s.state = "idle"            # idle | refill | writethru
        s.cur_req = None
        s.refill_sent = 0
        s.refill_got = 0
        s.refill_words = []

        # Statistics for evaluation.  The plain ints are the historical
        # API (tests and harnesses read them directly); state-backed
        # counters expose them through sim.telemetry and survive
        # SimJIT-CL specialization.
        s.num_accesses = 0
        s.num_misses = 0
        s.counter("accesses", "CPU requests accepted",
                  state=("num_accesses",))
        s.counter("misses", "read misses (line refills)",
                  state=("num_misses",))
        s.ctr_hits = s.counter("hits", "single-cycle read hits")
        s.ctr_evictions = s.counter("evictions", "LRU lines evicted")
        s.ctr_writebacks = s.counter(
            "writebacks", "write-through requests forwarded to memory")

        @s.tick_cl
        def logic():
            s.cpu.xtick()
            s.mem.xtick()
            if s.reset:
                # As CacheRTL: every line invalid, counts zero, and
                # nothing queued before reset is served after it.
                s.cpu.reset()
                s.mem.reset()
                for ways in s.sets:
                    ways.clear()
                s.state = "idle"
                s.cur_req = None
                s.num_accesses = s.num_misses = 0
                return
            if s.state == "idle":
                s._idle_tick()
            elif s.state == "refill":
                s._refill_tick()
            elif s.state == "writethru":
                s._writethru_tick()

    # -- address helpers ---------------------------------------------------

    def _split(s, addr):
        word = (addr >> 2) & (WORDS_PER_LINE - 1)
        idx = (addr >> (2 + clog2(WORDS_PER_LINE))) & (s.nsets - 1)
        tag = addr >> (2 + clog2(WORDS_PER_LINE) + s.idx_bits)
        return tag, idx, word

    def _line_base(s, addr):
        return addr & ~(LINE_BYTES - 1)

    def _lookup(s, idx, tag, touch=True):
        """Return the hitting way ([tag, words]) or None; hits move to
        the MRU position when ``touch`` is set."""
        ways = s.sets[idx]
        for i, way in enumerate(ways):
            if way[0] == tag:
                if touch and i != 0:
                    ways.insert(0, ways.pop(i))
                return way
        return None

    # -- state machine -------------------------------------------------------

    def _idle_tick(s):
        if s.cpu.req_q.empty() or s.cpu.resp_q.full():
            return
        req = s.cpu.get_req()
        s.num_accesses += 1
        tag, idx, word = s._split(int(req.addr))
        way = s._lookup(idx, tag)
        if int(req.type_) == MEM_REQ_WRITE:
            # Write-through: update local copy on hit, always forward.
            if way is not None:
                way[1][word] = int(req.data)
            s.cur_req = req
            s.state = "writethru"
            s._writethru_tick()
        elif way is not None:
            # Read hit: single-cycle response.
            s.ctr_hits.incr()
            s.cpu.push_resp(MemRespMsg.mk(0, way[1][word]))
        else:
            # Read miss: burst-refill the whole line.
            s.num_misses += 1
            s.cur_req = req
            s.refill_sent = 0
            s.refill_got = 0
            s.refill_words = []
            s.state = "refill"
            s._refill_tick()

    def _refill_tick(s):
        base = s._line_base(int(s.cur_req.addr))
        if s.refill_sent < WORDS_PER_LINE and not s.mem.req_q.full():
            s.mem.push_req(MemReqMsg.mk_rd(base + 4 * s.refill_sent))
            s.refill_sent += 1
        if not s.mem.resp_q.empty():
            s.refill_words.append(int(s.mem.get_resp().data))
            s.refill_got += 1
        if s.refill_got == WORDS_PER_LINE and not s.cpu.resp_q.full():
            tag, idx, word = s._split(int(s.cur_req.addr))
            ways = s.sets[idx]
            ways.insert(0, [tag, list(s.refill_words)])
            if len(ways) > s.assoc:
                ways.pop()           # evict LRU (write-through: clean)
                s.ctr_evictions.incr()
            s.cpu.push_resp(MemRespMsg.mk(0, ways[0][1][word]))
            s.cur_req = None
            s.state = "idle"

    def _writethru_tick(s):
        if s.cur_req is not None and not s.mem.req_q.full():
            s.mem.push_req(
                MemReqMsg.mk_wr(int(s.cur_req.addr), int(s.cur_req.data))
            )
            s.ctr_writebacks.incr()
            s.cur_req = None
        if s.cur_req is None and not s.mem.resp_q.empty():
            s.mem.get_resp()
            s.cpu.push_resp(MemRespMsg.mk(MEM_REQ_WRITE, 0))
            s.state = "idle"

    def miss_rate(s):
        """Observed miss rate (reads only count toward misses)."""
        if not s.num_accesses:
            return 0.0
        return s.num_misses / s.num_accesses

    def line_trace(s):
        return f"[{s.state[:1]}]{s.cpu_ifc.req.to_str()}"
