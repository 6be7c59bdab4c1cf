"""Tests for TestMemory and the FL/CL/RTL caches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InPort, Model, SimulationTool
from repro.mem import (
    MEM_REQ_WRITE,
    CacheCL,
    CacheFL,
    CacheRTL,
    MemMsg,
    MemReqMsg,
    TestMemory,
)


class _MemTester:
    """Drives a ChildReqRespBundle port with blocking transactions."""

    def __init__(self, sim, port, max_cycles=200):
        self.sim = sim
        self.port = port
        self.max_cycles = max_cycles

    def transact(self, req):
        port, sim = self.port, self.sim
        port.req_msg.value = req
        port.req_val.value = 1
        port.resp_rdy.value = 1
        for _ in range(self.max_cycles):
            accepted = int(port.req_val) and int(port.req_rdy)
            sim.cycle()
            if accepted:
                break
        else:
            raise AssertionError("request never accepted")
        port.req_val.value = 0
        for _ in range(self.max_cycles):
            if int(port.resp_val) and int(port.resp_rdy):
                resp = port.resp_msg.value
                sim.cycle()
                port.resp_rdy.value = 0
                return resp
            sim.cycle()
        raise AssertionError("no response")

    def read(self, addr):
        return int(self.transact(MemReqMsg.mk_rd(addr)).data)

    def write(self, addr, data):
        resp = self.transact(MemReqMsg.mk_wr(addr, data))
        assert int(resp.type_) == MEM_REQ_WRITE


# -- TestMemory ------------------------------------------------------------


def _memory_fixture(latency=1, nports=1):
    mem = TestMemory(nports=nports, latency=latency, size=1 << 16)
    mem.elaborate()
    sim = SimulationTool(mem)
    sim.reset()
    return mem, sim


def test_memory_write_then_read():
    mem, sim = _memory_fixture()
    tester = _MemTester(sim, mem.ports[0])
    tester.write(0x100, 0xDEADBEEF)
    assert tester.read(0x100) == 0xDEADBEEF


def test_memory_backdoor_load():
    mem, sim = _memory_fixture()
    mem.load(0x200, [1, 2, 3, 4])
    tester = _MemTester(sim, mem.ports[0])
    assert tester.read(0x204) == 2
    assert mem.read_word(0x20C) == 4


def test_memory_address_word_aligned():
    mem, sim = _memory_fixture()
    mem.write_word(0x100, 0x12345678)
    tester = _MemTester(sim, mem.ports[0])
    assert tester.read(0x102) == 0x12345678   # misaligned -> aligned down


@pytest.mark.parametrize("latency", [1, 2, 5])
def test_memory_latency_enforced(latency):
    mem, sim = _memory_fixture(latency=latency)
    mem.write_word(0x40, 7)
    tester = _MemTester(sim, mem.ports[0])
    start = sim.ncycles
    assert tester.read(0x40) == 7
    elapsed = sim.ncycles - start
    assert elapsed >= latency


def test_memory_multiport_independent():
    mem, sim = _memory_fixture(nports=2)
    t0 = _MemTester(sim, mem.ports[0])
    t1 = _MemTester(sim, mem.ports[1])
    t0.write(0x10, 111)
    t1.write(0x20, 222)
    assert t1.read(0x10) == 111   # ports share storage
    assert t0.read(0x20) == 222


class _MemBench(Model):
    """A ``TestMemory`` whose ports' ``resp_rdy`` a comb block drives
    from ``take``: a block ``sched="static"`` schedules (a lone FL tick
    runs on the event fixpoint)."""

    def __init__(s, nports, latency):
        s.mem = TestMemory(nports=nports, latency=latency, size=1 << 12)
        s.take = [InPort(1) for _ in range(nports)]

        @s.combinational
        def fwd():
            for i in range(nports):
                s.mem.ports[i].resp_rdy.value = s.take[i]


_OPS = st.lists(st.tuples(st.booleans(), st.integers(0, 47),
                          st.integers(0, 0xFFFFFFFF)), max_size=12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.lists(_OPS, min_size=1, max_size=2),
       st.integers(0, 1 << 32))
def test_prop_memory_streams_match_a_dict(latency, streams, seed):
    """Property: read/write streams, one per port, offered and taken
    with random gaps (``req_val`` / ``resp_rdy`` backpressure), come
    back as the responses a dict gives when it serves every accepted
    request in acceptance order (cycle, then port), and leave the same
    memory image, under ``sched="event"`` and ``"static"``.  Addresses
    need not be aligned (the memory aligns them down)."""
    import random

    for sched in ("event", "static"):
        bench = _MemBench(len(streams), latency).elaborate()
        mem = bench.mem
        sim = SimulationTool(bench, sched=sched)
        sim.reset()
        rnd = random.Random(seed)
        todo = [list(ops) for ops in streams]
        got = [[] for _ in streams]
        want = [[] for _ in streams]
        ref = {}
        for _ in range(40 * (1 + sum(map(len, streams)))):
            accepted = []
            for i, port in enumerate(mem.ports):
                if int(port.req_val) and int(port.req_rdy):
                    accepted.append((i, todo[i].pop(0)))
                if int(port.resp_val) and int(bench.take[i]):
                    resp = port.resp_msg.value
                    got[i].append((int(resp.type_), int(resp.data)))
            for i, (write, addr, data) in accepted:
                addr &= ~3
                if write:
                    ref[addr] = data
                    want[i].append((MEM_REQ_WRITE, 0))
                else:
                    want[i].append((0, ref.get(addr, 0)))
            sim.cycle()
            if not any(todo) and list(map(len, got)) == list(map(len,
                                                                 want)):
                break
            for i, port in enumerate(mem.ports):
                offer = bool(todo[i]) and rnd.random() < 0.7
                if offer:
                    write, addr, data = todo[i][0]
                    port.req_msg.value = (MemReqMsg.mk_wr(addr, data)
                                          if write else MemReqMsg.mk_rd(addr))
                port.req_val.value = offer
                bench.take[i].value = rnd.random() < 0.6
        assert got == want, sched
        assert not any(todo) and not any(mem.pending), sched
        for addr in range(0, 48, 4):
            assert mem.read_word(addr) == ref.get(addr, 0), (sched, addr)


# -- caches -----------------------------------------------------------------


class _CacheHarness(Model):
    def __init__(s, cache):
        s.cache = cache
        s.mem = TestMemory(nports=1, latency=2, size=1 << 16)
        s.connect(s.cache.mem_ifc.req, s.mem.ports[0].req)
        s.connect(s.cache.mem_ifc.resp, s.mem.ports[0].resp)


def _cache_fixture(cache_cls, **kwargs):
    mm = MemMsg()
    harness = _CacheHarness(cache_cls(mm, mm, **kwargs)).elaborate()
    sim = SimulationTool(harness)
    sim.reset()
    tester = _MemTester(sim, harness.cache.cpu_ifc, max_cycles=500)
    return harness, sim, tester


CACHES = [(CacheFL, {}), (CacheCL, {"nlines": 4}), (CacheRTL, {"nlines": 4})]


@pytest.mark.parametrize("cache_cls,kwargs", CACHES)
def test_cache_read_returns_memory_data(cache_cls, kwargs):
    harness, sim, tester = _cache_fixture(cache_cls, **kwargs)
    harness.mem.load(0x100, [10, 20, 30, 40])
    assert tester.read(0x100) == 10
    assert tester.read(0x108) == 30


@pytest.mark.parametrize("cache_cls,kwargs", CACHES)
def test_cache_write_then_read(cache_cls, kwargs):
    harness, sim, tester = _cache_fixture(cache_cls, **kwargs)
    tester.write(0x80, 0xCAFE)
    assert tester.read(0x80) == 0xCAFE


@pytest.mark.parametrize("cache_cls,kwargs", CACHES)
def test_cache_write_through_reaches_memory(cache_cls, kwargs):
    harness, sim, tester = _cache_fixture(cache_cls, **kwargs)
    tester.write(0x90, 1234)
    assert harness.mem.read_word(0x90) == 1234


@pytest.mark.parametrize("cache_cls,kwargs",
                         [(CacheCL, {"nlines": 4}), (CacheRTL, {"nlines": 4})])
def test_cache_hit_faster_than_miss(cache_cls, kwargs):
    harness, sim, tester = _cache_fixture(cache_cls, **kwargs)
    harness.mem.load(0x100, [5, 6, 7, 8])
    start = sim.ncycles
    tester.read(0x100)
    miss_time = sim.ncycles - start
    start = sim.ncycles
    tester.read(0x104)          # same line: hit
    hit_time = sim.ncycles - start
    assert hit_time < miss_time


@pytest.mark.parametrize("cache_cls,kwargs",
                         [(CacheCL, {"nlines": 4}), (CacheRTL, {"nlines": 4})])
def test_cache_miss_statistics(cache_cls, kwargs):
    harness, sim, tester = _cache_fixture(cache_cls, **kwargs)
    for i in range(8):
        tester.read(i * 4)       # two lines: 2 misses, 6 hits
    cache = harness.cache
    assert cache.num_accesses == 8
    assert cache.num_misses == 2
    assert cache.miss_rate() == pytest.approx(0.25)


@pytest.mark.parametrize("cache_cls,kwargs",
                         [(CacheCL, {"nlines": 4}), (CacheRTL, {"nlines": 4})])
def test_cache_conflict_eviction(cache_cls, kwargs):
    """Two addresses mapping to the same set evict each other."""
    harness, sim, tester = _cache_fixture(cache_cls, **kwargs)
    # With 4 lines of 16B, addresses 0x000 and 0x040 share set 0.
    harness.mem.write_word(0x000, 1)
    harness.mem.write_word(0x040, 2)
    assert tester.read(0x000) == 1
    assert tester.read(0x040) == 2
    assert tester.read(0x000) == 1
    assert harness.cache.num_misses == 3


# -- set associativity ---------------------------------------------------------


@pytest.mark.parametrize("cache_cls", [CacheCL, CacheRTL])
def test_two_way_cache_avoids_conflict_thrashing(cache_cls):
    """Alternating between two same-set addresses thrashes a
    direct-mapped cache but hits in a 2-way set-associative one."""
    def misses(assoc):
        harness, sim, tester = _cache_fixture(
            cache_cls, nlines=4, assoc=assoc)
        # nlines=4, assoc=a -> set count 4/a; with 16B lines, 0x000 and
        # 0x040 collide in set 0 for both geometries.
        harness.mem.write_word(0x000, 1)
        harness.mem.write_word(0x040, 2)
        for _ in range(4):
            assert tester.read(0x000) == 1
            assert tester.read(0x040) == 2
        return harness.cache.num_misses

    assert misses(1) == 8        # every access misses
    assert misses(2) == 2        # only the two cold misses


@pytest.mark.parametrize("cache_cls", [CacheCL, CacheRTL])
def test_two_way_lru_evicts_least_recent(cache_cls):
    harness, sim, tester = _cache_fixture(cache_cls, nlines=4, assoc=2)
    # Three lines mapping to set 0 (16B lines, 2 sets): 0x0, 0x40, 0x80.
    harness.mem.write_word(0x000, 1)
    harness.mem.write_word(0x040, 2)
    harness.mem.write_word(0x080, 3)
    tester.read(0x000)           # miss -> way A
    tester.read(0x040)           # miss -> way B
    tester.read(0x000)           # hit, A becomes MRU
    tester.read(0x080)           # miss, evicts LRU = 0x40
    base = harness.cache.num_misses
    tester.read(0x000)           # still resident
    assert harness.cache.num_misses == base
    tester.read(0x040)           # was evicted -> miss
    assert harness.cache.num_misses == base + 1


def test_two_way_rtl_cache_simjit_equivalent():
    from tests.test_simjit import assert_cycle_exact
    assert_cycle_exact(
        lambda: CacheRTL(MemMsg(), MemMsg(), nlines=4, assoc=2),
        ncycles=300)


def test_bad_assoc_rejected():
    with pytest.raises(ValueError):
        CacheRTL(MemMsg(), MemMsg(), nlines=4, assoc=3)
    with pytest.raises(ValueError):
        CacheCL(MemMsg(), MemMsg(), nlines=5, assoc=2)


@settings(max_examples=10, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(),
              st.integers(min_value=0, max_value=63),
              st.integers(min_value=0, max_value=0xFFFFFFFF)),
    min_size=1, max_size=25))
@pytest.mark.parametrize("cache_cls,kwargs",
                         [(CacheCL, {"nlines": 4}), (CacheRTL, {"nlines": 4}),
                          (CacheCL, {"nlines": 4, "assoc": 2}),
                          (CacheRTL, {"nlines": 4, "assoc": 2})])
def test_prop_cache_matches_flat_memory(cache_cls, kwargs, ops):
    """Property: any read/write sequence through the cache observes the
    same values as a flat reference dict."""
    harness, sim, tester = _cache_fixture(cache_cls, **kwargs)
    reference = {}
    for is_write, word_idx, value in ops:
        addr = word_idx * 4
        if is_write:
            tester.write(addr, value)
            reference[addr] = value
        else:
            got = tester.read(addr)
            assert got == reference.get(addr, 0)
