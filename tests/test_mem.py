"""Tests for TestMemory and the FL/CL/RTL caches."""

import copy
import random

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


_MEM_SIZE = 1 << 14           # four 4 KiB pages


class _MemBench(Model):
    """A ``TestMemory`` whose ports' ``resp_rdy`` a comb block drives
    from ``take``: a block ``sched="static"`` schedules (a lone FL tick
    runs on the event fixpoint)."""

    def __init__(s, nports, latency):
        s.mem = TestMemory(nports=nports, latency=latency, size=_MEM_SIZE)
        s.take = [InPort(1) for _ in range(nports)]

        @s.combinational
        def fwd():
            for i in range(nports):
                s.mem.ports[i].resp_rdy.value = s.take[i]


# Addresses within 8 bytes of a page edge, up to twice the size (so
# some wrap), unaligned ones included (the memory aligns them down).
_ADDRS = st.builds(lambda page, off: ((page << 12) + off) % (2 * _MEM_SIZE),
                   st.integers(0, 8), st.integers(-8, 7))
_WORDS = st.one_of(st.just(0), st.integers(0, 0xFFFFFFFF))
_OPS = st.lists(st.tuples(st.booleans(), _ADDRS, _WORDS), max_size=12)


class _Traffic:
    """The property's test bench: per port a stream of requests offered
    and taken with random gaps, and between cycles a stream of backdoor
    ``write_word`` / ``read_word`` calls, all checked against a dict
    ``ref`` of the words written.  Its state is plain data, so a copy
    of it and a checkpoint of the simulator resume the run together."""

    def __init__(self, streams, backdoor, seed):
        self.rnd = random.Random(seed)
        self.todo = [list(ops) for ops in streams]
        self.backdoor = list(backdoor)
        self.got = [[] for _ in streams]
        self.want = [[] for _ in streams]
        self.ref = {}
        self.touched = set()     # pages a non-zero word was written to

    def _write(self, addr, data):
        addr &= (_MEM_SIZE - 1) & ~3
        self.ref[addr] = data
        if data:
            self.touched.add(addr >> 12)

    def cycle(self, bench, sim):
        """One cycle of traffic; True once every stream is answered."""
        mem = bench.mem
        accepted = []
        for i, port in enumerate(mem.ports):
            if int(port.req_val) and int(port.req_rdy):
                accepted.append((i, self.todo[i].pop(0)))
            if int(port.resp_val) and int(bench.take[i]):
                resp = port.resp_msg.value
                self.got[i].append((int(resp.type_), int(resp.data)))
        for i, (write, addr, data) in accepted:
            if write:
                self._write(addr, data)
                self.want[i].append((MEM_REQ_WRITE, 0))
            else:
                addr &= (_MEM_SIZE - 1) & ~3
                self.want[i].append((0, self.ref.get(addr, 0)))
        sim.cycle()
        if self.backdoor and self.rnd.random() < 0.3:
            write, addr, data = self.backdoor.pop(0)
            if write:
                mem.write_word(addr, data)
                self._write(addr, data)
            else:
                aligned = addr & (_MEM_SIZE - 1) & ~3
                assert mem.read_word(addr) == self.ref.get(aligned, 0)
        if (not any(self.todo) and not self.backdoor
                and list(map(len, self.got)) == list(map(len, self.want))):
            return True
        for i, port in enumerate(mem.ports):
            offer = bool(self.todo[i]) and self.rnd.random() < 0.7
            if offer:
                write, addr, data = self.todo[i][0]
                port.req_msg.value = (MemReqMsg.mk_wr(addr, data)
                                      if write else MemReqMsg.mk_rd(addr))
            port.req_val.value = offer
            bench.take[i].value = self.rnd.random() < 0.6
        return False

    def finish(self, bench, sim):
        for _ in range(40 * (2 + sum(map(len, self.todo))
                             + len(self.backdoor))):
            if self.cycle(bench, sim):
                return
        raise AssertionError("streams not answered")


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.lists(_OPS, min_size=1, max_size=2), _OPS,
       st.integers(0, 1 << 32), st.integers(0, 40))
def test_prop_memory_streams_match_a_dict(latency, streams, backdoor, seed,
                                          split):
    """Property: read/write streams, one per port, offered and taken
    with random gaps (``req_val`` / ``resp_rdy`` backpressure), and
    backdoor word writes and reads between cycles, at addresses on page
    edges that wrap at ``size``, come back as the responses a dict
    gives when it serves every accepted request in acceptance order
    (cycle, then port), and leave the same memory image, under
    ``sched="event"`` and ``"static"``.  The memory holds exactly the
    pages a non-zero word was written to: reads of untouched words are
    0 and create none.  A checkpoint taken after ``split`` cycles,
    restored at the end, replays to the same responses, image and
    fingerprint."""
    for sched in ("event", "static"):
        bench = _MemBench(len(streams), latency).elaborate()
        mem = bench.mem
        sim = SimulationTool(bench, sched=sched)
        sim.reset()
        traffic = _Traffic(streams, backdoor, seed)
        for _ in range(split):
            if traffic.cycle(bench, sim):
                break
        cp, resume = sim.save_checkpoint(), copy.deepcopy(traffic)
        traffic.finish(bench, sim)
        assert traffic.got == traffic.want, sched
        assert not any(mem.pending), sched
        for addr in range(0, _MEM_SIZE, 4):
            assert mem.read_word(addr) == traffic.ref.get(addr, 0), (
                sched, addr)
        assert set(mem.pages) == traffic.touched, sched
        end = sim.save_checkpoint().fingerprint()

        sim.restore_checkpoint(cp)
        resume.finish(bench, sim)
        assert (resume.got, resume.ref) == (traffic.got, traffic.ref), sched
        assert sim.save_checkpoint().fingerprint() == end, sched


def test_memory_size_must_be_a_power_of_two():
    """Addresses wrap with ``& (size - 1)``: any other size would alias
    addresses silently."""
    for size in (3000, 0, 3, (1 << 16) + 4):
        with pytest.raises(ValueError, match=str(size)):
            TestMemory(size=size)
    assert TestMemory(size=1 << 12).size == 1 << 12


def test_memory_pages_hold_only_nonzero_writes():
    """A page is created by the first non-zero word written to it; an
    all-zero page and an absent one checkpoint alike."""
    mem, sim = _memory_fixture()
    assert mem.read_word(0x1234) == 0 and not mem.pages
    mem.write_word(0x1000, 0)
    assert not mem.pages
    blank = sim.save_checkpoint()
    mem.write_word(0x1FFC, 7)
    mem.write_word((1 << 16) + 0x2000, 9)        # wraps to page 2
    assert sorted(mem.pages) == [1, 2] and mem.read_word(0x2000) == 9
    cp = sim.save_checkpoint()
    assert sorted(cp.py_state[0]["pages"][1]) == [1, 2]
    mem.write_word(0x1FFC, 0)
    mem.write_word(0x2000, 0)
    assert sorted(mem.pages) == [1, 2]
    assert sim.save_checkpoint().fingerprint() == blank.fingerprint()
    sim.restore_checkpoint(cp)
    assert mem.read_word(0x1FFC) == 7 and mem.read_word(0x2000) == 9


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
