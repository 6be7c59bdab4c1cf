"""Unit tests for the queue adapters and the blocking memory proxy."""

import numpy
import pytest

from repro import (
    ChildReqRespBundle,
    ChildReqRespQueueAdapter,
    ListMemPortAdapter,
    Model,
    OutPort,
    ParentReqRespBundle,
    ParentReqRespQueueAdapter,
    Queue,
    SimulationTool,
)
from repro.mem import MemMsg, TestMemory
from repro.accel.msgs import XcelMsg, XcelReqMsg


# -- Queue ------------------------------------------------------------------


def test_queue_fifo_order():
    q = Queue(3)
    for i in (1, 2, 3):
        q.enq(i)
    assert q.full()
    assert [q.deq() for _ in range(3)] == [1, 2, 3]
    assert q.empty()


def test_queue_overflow_underflow_raise():
    q = Queue(1)
    with pytest.raises(IndexError):
        q.deq()
    q.enq(1)
    with pytest.raises(IndexError):
        q.enq(2)
    with pytest.raises(IndexError):
        Queue(1).front()


def test_queue_front_peeks():
    q = Queue(2)
    q.enq(7)
    assert q.front() == 7
    assert len(q) == 1


# -- child/parent queue adapters talking to each other ---------------------------


class _Echo(Model):
    """Child device echoing request data + 1 as the response."""

    def __init__(s, ifc):
        s.cpu_ifc = ChildReqRespBundle(ifc)
        s.cpu = ChildReqRespQueueAdapter(s.cpu_ifc)

        @s.tick_fl
        def logic():
            s.cpu.xtick()
            if not s.cpu.req_q.empty() and not s.cpu.resp_q.full():
                req = s.cpu.get_req()
                s.cpu.push_resp(int(req.data) + 1)


class _Requester(Model):
    """Parent sending a fixed list of requests, collecting responses."""

    def __init__(s, ifc, payloads):
        s.ifc = ParentReqRespBundle(ifc)
        s.mem = ParentReqRespQueueAdapter(s.ifc)
        s.payloads = list(payloads)
        s.responses = []
        s.done = OutPort(1)

        @s.tick_fl
        def logic():
            s.mem.xtick()
            if s.payloads and not s.mem.req_q.full():
                s.mem.push_req(XcelReqMsg.mk(1, s.payloads.pop(0)))
            if not s.mem.resp_q.empty():
                s.responses.append(int(s.mem.get_resp().data))
            s.done.next = not s.payloads and s.mem.resp_q.empty() \
                and s.mem.req_q.empty()


def test_adapters_end_to_end():
    ifc = XcelMsg()

    class Top(Model):
        def __init__(s):
            s.req = _Requester(ifc, [10, 20, 30])
            s.echo = _Echo(ifc)
            s.connect(s.req.ifc.req, s.echo.cpu_ifc.req)
            s.connect(s.echo.cpu_ifc.resp, s.req.ifc.resp)

    top = Top().elaborate()
    sim = SimulationTool(top)
    sim.reset()
    for _ in range(100):
        sim.cycle()
        if len(top.req.responses) == 3:
            break
    assert top.req.responses == [11, 21, 31]


# -- ListMemPortAdapter (blocking proxy) -----------------------------------------


class _SumDevice(Model):
    """FL device that sums a memory-resident vector on 'go'."""

    def __init__(s, mem_ifc, cpu_ifc):
        s.cpu_ifc = ChildReqRespBundle(cpu_ifc)
        s.mem_ifc = ParentReqRespBundle(mem_ifc)
        s.cpu = ChildReqRespQueueAdapter(s.cpu_ifc)
        s.vec = ListMemPortAdapter(s.mem_ifc)

        @s.tick_fl
        def logic():
            s.cpu.xtick()
            if not s.cpu.req_q.empty() and not s.cpu.resp_q.full():
                req = s.cpu.get_req()
                if req.ctrl_msg == 1:
                    s.vec.set_size(int(req.data))
                elif req.ctrl_msg == 2:
                    s.vec.set_base(int(req.data))
                elif req.ctrl_msg == 0:
                    total = int(numpy.sum(
                        numpy.array(list(s.vec), dtype=object)))
                    s.cpu.push_resp(total & 0xFFFFFFFF)


class _SumHarness(Model):
    def __init__(s):
        s.dev = _SumDevice(MemMsg(), XcelMsg())
        s.mem = TestMemory(nports=1, latency=2, size=1 << 16)
        s.connect(s.dev.mem_ifc.req, s.mem.ports[0].req)
        s.connect(s.dev.mem_ifc.resp, s.mem.ports[0].resp)


def _drive_xcel(sim, port, ctrl, data, await_resp, max_cycles=2000):
    port.req_msg.value = XcelReqMsg.mk(ctrl, data)
    port.req_val.value = 1
    for _ in range(max_cycles):
        accepted = int(port.req_val) and int(port.req_rdy)
        sim.cycle()
        if accepted:
            break
    port.req_val.value = 0
    if not await_resp:
        return None
    port.resp_rdy.value = 1
    for _ in range(max_cycles):
        if int(port.resp_val):
            value = int(port.resp_msg.value.data)
            sim.cycle()
            port.resp_rdy.value = 0
            return value
        sim.cycle()
    raise AssertionError("no response")


def test_list_mem_port_adapter_with_numpy():
    """The paper's headline FL trick: numpy operates directly on a
    proxy whose element accesses become memory transactions."""
    harness = _SumHarness().elaborate()
    sim = SimulationTool(harness)
    sim.reset()
    harness.mem.load(0x1000, [5, 10, 15, 20])
    port = harness.dev.cpu_ifc
    _drive_xcel(sim, port, 1, 4, await_resp=False)
    _drive_xcel(sim, port, 2, 0x1000, await_resp=False)
    assert _drive_xcel(sim, port, 0, 0, await_resp=True) == 50


def test_list_mem_port_adapter_write_and_slice():
    harness = _SumHarness().elaborate()
    sim = SimulationTool(harness)
    sim.reset()
    adapter = harness.dev.vec
    adapter.set_base(0x2000)
    adapter.set_size(3)
    assert len(adapter) == 3
    with pytest.raises(RuntimeError):
        adapter[0]          # blocking access outside an FL block


def test_exception_in_blocking_fl_block_propagates():
    """An exception inside a worker-thread FL block must surface in
    the simulator thread, not deadlock the handoff (regression)."""
    from repro.core import Model, SimulationTool

    class Exploding(Model):
        def __init__(s):
            s.mem_ifc = ParentReqRespBundle(MemMsg())
            s.proxy = ListMemPortAdapter(s.mem_ifc)

            @s.tick_fl
            def logic():
                raise RuntimeError("boom in FL block")

    model = Exploding().elaborate()
    sim = SimulationTool(model)
    with pytest.raises(RuntimeError, match="boom"):
        for _ in range(5):
            sim.cycle()


def test_adapter_reuse_across_go_requests():
    harness = _SumHarness().elaborate()
    sim = SimulationTool(harness)
    sim.reset()
    harness.mem.load(0x1000, [1, 2, 3])
    harness.mem.load(0x3000, [100, 200])
    port = harness.dev.cpu_ifc
    _drive_xcel(sim, port, 1, 3, await_resp=False)
    _drive_xcel(sim, port, 2, 0x1000, await_resp=False)
    assert _drive_xcel(sim, port, 0, 0, await_resp=True) == 6
    _drive_xcel(sim, port, 1, 2, await_resp=False)
    _drive_xcel(sim, port, 2, 0x3000, await_resp=False)
    assert _drive_xcel(sim, port, 0, 0, await_resp=True) == 300


# -- worker lifetime -----------------------------------------------------------


def _mvmult_tile(jit):
    from repro.accel import Tile, mvmult_data, mvmult_xcel
    from repro.proc import assemble
    tile = Tile(("rtl", "fl", "fl"), jit=jit).elaborate()
    tile.mem.load(0, assemble(mvmult_xcel(2, 4)))
    for addr, value in mvmult_data(2, 4, seed=1)[0].items():
        tile.mem.write_word(addr, value)
    sim = SimulationTool(tile)
    sim.reset()
    return tile, sim


@pytest.mark.parametrize("jit", [False, True])
def test_dropped_simulator_takes_its_worker_and_design_along(jit):
    """An idle worker used to hold its runner, so the FL block's
    closure, the model, every net and the ``SimulationTool``: each
    dropped simulator with a blocking FL tick left one thread and the
    whole design behind."""
    import gc
    import threading

    gc.collect()
    threads = threading.active_count()
    objects = []
    for _ in range(5):
        tile, sim = _mvmult_tile(jit)
        while not int(tile.proc.done):
            sim.cycle()
            assert sim.ncycles < 20000
        assert threading.active_count() == threads + 1
        del tile, sim
        gc.collect()
        assert threading.active_count() == threads
        objects.append(len(gc.get_objects()))
    # Not ``==``: the collector stops tracking tuples and dicts of
    # atoms one nesting level per collection, so the count of what the
    # first rounds cached settles downwards by a few dozen.  A round
    # that leaks leaves its whole design, thousands of objects.
    assert objects[4] <= objects[1]


def test_close_ends_a_worker_blocked_mid_invocation():
    """A worker blocked inside ``list(s.src0)`` holds its runner
    strongly; ``close()`` unwinds it from its yield point."""
    import gc
    import threading
    import weakref

    from repro.core.adapters import BlockingTickRunner

    gc.collect()
    threads = threading.active_count()
    tile, sim = _mvmult_tile(jit=False)
    runner, = (t for t in sim._ticks if isinstance(t, BlockingTickRunner))
    while runner.state != "blocked":
        sim.cycle()
        assert sim.ncycles < 20000
    assert threading.active_count() == threads + 1
    sim.close()
    assert threading.active_count() == threads
    assert runner.state == "idle"
    gone = weakref.ref(tile)
    del tile, sim, runner
    gc.collect()
    assert gone() is None
