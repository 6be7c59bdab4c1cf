"""Tests for the memory-over-network composition."""

import pytest

from repro.core import Model, SimulationTool
from repro.mem import MemReqMsg
from repro.net import RemoteMemSystem, RouterCL, RouterRTL
from repro.net.mem_over_net import MEM_PAYLOAD_NBITS
from repro.proc import ProcFL, assemble


class _MemDriver:
    """Blocking transactions against one client's memory interface."""

    def __init__(self, sim, port, max_cycles=400):
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
            raise AssertionError("request not accepted")
        port.req_val.value = 0
        for _ in range(self.max_cycles):
            if int(port.resp_val) and int(port.resp_rdy):
                resp = port.resp_msg.value
                sim.cycle()
                port.resp_rdy.value = 0
                return resp
            sim.cycle()
        raise AssertionError("no response over the network")

    def read(self, addr):
        return int(self.transact(MemReqMsg.mk_rd(addr)).data)

    def write(self, addr, data):
        self.transact(MemReqMsg.mk_wr(addr, data))


def _system(router_type=RouterCL, nclients=3, nrouters=4):
    system = RemoteMemSystem(
        nclients=nclients, nrouters=nrouters,
        router_type=router_type).elaborate()
    sim = SimulationTool(system)
    sim.reset()
    return system, sim


@pytest.mark.parametrize("router_type", [RouterCL, RouterRTL])
def test_remote_read_write(router_type):
    system, sim = _system(router_type)
    driver = _MemDriver(sim, system.mem_ifcs[0])
    driver.write(0x100, 0xBEEF)
    assert driver.read(0x100) == 0xBEEF
    assert system.server.read_word(0x100) == 0xBEEF


def test_memory_shared_between_clients():
    system, sim = _system()
    d0 = _MemDriver(sim, system.mem_ifcs[0])
    d2 = _MemDriver(sim, system.mem_ifcs[2])
    d0.write(0x40, 111)
    assert d2.read(0x40) == 111
    d2.write(0x44, 222)
    assert d0.read(0x44) == 222


def test_backdoor_load():
    system, sim = _system()
    system.server.load(0x200, [1, 2, 3])
    driver = _MemDriver(sim, system.mem_ifcs[1])
    assert driver.read(0x208) == 3


def test_checkpoint_holds_the_touched_pages_of_the_server():
    """The server's words are ``Pages``: a checkpoint of a default
    system holds the pages written, not its whole 1 MiB, and restores
    to the same state."""
    system, sim = _system()
    driver = _MemDriver(sim, system.mem_ifcs[0])
    driver.write(0x40, 7)
    system.server.write_word(0x3_0000, 9)
    system.server.write_word(0x5_0000, 0)        # creates no page
    cp = sim.save_checkpoint()
    idx = system._all_models.index(system.server)
    kind, image = cp.py_state[idx]["pages"]
    assert kind == "pages" and sorted(image) == [0, 0x30]
    assert "storage" not in cp.py_state[idx]
    fingerprint = cp.fingerprint()
    driver.write(0x40, 8)
    system.server.write_word(0x7_0000, 1)
    assert sim.save_checkpoint().fingerprint() != fingerprint
    sim.restore_checkpoint(cp)
    assert sim.save_checkpoint().fingerprint() == fingerprint
    assert driver.read(0x40) == 7 and sorted(system.server.pages) == [0, 0x30]


def test_concurrent_clients_all_served():
    """All clients issue requests in flight at once — ordering within
    each src/dest pair must hold and nothing may be lost."""
    system, sim = _system(nclients=3)
    ports = system.mem_ifcs
    for i, port in enumerate(ports):
        system.server.write_word(0x1000 + 4 * i, 500 + i)
        port.req_msg.value = MemReqMsg.mk_rd(0x1000 + 4 * i)
        port.req_val.value = 1
        port.resp_rdy.value = 1
    got = {}
    for _ in range(300):
        accepted = [int(p.req_val) and int(p.req_rdy) for p in ports]
        responded = [
            (i, int(p.resp_msg.value.data))
            for i, p in enumerate(ports)
            if int(p.resp_val) and int(p.resp_rdy)
        ]
        sim.cycle()
        for i, p in enumerate(ports):
            if accepted[i]:
                p.req_val.value = 0
        for i, data in responded:
            got[i] = data
            ports[i].resp_rdy.value = 0
        if len(got) == 3:
            break
    assert got == {0: 500, 1: 501, 2: 502}


def test_processor_executes_from_remote_memory():
    """A port-based FL processor fetching and loading/storing across
    the mesh — full vertical composition with zero processor changes."""

    class Top(Model):
        def __init__(s):
            s.system = RemoteMemSystem(nclients=2, nrouters=4)
            s.proc = ProcFL()
            s.connect(s.proc.imem_ifc.req, s.system.mem_ifcs[0].req)
            s.connect(s.system.mem_ifcs[0].resp, s.proc.imem_ifc.resp)
            s.connect(s.proc.dmem_ifc.req, s.system.mem_ifcs[1].req)
            s.connect(s.system.mem_ifcs[1].resp, s.proc.dmem_ifc.resp)

    words = assemble("""
        li  r1, 0x2000
        li  r2, 21
        add r2, r2, r2
        sw  r2, 0(r1)
        halt
    """)
    top = Top().elaborate()
    top.system.server.load(0, words)
    sim = SimulationTool(top)
    sim.reset()
    while not int(top.proc.done):
        sim.cycle()
        assert sim.ncycles < 20_000
    assert top.system.server.read_word(0x2000) == 42


def test_activity_report_on_network_system():
    # RTL routers so the design has combinational blocks to count.
    sim = SimulationTool(
        RemoteMemSystem(nclients=2, router_type=RouterRTL).elaborate(),
        collect_stats=True)
    sim.reset()
    driver = _MemDriver(sim, sim.model.mem_ifcs[0])
    driver.write(0x10, 1)
    report = sim.telemetry.activity()
    assert report.ncycles > 0
    assert report.num_events > 0
    assert report.events_per_cycle > 0
    assert "events/cycle" in report.summary()
    assert report.hot_blocks[0][1] >= report.hot_blocks[-1][1]
