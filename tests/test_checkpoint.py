"""Checkpoint/restore tests: round-trip equals uninterrupted run.

Each DUT (cache, 16-router mesh, processor) is driven by a stimulus
that is a pure function of ``sim.ncycles``, so rewinding the cycle
counter automatically rewinds the stimulus: after ``restore`` the
replayed tail must match the original tail observation-for-observation
and the final checkpoints must fingerprint identically.  The property
is asserted on the event-driven, static-scheduled, and SimJIT
substrates.
"""

import contextlib

import pytest

from repro import (
    CheckpointRing,
    Model,
    OutPort,
    SEUInjector,
    SimulationTool,
    Wire,
)
from repro.core.simjit import auto_specialize
from repro.mem import CacheCL, MemMsg, MemReqMsg, TestMemory
from repro.net import MeshNetworkStructural, RouterRTL
from repro.proc import ProcCL, ProcRTL, assemble
from repro.proc.harness import ProcHarness
from repro.resilience import CheckpointError, ResilienceWarning
from repro.verif import RNG


# -- DUT builders: (model, sim, drive(cycle), observe()) ------------------------------


def _simulate_cl(harness, sched):
    """A CL design has nothing to schedule statically, and says so."""
    with (pytest.warns(ResilienceWarning, match="had no effect")
          if sched == "static" else contextlib.nullcontext()):
        return SimulationTool(harness, sched=sched)


class _CacheHarness(Model):
    def __init__(s, cache):
        s.cache = cache
        s.mem = TestMemory(nports=1, latency=2, size=1 << 16)
        s.connect(s.cache.mem_ifc.req, s.mem.ports[0].req)
        s.connect(s.cache.mem_ifc.resp, s.mem.ports[0].resp)


def _build_cache(sched="auto", jit=False):
    h = _CacheHarness(CacheCL(MemMsg(), MemMsg(), nlines=4))
    if jit:
        h = auto_specialize(h)
    h.elaborate()
    sim = _simulate_cl(h, sched)
    port = h.cache.cpu_ifc

    def drive(cycle):
        port.resp_rdy.value = 1
        if cycle % 2 == 0:
            port.req_val.value = 1
            if (cycle // 2) % 3 == 0:
                port.req_msg.value = MemReqMsg.mk_wr(
                    (cycle * 4) % 256, cycle & 0xFFFF)
            else:
                # Stride-64 reads force conflict evictions.
                port.req_msg.value = MemReqMsg.mk_rd((cycle * 64) % 4096)
        else:
            port.req_val.value = 0

    def observe():
        return (int(port.req_rdy), int(port.resp_val),
                int(port.resp_msg))

    return h, sim, drive, observe


def _build_mesh16(sched="auto", jit=False, nrouters=16):
    net = MeshNetworkStructural(RouterRTL, nrouters, 256, 32, 2)
    if jit:
        net = auto_specialize(net)
    net.elaborate()
    sim = SimulationTool(net, sched=sched)
    dest_lo, _ = net.msg_type.field_slice("dest")
    pay_lo, _ = net.msg_type.field_slice("payload")

    def drive(cycle):
        for i in range(nrouters):
            port = net.in_[i]
            if (cycle + i) % 4 < 2:
                port.val.value = 1
                dest = (i * 7 + cycle) % nrouters
                port.msg.value = (dest << dest_lo) | (
                    ((cycle << 4) | i) & 0xFFFF) << pay_lo
            else:
                port.val.value = 0
            net.out[i].rdy.value = 0 if (cycle + i) % 5 == 0 else 1

    def observe():
        return tuple(
            (int(net.out[i].val), int(net.out[i].msg))
            for i in range(nrouters))

    return net, sim, drive, observe


_LOOP_PROGRAM = assemble("""
    addi r1, r0, 1
    addi r2, r0, 0
    addi r3, r0, 0x100
loop:
    add  r2, r2, r1
    sw   r2, 0(r3)
    lw   r4, 0(r3)
    addi r3, r3, 4
    beq  r0, r0, loop
""")


def _build_proc(sched="auto", jit=False, level="cl"):
    proc_cls = {"cl": ProcCL, "rtl": ProcRTL}[level]
    proc = proc_cls()
    if jit:
        from repro.core.simjit import SimJITRTL
        proc = SimJITRTL(proc.elaborate()).specialize()
    h = ProcHarness(proc, mem_latency=1)
    h.elaborate()
    h.mem.load(0, _LOOP_PROGRAM)
    simulate = _simulate_cl if level == "cl" else SimulationTool
    sim = simulate(h, sched=sched)

    def drive(cycle):
        pass                       # self-running

    def observe():
        return h.line_trace()

    return h, sim, drive, observe


# -- the round-trip property ----------------------------------------------------------


def _step(sim, drive, observe):
    drive(sim.ncycles)
    sim.eval_combinational()
    sim.cycle()
    return observe()


def _roundtrip(build, total=120, at=60):
    """save at ``at``, run to ``total``, restore, re-run: the replayed
    tail and the final fingerprint must match the original run."""
    m, sim, drive, observe = build()
    sim.reset()
    for _ in range(at):
        _step(sim, drive, observe)
    cp = sim.save_checkpoint()
    assert cp.ncycles == sim.ncycles

    tail1 = [_step(sim, drive, observe) for _ in range(total - at)]
    fp1 = sim.save_checkpoint().fingerprint()

    sim.restore_checkpoint(cp)
    assert sim.ncycles == cp.ncycles
    tail2 = [_step(sim, drive, observe) for _ in range(total - at)]
    fp2 = sim.save_checkpoint().fingerprint()

    assert tail1 == tail2
    assert fp1 == fp2

    # ...and the whole dance perturbed nothing: a fresh simulator that
    # never checkpoints produces the identical tail and end state.
    m0, sim0, drive0, observe0 = build()
    sim0.reset()
    ref = [_step(sim0, drive0, observe0) for _ in range(total)]
    assert ref[at:] == tail1
    assert sim0.save_checkpoint().fingerprint() == fp1


CASES = [
    ("event", False),
    ("static", False),
    ("auto", True),            # SimJIT-specialized submodels
]


@pytest.mark.parametrize("sched,jit", CASES)
def test_cache_roundtrip(sched, jit):
    _roundtrip(lambda: _build_cache(sched, jit))


@pytest.mark.parametrize("sched,jit", CASES)
def test_mesh16_roundtrip(sched, jit):
    _roundtrip(lambda: _build_mesh16(sched, jit))


@pytest.mark.parametrize("sched,jit", CASES)
def test_proc_roundtrip(sched, jit):
    level = "rtl" if jit else "cl"
    _roundtrip(lambda: _build_proc(sched, jit, level), total=100, at=50)


def test_proc_rtl_roundtrip_interpreted():
    _roundtrip(lambda: _build_proc("static", False, "rtl"),
               total=100, at=50)


# -- RNG streams ----------------------------------------------------------------------


def test_checkpoint_restores_tracked_rng_streams():
    class _Sink(Model):
        def __init__(s):
            s.out = OutPort(16)
            s.acc = Wire(16)

            @s.tick_rtl
            def seq():
                if s.reset:
                    s.acc.next = 0
                    s.out.next = 0
                else:
                    s.out.next = s.acc.value

    m = _Sink().elaborate()
    sim = SimulationTool(m)
    rng = sim.track_rng(RNG(77).fork("stimulus"))
    sim.reset()

    def step():
        m.acc.value = rng.getrandbits(16)
        sim.cycle()
        return int(m.out)

    for _ in range(10):
        step()
    cp = sim.save_checkpoint()
    tail1 = [step() for _ in range(10)]
    sim.restore_checkpoint(cp)
    tail2 = [step() for _ in range(10)]
    # Without RNG state in the checkpoint the streams would diverge.
    assert tail1 == tail2


def test_restore_rejects_rng_stream_mismatch():
    m, sim, drive, observe = _build_cache()
    sim.reset()
    cp = sim.save_checkpoint()
    sim.track_rng(RNG(1))
    with pytest.raises(CheckpointError, match="RNG"):
        sim.restore_checkpoint(cp)


# -- telemetry ------------------------------------------------------------------------


def test_checkpoint_rewinds_counters_and_histograms():
    net, sim, drive, observe = _build_mesh16(nrouters=4)
    sim.reset()
    for _ in range(40):
        _step(sim, drive, observe)
    cp = sim.save_checkpoint()
    at_save = sim.telemetry.counters()
    for _ in range(40):
        _step(sim, drive, observe)
    assert sim.telemetry.counters() != at_save
    sim.restore_checkpoint(cp)
    assert sim.telemetry.counters() == at_save


# -- refusals -------------------------------------------------------------------------


def test_checkpoint_refuses_blocking_fl_adapters():
    from repro.accel import DotProductFL, XcelMsg
    from repro.mem import MemMsg as _MemMsg

    class _Harness(Model):
        def __init__(s):
            s.accel = DotProductFL(_MemMsg(), XcelMsg())
            s.mem = TestMemory(nports=1, latency=1, size=1 << 16)
            s.connect(s.accel.mem_ifc.req, s.mem.ports[0].req)
            s.connect(s.accel.mem_ifc.resp, s.mem.ports[0].resp)

    h = _Harness().elaborate()
    sim = SimulationTool(h)
    sim.reset()
    with pytest.raises(CheckpointError, match="blocking FL"):
        sim.save_checkpoint()


def test_restore_rejects_foreign_checkpoint():
    _, sim_cache, _, _ = _build_cache()
    net, sim_mesh, _, _ = _build_mesh16(nrouters=4)
    sim_cache.reset()
    sim_mesh.reset()
    cp = sim_cache.save_checkpoint()
    with pytest.raises(CheckpointError, match="net"):
        sim_mesh.restore_checkpoint(cp)


# -- checkpoint ring + replay under fault injection -----------------------------------


def test_checkpoint_ring_keeps_interval_snapshots():
    m, sim, drive, observe = _build_mesh16(nrouters=4)
    ring = CheckpointRing(sim, interval=16, keep=3)
    sim.reset()
    for _ in range(100):
        _step(sim, drive, observe)
    assert len(ring.checkpoints) == 3
    cycles = [cp.ncycles for cp in ring.checkpoints]
    assert cycles == sorted(cycles)
    assert all(cp.ncycles % 16 == 0 for cp in ring.checkpoints)
    target = cycles[-1] + 5
    assert ring.nearest(target).ncycles == cycles[-1]
    assert ring.nearest(cycles[0] - 1) is None


def test_ring_rejects_bad_interval():
    m, sim, _, _ = _build_mesh16(nrouters=4)
    with pytest.raises(ValueError, match="interval"):
        CheckpointRing(sim, interval=0)


def test_replay_faulted_run_from_nearest_checkpoint():
    """Deterministic replay: restore the nearest ring checkpoint and
    re-run — the injector hooks re-fire on the same cycles, so the
    replayed observations are identical to the original timeline."""

    def build():
        net, sim, drive, observe = _build_mesh16(nrouters=4)
        SEUInjector("routers[1].priority[2]", p=0.05, seed=9).install(sim)
        SEUInjector("routers[2].hold_val[0]", cycles=[30, 55],
                    bit=0).install(sim)
        return net, sim, drive, observe

    net, sim, drive, observe = build()
    ring = CheckpointRing(sim, interval=16, keep=4)
    sim.reset()
    timeline = {}
    for _ in range(80):
        cyc = sim.ncycles
        timeline[cyc] = _step(sim, drive, observe)
    end_fp = sim.save_checkpoint().fingerprint()

    # "failure" observed around cycle 70: rewind to the nearest
    # checkpoint and replay only the suffix.
    cp = ring.nearest(70)
    assert cp is not None and cp.ncycles <= 70
    sim.restore_checkpoint(cp)
    replayed = {}
    while sim.ncycles in timeline:
        cyc = sim.ncycles
        replayed[cyc] = _step(sim, drive, observe)
    assert replayed == {c: timeline[c] for c in replayed}
    assert replayed                      # actually replayed something
    assert sim.save_checkpoint().fingerprint() == end_fp
