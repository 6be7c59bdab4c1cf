"""The one SimJIT step: single-pass kernel, flop-only edge, bulk boundary.

A single-engine SimJIT top takes the same push -> C cycle -> pull step
whether it is driven by ``cycle()``, by ``run(n)`` or with compiled
instrumentation armed, and an embedded engine crosses the same port
boundary from an interpreted parent.  These tests pin that step against
the interpreter: per-cycle port values, the fixpoint residue path, wide
ports, and the re-sync after out-of-band state changes.
"""

import random

import pytest

from repro.accel import Tile, mvmult_data, mvmult_xcel
from repro.accel.kernels import Y_BASE
from repro.components import Register
from repro.core import Model, SimulationTool
from repro.core.signals import InPort, OutPort, Wire
from repro.core.simjit import SimJITRTL
from repro.net import MeshNetworkStructural, RouterRTL
from repro.proc import assemble
from tests.test_simjit_golden import tile_with_engines


def _mesh(nrouters):
    return MeshNetworkStructural(
        RouterRTL, nrouters, 256, 32, 2).elaborate()


def _jit_top(model, **kwargs):
    return SimJITRTL(model, **kwargs).specialize().elaborate()


def _outputs(model):
    return [int(port) for port in model.get_outports()]


def _drive_terminals(models, rnd):
    """The same random val/msg/rdy on every model's terminals."""
    nterm = len(models[0].in_)
    for i in range(nterm):
        val = rnd.randint(0, 1)
        msg = rnd.randrange(1 << models[0].in_[i].msg.nbits)
        rdy = rnd.randint(0, 1)
        for model in models:
            model.in_[i].val.value = val
            model.in_[i].msg.value = msg
            model.out[i].rdy.value = rdy


# -- (a) cycle() == run(n) == the event-driven interpreter ------------------


def test_mesh16_cycle_run_and_event_interpreter_agree_every_cycle():
    by_cycle = _jit_top(_mesh(16))
    by_run = _jit_top(_mesh(16))
    interp = _mesh(16)
    sims = [SimulationTool(by_cycle), SimulationTool(by_run),
            SimulationTool(interp, sched="event")]
    for sim in sims:
        sim.reset()
    models = [by_cycle, by_run, interp]
    rnd = random.Random(7)
    # Inputs are redrawn between batches and constant inside one, so a
    # run(n) batch and n cycle() calls see the same stimulus.
    for batch in (1, 1, 1, 2, 1, 5, 1, 1, 9, 1, 3, 1, 1, 17):
        _drive_terminals(models, rnd)
        for _ in range(batch):
            sims[0].cycle()
            sims[2].cycle()
            assert _outputs(by_cycle) == _outputs(interp), sims[0].ncycles
        sims[1].run(batch)
        assert _outputs(by_run) == _outputs(interp)
    assert sims[0].ncycles == sims[1].ncycles == sims[2].ncycles == 47


def test_jit_top_cycle_leaves_no_queued_comb_block():
    top = _jit_top(_mesh(4))
    sim = SimulationTool(top)
    sim.reset()
    for port in top.in_:
        port.val.value = 1          # enqueues the wrapper's jit_comb
    sim.cycle()
    assert not sim._queue
    # A settle with nothing changed is still legal and changes nothing.
    before = _outputs(top)
    sim.eval_combinational()
    assert _outputs(top) == before


def test_sched_info_names_the_kernel_shape():
    top = _jit_top(_mesh(4))
    info = SimulationTool(top).sched_info()["simjit"]
    assert info["comb"] == "single-pass"
    assert info["residue_blocks"] == 0
    assert info["in_ports"] == len(top.get_inports())
    assert info["out_ports"] == len(top.get_outports())
    # Per router: 5 x (priority, hold_val, hold_grant) + five queues.
    assert info["flop_nets"] > 0
    # Interpreted tops have no such entry.
    assert "simjit" not in SimulationTool(_mesh(4)).sched_info()


# -- (b) the fixpoint residue ----------------------------------------------


class _CombCycle(Model):
    """Two blocks that read each other's nets (a cycle at net
    granularity) with one fixpoint: a[3:0] = in, b = a[3:0] + 1,
    a[7:4] = b[3:0]."""

    def __init__(s):
        s.in_ = InPort(4)
        s.out = OutPort(8)
        s.a = Wire(8)
        s.b = Wire(5)

        @s.combinational
        def low_and_high():
            s.a.value = (s.in_.uint() & 0xF) | ((s.b.uint() & 0xF) << 4)

        @s.combinational
        def plus_one():
            s.b.value = (s.a.uint() & 0xF) + 1

        @s.combinational
        def drive_out():
            s.out.value = s.a.uint()


class _ReadsOwnNet(Model):
    """One block reads, through ``v``, the net it writes through
    ``w`` — and reads it *before* the write, so one run of the block
    is stale.  By output there is no cycle (``out`` needs ``w``, ``w``
    needs ``in_``): the block runs at two positions, one pass."""

    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.w = Wire(8)
        s.v = Wire(8)
        s.connect(s.w, s.v)

        @s.combinational
        def read_then_write():
            s.out.value = s.v.uint()
            s.w.value = (s.in_.uint() + 1) & 0xFF


class _ReadsBackOwnSignal(Model):
    """Write-then-read-back of one signal is sequential code, not
    feedback (RouterRTL's switch_logic does it): single pass."""

    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.t = Wire(8)

        @s.combinational
        def write_then_read():
            s.t.value = (s.in_.uint() + 1) & 0xFF
            s.out.value = (s.t.uint() + 1) & 0xFF


class _ReversedChain(Model):
    """Three dependent blocks declared last-first: unscheduled, each
    settle needs several passes."""

    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.x = Wire(8)
        s.y = Wire(8)

        @s.combinational
        def third():
            s.out.value = (s.y.uint() + 1) & 0xFF

        @s.combinational
        def second():
            s.y.value = (s.x.uint() ^ 0x55) & 0xFF

        @s.combinational
        def first():
            s.x.value = (s.in_.uint() + 3) & 0xFF


@pytest.mark.parametrize("factory,kwargs,comb,residue", [
    (_CombCycle, {}, "fixpoint", 2),
    (_ReadsOwnNet, {}, "single-pass", 0),
    (_ReadsBackOwnSignal, {}, "single-pass", 0),
    (_ReversedChain, {}, "single-pass", 0),
    (_ReversedChain, {"schedule": False}, "fixpoint", 3),
], ids=["cycle", "own-net", "read-back", "scheduled", "unscheduled"])
def test_residue_settles_to_the_interpreters_values(factory, kwargs, comb,
                                                    residue):
    interp = factory().elaborate()
    jit = _jit_top(factory().elaborate(), **kwargs)
    sim_i = SimulationTool(interp, sched="event")
    sim_j = SimulationTool(jit)
    info = sim_j.sched_info()["simjit"]
    assert (info["comb"], info["residue_blocks"]) == (comb, residue)
    sim_i.reset()
    sim_j.reset()
    rnd = random.Random(3)
    for _ in range(40):
        value = rnd.randrange(1 << interp.in_.nbits)
        interp.in_.value = value
        jit.in_.value = value
        sim_i.eval_combinational()
        sim_j.eval_combinational()
        assert int(jit.out) == int(interp.out)
        sim_i.cycle()
        sim_j.cycle()
        assert int(jit.out) == int(interp.out)


# -- (c) ports wider than 64 bits ------------------------------------------


def test_wide_port_crosses_push_and_pull_with_its_high_word():
    top = _jit_top(Register(72).elaborate())
    sim = SimulationTool(top)
    sim.reset()
    for value in ((0xAB << 64) | 0x0123456789ABCDEF, 1 << 71, 1 << 64,
                  (1 << 72) - 1, 0x5):
        top.in_.value = value
        sim.cycle()
        assert int(top.out) == value
        slot = top.jit_engine.slot_of(top.out)
        assert top.jit_engine.raw_get(slot) == value


def test_wide_port_of_an_embedded_engine():
    jit_reg = SimJITRTL(Register(65).elaborate()).specialize()

    class Wrapper(Model):
        def __init__(s):
            s.in_ = InPort(65)
            s.out = OutPort(65)
            s.reg_ = jit_reg
            s.connect(s.in_, s.reg_.in_)
            s.connect(s.reg_.out, s.out)

    model = Wrapper().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    for value in ((1 << 64) | 0xDEADBEEF, 1 << 64, 3):
        model.in_.value = value
        sim.cycle()
        assert int(model.out) == value


# -- (d) re-sync after out-of-band state changes ----------------------------


def _register_top():
    top = _jit_top(Register(16).elaborate())
    sim = SimulationTool(top)
    sim.reset()
    top.in_.value = 0x1234
    sim.cycle()
    assert int(top.out) == 0x1234
    return top, sim, top.jit_engine


def test_raw_set_is_seen_by_pull_and_undone_by_push():
    top, sim, eng = _register_top()
    in_slot, out_slot = eng.slot_of(top.in_), eng.slot_of(top.out)
    # A forced register value reaches the Python net at the next pull.
    eng.raw_set(out_slot, 0x00FF)
    eng.eval_comb()
    assert int(top.out) == 0x00FF
    # A forced input lasts until the next push, which stores the
    # Python-side value again although no net changed.
    eng.raw_set(in_slot, 0x0BAD)
    assert eng.raw_get(in_slot) == 0x0BAD
    sim.cycle()
    assert eng.raw_get(in_slot) == 0x1234
    assert int(top.out) == 0x1234


def test_invalidate_shadows_resyncs_every_port():
    top, sim, eng = _register_top()
    in_slot = eng.slot_of(top.in_)
    # Clobber both sides behind the engine's back.
    eng.lib.set_net(eng.inst, in_slot, 0x0BAD, 0)
    top.out._net.find()._value = 0x7777
    eng.eval_comb()
    assert eng.raw_get(in_slot) == 0x0BAD       # nothing changed: no push
    assert int(top.out) == 0x7777               # ... and nothing to pull
    eng.invalidate_shadows()
    top.in_.value = 0x1234                      # same value: no net event
    eng.eval_comb()
    assert eng.raw_get(in_slot) == 0x1234
    assert int(top.out) == 0x1234


def test_restore_checkpoint_resyncs_ports():
    top, sim, eng = _register_top()
    checkpoint = sim.save_checkpoint()
    top.in_.value = 0x4321
    sim.run(3)
    assert int(top.out) == 0x4321
    sim.restore_checkpoint(checkpoint)
    assert sim.ncycles == checkpoint.ncycles
    assert int(top.out) == 0x1234
    assert eng.raw_get(eng.slot_of(top.out)) == 0x1234
    # The restored run continues as the original would have.
    sim.cycle()
    assert int(top.out) == 0x1234
    top.in_.value = 0x0042
    sim.cycle()
    assert int(top.out) == 0x0042


# -- (e) an embedded engine in an event-driven parent ----------------------


def test_rtl_engines_inside_fl_tile_match_interpreted_twin():
    rows, cols = 2, 4
    words = assemble(mvmult_xcel(rows, cols))
    data, expected = mvmult_data(rows, cols)
    cycles = {}
    for jit in (False, True):
        # jit=True compiles nothing in a tile: the engines are spliced
        # in by hand.
        tile = (tile_with_engines if jit else Tile)(
            ("rtl", "fl", "rtl")).elaborate()
        tile.mem.load(0, words)
        for addr, value in data.items():
            tile.mem.write_word(addr, value)
        sim = SimulationTool(tile)
        if jit:
            # The engines' wrappers are event-driven blocks of the
            # parent: eval_comb per settle, tick with the as_next pull.
            assert [e["model"] for e in sim.sched_info()["simjit"][
                "engines"]] == ["top.accel", "top.arbiter"]
            assert sim.sched_info()["event_blocks"] >= 1
            assert not sim.sched_info()["kernel"]
        sim.reset()
        while not int(tile.proc.done):
            sim.cycle()
            assert sim.ncycles < 20_000
        assert [tile.mem.read_word(Y_BASE + 4 * i)
                for i in range(rows)] == expected
        cycles[jit] = sim.ncycles
    assert cycles[True] == cycles[False]


# -- (f) instrumented and uninstrumented cycle() ----------------------------


def test_instrumented_and_plain_cycle_agree():
    plain = _jit_top(_mesh(4))
    armed = _jit_top(_mesh(4))
    sim_p, sim_a = SimulationTool(plain), SimulationTool(armed)
    rec = sim_a.flight_recorder(
        signals=["routers[0].grant_val[0]", "routers[3].hold_val[0]"],
        depth=32)
    assert sim_a._jit_instr is not None and sim_a._jit_instr.active
    assert sim_p._jit_instr is None or not sim_p._jit_instr.active
    sim_p.reset()
    sim_a.reset()
    rnd = random.Random(11)
    for _ in range(60):
        _drive_terminals([plain, armed], rnd)
        sim_p.cycle()
        sim_a.cycle()
        assert _outputs(armed) == _outputs(plain)
    assert sim_a.ncycles == sim_p.ncycles == 62
    rec.window()                    # drains the compiled taps
    assert rec.nsamples == sim_a.ncycles
