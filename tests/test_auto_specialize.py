"""Tests for automatic hierarchy specialization (the paper's stated
future-work feature, implemented as an extension)."""

import pytest

from repro.core import Model, SimulationTool
from repro.core.simjit import JITModel, SpecializationError, auto_specialize
from repro.accel import Tile, mvmult_data, mvmult_xcel
from repro.accel.kernels import Y_BASE
from repro.net import MeshNetworkStructural, RouterCL, RouterRTL
from repro.net.traffic import NetworkTrafficHarness
from repro.proc import assemble


def test_auto_specializes_rtl_tile_components():
    tile = Tile(("rtl", "rtl", "rtl"))
    auto_specialize(tile)
    stats = tile._auto_specialize_stats
    # proc, two caches, accelerator, arbiter all compile; the FL magic
    # memory stays interpreted.
    assert sorted(stats["specialized"]) == sorted(
        ["ProcRTL", "CacheRTL", "CacheRTL", "DotProductRTL",
         "MemArbiter"])
    assert "TestMemory" in stats["interpreted"]
    assert isinstance(tile.proc, JITModel)
    assert isinstance(tile.icache, JITModel)
    assert not isinstance(tile.mem, JITModel)


def test_auto_specialized_tile_is_cycle_exact():
    words = assemble(mvmult_xcel(2, 8))
    data, expected = mvmult_data(2, 8)

    def run(tile):
        tile.elaborate()
        tile.mem.load(0, words)
        for addr, value in data.items():
            tile.mem.write_word(addr, value)
        sim = SimulationTool(tile)
        sim.reset()
        while not int(tile.proc.done):
            sim.cycle()
            assert sim.ncycles < 100_000
        return sim.ncycles, [
            tile.mem.read_word(Y_BASE + 4 * i) for i in range(2)
        ]

    interp_cycles, interp_result = run(Tile(("rtl", "rtl", "rtl")))
    jit_cycles, jit_result = run(
        auto_specialize(Tile(("rtl", "rtl", "rtl"))))
    assert interp_result == jit_result == expected
    assert interp_cycles == jit_cycles


def test_auto_specializes_whole_mesh_as_one_unit():
    """A pure-RTL mesh is one maximal subtree: each router (with its
    queues) specializes; alternatively the whole mesh could.  Here the
    mesh is reached through list attributes, so routers specialize
    individually — delivery must be unchanged."""
    net = MeshNetworkStructural(RouterRTL, 4, 64, 16, 2)
    auto_specialize(net)
    assert all(isinstance(r, JITModel) for r in net.routers)
    stats = NetworkTrafficHarness(net.elaborate(), seed=5) \
        .run_uniform_random(0.2, 150)
    reference = NetworkTrafficHarness(
        MeshNetworkStructural(RouterRTL, 4, 64, 16, 2).elaborate(),
        seed=5).run_uniform_random(0.2, 150)
    assert stats.latencies == reference.latencies


def test_auto_specialize_handles_cl_models():
    net = MeshNetworkStructural(RouterCL, 4, 64, 16, 2)
    auto_specialize(net)
    assert all(isinstance(r, JITModel) for r in net.routers)


def test_auto_specialize_rejects_elaborated_model():
    net = MeshNetworkStructural(RouterRTL, 4, 64, 16, 2).elaborate()
    with pytest.raises(SpecializationError):
        auto_specialize(net)


def test_auto_specialize_leaves_fl_leaves_alone():
    from repro.mem import TestMemory

    class Top(Model):
        def __init__(s):
            s.mem = TestMemory(nports=1)

    top = Top()
    auto_specialize(top)
    assert not isinstance(top.mem, JITModel)


# -- every block is lowered once -------------------------------------------------


@pytest.fixture
def lowerings(monkeypatch):
    """``{block function: times lowered}``, counted where every
    ``ast_ir.lower`` call ends up, whichever module made it."""
    from repro.core import ast_ir
    counts = {}
    translate = ast_ir.BlockTranslator.translate

    def counting_translate(self):
        counts[self.func] = counts.get(self.func, 0) + 1
        return translate(self)

    monkeypatch.setattr(ast_ir.BlockTranslator, "translate",
                        counting_translate)
    return counts


def test_specializable_subtree_is_lowered_once(lowerings):
    """The walk that decides a subtree is specializable hands its IRs
    to the specializer (they used to be dropped and lowered again)."""
    net = auto_specialize(MeshNetworkStructural(RouterRTL, 4, 64, 16, 2))
    assert all(isinstance(r, JITModel) for r in net.routers)
    assert len(lowerings) == 52 and set(lowerings.values()) == {1}


def test_failed_subtree_hands_its_lowerings_to_the_descent(lowerings):
    """The first child fails translation in its second grandchild: the
    descent reuses what the failed walk lowered, the block outside the
    subset included, and lowers only what the walk never reached."""
    from repro.components import Register
    from repro.core.signals import InPort, OutPort

    class Opaque(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            table = {0: 1}

            @s.combinational
            def logic():
                s.out.value = table.get(int(s.in_), 0)

    class Group(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.first = Register(8)
            s.opaque = Opaque()
            s.last = Register(8)
            s.connect(s.in_, s.first.in_)
            s.connect(s.first.out, s.opaque.in_)
            s.connect(s.opaque.out, s.last.in_)

            @s.combinational
            def drive():
                s.out.value = s.last.out

    class Top(Model):
        def __init__(s):
            s.group = Group()
            s.tail = Register(8)
            s.connect(s.group.out, s.tail.in_)

    top = auto_specialize(Top())
    group = top.group
    assert [isinstance(m, JITModel)
            for m in (group, group.first, group.opaque, group.last,
                      top.tail)] == [False, True, False, True, True]
    # drive, Opaque.logic and three Registers' blocks.
    assert len(lowerings) == 5 and set(lowerings.values()) == {1}

    sim = SimulationTool(top.elaborate())
    sim.reset()
    group.in_.value = 0
    sim.run(4)
    assert int(top.tail.out) == 1


def test_ir_lowered_before_elaboration_emits_the_same_c(monkeypatch):
    """``auto_specialize`` lowers a subtree before the specializer
    elaborates it; the ``.so`` cache key must not know."""
    from repro.core.simjit import SimJITRTL
    emitted = []
    compile_ = SimJITRTL._compile

    def recording_compile(self, c_source):
        emitted.append(c_source)
        return compile_(self, c_source)

    monkeypatch.setattr(SimJITRTL, "_compile", recording_compile)
    auto_specialize(MeshNetworkStructural(RouterRTL, 4, 64, 16, 2))
    direct = []
    for router in MeshNetworkStructural(RouterRTL, 4, 64, 16, 2).routers:
        spec = SimJITRTL(router.elaborate())
        spec.specialize()
        direct.append(spec.c_source)
    assert emitted[:4] == direct and len(set(direct)) == 4
