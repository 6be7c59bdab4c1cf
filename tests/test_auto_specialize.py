"""Tests for automatic hierarchy specialization (the paper's stated
future-work feature, implemented as an extension)."""

import itertools
import os

import pytest

from repro.core import Model, SimulationTool
from repro.core.simjit import JITModel, SpecializationError, auto_specialize
from repro.accel import Tile, mvmult_data, mvmult_xcel
from repro.accel.kernels import Y_BASE
from repro.net import MeshNetworkStructural, RouterCL, RouterRTL
from repro.net.traffic import NetworkTrafficHarness
from repro.proc import assemble


def _engines(model):
    """Names of the attributes of ``model`` that hold an engine."""
    return [name for name, attr in vars(model).items()
            if isinstance(attr, JITModel)]


def test_auto_specializes_rtl_tile_components():
    tile = auto_specialize(Tile(("rtl", "rtl", "rtl")))
    # proc, two caches, accelerator, arbiter all compile; the FL magic
    # memory stays interpreted, and with it the tile that holds it.
    assert _engines(tile) == ["proc", "icache", "dcache", "accel",
                              "arbiter"]
    sim = SimulationTool(tile.elaborate())
    info = sim.sched_info()["simjit"]
    assert [(e["model"], e["class"]) for e in info["engines"]] == [
        ("top.proc", "ProcRTL"), ("top.icache", "CacheRTL"),
        ("top.dcache", "CacheRTL"), ("top.accel", "DotProductRTL"),
        ("top.arbiter", "MemArbiter")]
    assert all(e["blocks"] >= e["functions"] >= 1 and e["comb"]
               for e in info["engines"])
    assert list(info["interpreted"]) == ["top", "top.mem"]
    assert info["interpreted"]["top.mem"].startswith(
        "top.mem.logic: level 'fl'")
    # No top engine, so none of its flat kernel keys.
    assert "functions" not in info
    # ``repro-telemetry-v1`` carries the scheduling partition only, so
    # its bytes do not know which models are engines (or which blocks
    # run lowered).
    report = sim.telemetry.report()
    assert sorted(report.sched) == sorted(
        k for k in sim.sched_info() if k not in ("simjit", "lowered"))
    assert "simjit" not in report.to_json()


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


def _so_files(cache_dir):
    return sorted(f for f in os.listdir(cache_dir) if f.endswith(".so"))


def _delivery(net, seed=5):
    return NetworkTrafficHarness(net.elaborate(), seed=seed) \
        .run_uniform_random(0.2, 150).latencies


def _one_engine_mesh16(router, cache_dir):
    """``auto_specialize`` of a 16-router mesh on an empty cache: one
    engine, one ``.so``, delivery equal to the interpreted twin's.
    Returns the top engine's ``sched_info()["simjit"]``."""
    net = auto_specialize(MeshNetworkStructural(router, 16, 256, 16, 2))
    assert isinstance(net, JITModel)
    assert len(_so_files(cache_dir)) == 1
    info = SimulationTool(net.elaborate()).sched_info()["simjit"]
    assert [(e["model"], e["class"]) for e in info["engines"]] == [
        ("top", "MeshNetworkStructural")]
    assert info["interpreted"] == {}
    assert _delivery(net) == _delivery(
        MeshNetworkStructural(router, 16, 256, 16, 2))
    return info


def test_auto_specializes_whole_mesh_as_one_unit(monkeypatch, tmp_path):
    """A mesh that is translatable from the top down is one maximal
    subtree: the top is a node like any other, so the whole network
    comes back as one engine -- RouterRTL's five shared functions, not
    sixteen one-router engines -- and delivery is unchanged."""
    monkeypatch.setenv("SIMJIT_CACHE_DIR", str(tmp_path))
    assert _one_engine_mesh16(RouterRTL, tmp_path)["functions"] == 5


def test_auto_specialize_handles_cl_models(monkeypatch, tmp_path):
    """A subtree with CL blocks is SimJIT-CL's, an all-RTL one stays
    SimJIT-RTL's: the class is chosen per subtree, not per call."""
    from repro.core.simjit.specializer import _Specializer
    monkeypatch.setenv("SIMJIT_CACHE_DIR", str(tmp_path))
    built = []
    specialize = _Specializer.specialize

    def recording(self):
        built.append((type(self.orig).__name__, type(self).__name__))
        return specialize(self)

    monkeypatch.setattr(_Specializer, "specialize", recording)
    _one_engine_mesh16(RouterCL, tmp_path)

    class Mixed(Model):
        def __init__(s):
            from repro.components import Register
            from repro.mem import TestMemory
            s.mem = TestMemory(nports=1)
            s.cl = MeshNetworkStructural(RouterCL, 4, 64, 16, 2)
            s.rtl = Register(8)

    assert _engines(auto_specialize(Mixed())) == ["cl", "rtl"]
    assert built == [
        ("MeshNetworkStructural", "SimJITCL"),
        ("MeshNetworkStructural", "SimJITCL"), ("Register", "SimJITRTL")]


# The engines ``Tile(levels, jit=True)`` holds for each of the 19
# configurations with an RTL component -- what the hand-written
# per-component wrapping of PRs 2-20 compiled (55 engines).
_P, _C, _A, _ARB = ["proc"], ["icache", "dcache"], ["accel"], ["arbiter"]
_TILE_ENGINES = {
    ("rtl", "rtl", "rtl"): _P + _C + _A + _ARB,
    ("rtl", "rtl", "cl"): _P + _C + _ARB,
    ("rtl", "rtl", "fl"): _P + _C + _ARB,
    ("rtl", "cl", "rtl"): _P + _A + _ARB,
    ("rtl", "cl", "cl"): _P + _ARB,
    ("rtl", "cl", "fl"): _P + _ARB,
    ("rtl", "fl", "rtl"): _P + _A + _ARB,
    ("rtl", "fl", "cl"): _P + _ARB,
    ("rtl", "fl", "fl"): _P + _ARB,
    ("cl", "rtl", "rtl"): _C + _A + _ARB,
    ("cl", "rtl", "cl"): _C + _ARB,
    ("cl", "rtl", "fl"): _C + _ARB,
    ("cl", "cl", "rtl"): _A + _ARB,
    ("cl", "fl", "rtl"): _A + _ARB,
    ("fl", "rtl", "rtl"): _C + _A + _ARB,
    ("fl", "rtl", "cl"): _C + _ARB,
    ("fl", "rtl", "fl"): _C + _ARB,
    ("fl", "cl", "rtl"): _A + _ARB,
    ("fl", "fl", "rtl"): _A + _ARB,
}


def test_tile_jit_compiles_the_rtl_components(monkeypatch, tmp_path):
    """``jit=True`` is the traversal restricted to RTL: CL and FL
    components stay in Python, and the 55 engines are four designs."""
    monkeypatch.setenv("SIMJIT_CACHE_DIR", str(tmp_path))
    assert sorted(_TILE_ENGINES) == sorted(
        c for c in itertools.product(("fl", "cl", "rtl"), repeat=3)
        if "rtl" in c)
    for levels, engines in _TILE_ENGINES.items():
        assert _engines(Tile(levels, jit=True)) == engines, levels
    assert sum(map(len, _TILE_ENGINES.values())) == 55
    assert len(_so_files(tmp_path)) == 4
    # Nothing to compile is not an error.
    assert _engines(Tile(("cl", "fl", "cl"), jit=True)) == ["arbiter"]


def test_dut_builders_wrap_exactly_the_component():
    from repro.verif import make_cache_dut, make_proc_dut
    cache = make_cache_dut("j", "rtl", jit=True).model
    proc = make_proc_dut("j", "rtl", assemble("halt"), jit=True).model
    assert _engines(cache) == ["cache"] and _engines(proc) == ["proc"]
    for level in ("cl", "fl"):
        with pytest.raises(ValueError, match="require level='rtl'"):
            make_cache_dut("j", level, jit=True)
        with pytest.raises(ValueError, match="require level='rtl'"):
            make_proc_dut("j", level, assemble("halt"), jit=True)


def test_auto_specialize_rejects_elaborated_model():
    net = MeshNetworkStructural(RouterRTL, 4, 64, 16, 2).elaborate()
    with pytest.raises(SpecializationError):
        auto_specialize(net)


def test_simulating_a_consumed_model_names_the_wrapper():
    """The trap ``auto_specialize``'s docstring names: drop the return
    value of a whole-tree specialization and the Python original still
    elaborates and runs, on ports the wrapper has adopted."""
    from repro.core import SimulationError

    net = MeshNetworkStructural(RouterRTL, 4, 64, 16, 2)
    wrapper = auto_specialize(net)
    assert wrapper is not net
    with pytest.raises(SimulationError, match="simulate that wrapper"):
        SimulationTool(net)
    assert "/simjit " in repr(SimulationTool(wrapper.elaborate()))


def test_auto_specialize_leaves_fl_leaves_alone():
    from repro.mem import TestMemory

    class Top(Model):
        def __init__(s):
            s.mem = TestMemory(nports=1)

    top = Top()
    auto_specialize(top)
    assert not isinstance(top.mem, JITModel)


def test_submodel_in_a_nested_list_stays_interpreted():
    """Elaboration and the engine's port adoption follow lists
    ``MAX_LIST_DEPTH`` deep; the traversal looked one level deep, took
    the parent of ``[[TestMemory]]`` for translatable and died in the
    specializer on the FL block it had not seen."""
    from repro.components import Register
    from repro.core.signals import InPort, OutPort
    from repro.mem import TestMemory

    class Top(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.mems = [[TestMemory(nports=1)]]
            s.regs = [[[Register(8)], [Register(8)]]]
            s.connect(s.in_, s.regs[0][0][0].in_)
            s.connect(s.regs[0][0][0].out, s.regs[0][1][0].in_)
            s.connect(s.regs[0][1][0].out, s.out)

    jit = auto_specialize(Top())
    assert not isinstance(jit, JITModel)
    assert not isinstance(jit.mems[0][0], JITModel)
    assert isinstance(jit.regs[0][0][0], JITModel)
    assert isinstance(jit.regs[0][1][0], JITModel)
    tops = [Top().elaborate(), jit.elaborate()]
    sims = [SimulationTool(top) for top in tops]
    info = sims[1].sched_info()["simjit"]
    assert [e["model"] for e in info["engines"]] == [
        "top.regs[0][0][0]", "top.regs[0][1][0]"]
    assert list(info["interpreted"]) == ["top", "top.mems[0][0]"]
    for sim in sims:
        sim.reset()
    for cycle in range(20):
        for top, sim in zip(tops, sims):
            top.in_.value = (cycle * 37) & 0xFF
            sim.cycle()
        assert int(tops[0].out) == int(tops[1].out)
    assert int(tops[1].out) == (18 * 37) & 0xFF


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
    assert isinstance(net, JITModel)
    assert len(lowerings) == 52 and set(lowerings.values()) == {1}


def test_walk_that_fails_from_the_top_is_lowered_once(lowerings):
    """The FL accelerator and memory refuse the tile by level, before
    the walk from the top lowers anything; the descent then lowers
    each RTL component once, when its turn comes."""
    tile = Tile(("rtl", "rtl", "fl"), jit=True)
    assert _engines(tile) == ["proc", "icache", "dcache", "arbiter"]
    info = SimulationTool(tile.elaborate()).sched_info()["simjit"]
    assert len(lowerings) == sum(e["blocks"] for e in info["engines"])
    assert set(lowerings.values()) == {1}


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
    elaborates it; the ``.so`` cache key must not know: the mesh it
    compiles is byte for byte the mesh compiled by hand."""
    from repro.core.simjit import SimJITRTL
    emitted = []
    compile_ = SimJITRTL._compile

    def recording_compile(self, c_source):
        emitted.append(c_source)
        return compile_(self, c_source)

    monkeypatch.setattr(SimJITRTL, "_compile", recording_compile)
    auto_specialize(MeshNetworkStructural(RouterRTL, 16, 256, 16, 2))
    spec = SimJITRTL(
        MeshNetworkStructural(RouterRTL, 16, 256, 16, 2).elaborate())
    spec.specialize()
    assert emitted == [spec.c_source, spec.c_source]
