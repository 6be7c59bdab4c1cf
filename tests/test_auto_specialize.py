"""Tests for automatic hierarchy specialization (the paper's stated
future-work feature, implemented as an extension)."""

import itertools
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InPort, Model, OutPort, SimulationTool
from repro.core.elaboration import ElaborationError, read_connections
from repro.core.simjit import (JITModel, SpecializationError, auto,
                               auto_specialize)
from repro.core.simjit.auto import LOWERED, kept_blocks
from repro.accel import Tile, mvmult_data, mvmult_xcel
from repro.accel.kernels import Y_BASE
from repro.mem import CacheCL, CacheFL, CacheRTL, MemMsg
from repro.net import (MeshNetworkStructural, ResilientLink, RouterCL,
                       RouterRTL)
from repro.net.traffic import NetworkTrafficHarness
from repro.proc import ProcCL, ProcFL, ProcRTL, assemble
from repro.resilience import ResilienceWarning
from tests.test_generated_blocks import (BITS_WIDTHS, WIDTHS, _BitsBody,
                                         _Body, designs)
from tests.test_scheduling import load_generated


def _engines(model):
    """Names of the attributes of ``model`` that hold an engine."""
    return [name for name, attr in vars(model).items()
            if isinstance(attr, JITModel)]


class Latch(Model):
    """A register the CPython rung keeps as its closure: pygen refuses
    the name of its local, so no parent leaves it interpreted."""

    def __init__(s, nbits):
        s.in_ = InPort(nbits)
        s.out = OutPort(nbits)

        @s.tick_rtl
        def seq_logic():
            _v = s.in_.value
            s.out.next = _v


def test_auto_specializes_rtl_tile_components():
    tile = auto_specialize(Tile(("rtl", "rtl", "rtl")))
    # Every RTL component is lowered and statically scheduled, the
    # accelerator's control and the arbiter too (their comb blocks are a
    # cycle of blocks, not of signals, which the scheduler splits by
    # output): nothing compiles, and each says why; the FL magic memory
    # stays interpreted, and with it the tile that holds it.
    assert _engines(tile) == []
    sim = SimulationTool(tile.elaborate())
    info = sim.sched_info()["simjit"]
    assert info["engines"] == []
    assert info["interpreted"] == {
        "top": info["interpreted"]["top.mem"],
        "top.proc": LOWERED, "top.icache": LOWERED, "top.dcache": LOWERED,
        "top.accel": LOWERED, "top.arbiter": LOWERED,
        "top.mem": info["interpreted"]["top.mem"]}
    assert info["interpreted"]["top.mem"].startswith(
        "top.mem.logic: level 'fl'")
    # No top engine, so none of its flat kernel keys.
    assert "functions" not in info
    assert sim.sched_info()["kernel"]
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
            from repro.mem import TestMemory
            s.mem = TestMemory(nports=1)
            s.cl = MeshNetworkStructural(RouterCL, 4, 64, 16, 2)
            s.rtl = Latch(8)

    assert _engines(auto_specialize(Mixed())) == ["cl", "rtl"]
    assert built == [
        ("MeshNetworkStructural", "SimJITCL"),
        ("MeshNetworkStructural", "SimJITCL"), ("Latch", "SimJITRTL")]


def test_tile_jit_compiles_the_rtl_components(monkeypatch, tmp_path):
    """``jit=True`` is the traversal restricted to RTL, compiling only
    the components the CPython rung would not run lowered and
    statically scheduled: in no tile is there one, so the 27 tiles
    compile nothing, every RTL component says why not, and every tile
    runs the kernel."""
    monkeypatch.setenv("SIMJIT_CACHE_DIR", str(tmp_path))
    for levels in itertools.product(("fl", "cl", "rtl"), repeat=3):
        tile = Tile(levels, jit=True)
        assert _engines(tile) == [], levels
        info = SimulationTool(tile.elaborate()).sched_info()
        assert info["kernel"], levels
        interpreted = info["simjit"]["interpreted"]
        for name, level in zip(("proc", "icache", "dcache", "accel"),
                               levels[:2] + levels[1:]):
            if level == "rtl":
                assert interpreted[f"top.{name}"] == LOWERED, levels
        assert interpreted["top.arbiter"] == LOWERED, levels
    assert _so_files(tmp_path) == []


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
    from repro.mem import TestMemory

    class Top(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.mems = [[TestMemory(nports=1)]]
            s.regs = [[[Latch(8)], [Latch(8)]]]
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


# -- every block body is lowered once ------------------------------------------


def test_specializable_subtree_is_lowered_once(lowerings):
    """The walk that decides a subtree is specializable and the
    specializer both bind the blocks to their bodies: one lowering per
    body, not per block."""
    net = auto_specialize(MeshNetworkStructural(RouterRTL, 4, 64, 16, 2))
    assert isinstance(net, JITModel)
    info = net.jit_engine.kernel_info
    assert (info["blocks"], info["bodies"]) == (52, 5)
    assert len(lowerings) == 5 and set(lowerings.values()) == {1}


def test_walk_that_fails_from_the_top_is_lowered_once(lowerings):
    """The FL memory refuses the tile by level, before the walk from
    the top lowers anything; asking which blocks the CPython rung keeps
    then lowers every RTL body of the tile once (the two caches' once
    between them), and the simulator binds the same bodies.  Under the
    FL parent over a cycle of signals, the engines of that cycle and of
    the block pygen refuses bind the bodies that question lowered,
    without lowering them again."""
    tile = Tile(("rtl", "rtl", "rtl"), jit=True)
    assert _engines(tile) == []
    SimulationTool(tile.elaborate())
    assert set(lowerings.values()) == {1}
    assert any(name.startswith("CacheRTL.") for name in lowerings)
    assert any(name.startswith("DotProductCtrl.") for name in lowerings)
    lowerings.clear()
    top = auto_specialize(FLParent())
    engines = SimulationTool(top.elaborate()).sched_info()["simjit"][
        "engines"]
    assert [e["model"] for e in engines] == [
        "top.ping", "top.pong", "top.odd"]
    assert set(lowerings.values()) == {1}
    assert len(lowerings) > sum(e["bodies"] for e in engines)


def test_failed_subtree_hands_its_lowerings_to_the_descent(lowerings):
    """The first child fails translation in its second grandchild: the
    descent binds the bodies the failed walk lowered, and only the
    block outside the subset — which has no body to remember — is
    translated again by each walk that reaches it."""
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
            s.first = Latch(8)
            s.opaque = Opaque()
            s.last = Latch(8)
            s.connect(s.in_, s.first.in_)
            s.connect(s.first.out, s.opaque.in_)
            s.connect(s.opaque.out, s.last.in_)

            @s.combinational
            def drive():
                s.out.value = s.last.out

    class Top(Model):
        def __init__(s):
            s.group = Group()
            s.tail = Latch(8)
            s.connect(s.group.out, s.tail.in_)

    top = auto_specialize(Top())
    group = top.group
    assert [isinstance(m, JITModel)
            for m in (group, group.first, group.opaque, group.last,
                      top.tail)] == [False, True, False, True, True]
    # Three Latches are one body; the walks from top, group and
    # group.opaque, and the question which blocks the CPython rung
    # keeps, each reach Opaque.logic.
    assert {name.split(".")[-1]: count
            for name, count in lowerings.items()} == {
        "seq_logic": 1, "drive": 1, "logic": 4}

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


def test_cl_mesh_is_one_body_lowered_once(lowerings):
    """A ``tick_cl`` block is a block body too: the walk that decides
    and the specializer bind all sixteen routers to one lowering of
    ``router_logic`` (it was two per router)."""
    net = auto_specialize(MeshNetworkStructural(RouterCL, 16, 256, 32, 2))
    info = net.jit_engine.kernel_info
    assert (info["blocks"], info["functions"], info["bodies"]) == (16, 1, 1)
    assert lowerings == {"RouterCL.__init__.<locals>.router_logic": 1}
    ref = MeshNetworkStructural(RouterCL, 16, 256, 32, 2).elaborate()
    runs = [NetworkTrafficHarness(net.elaborate(), seed=3)
            .run_uniform_random(0.2, 100),
            NetworkTrafficHarness(ref, sim=SimulationTool(ref, sched="event"),
                                  seed=3).run_uniform_random(0.2, 100)]
    assert runs[0].latencies == runs[1].latencies and runs[0].ejected > 0


def test_a_block_whose_bind_does_not_reproduce_stays_interpreted(
        monkeypatch, lowerings):
    """The bind is checked against the lowering it was printed from; a
    body that fails the check refuses its block by name, everywhere it
    is asked for, and is lowered once all the same."""
    from repro.core import bodies

    class Inc(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)

            @s.combinational
            def logic():
                s.out.value = s.in_ + 1

    class Top(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.reg = Latch(8)
            s.inc = Inc()
            s.connect(s.in_, s.reg.in_)
            s.connect(s.reg.out, s.inc.in_)
            s.connect(s.inc.out, s.out)

    auto_specialize(Latch(8))       # its body is made before the patch
    monkeypatch.setattr(bodies, "_same", lambda got, want: False)
    top = auto_specialize(Top())
    assert isinstance(top.reg, JITModel)
    assert not isinstance(top.inc, JITModel)
    reason = "top.inc.logic: bind does not reproduce the lowering " \
             "(a hole differs)"
    tops = [Top().elaborate(), top.elaborate()]
    # A comb block without a body is event-driven, and with it this
    # design has nothing to schedule: sched="static" says so.
    with pytest.warns(ResilienceWarning, match="had no effect"):
        sims = [SimulationTool(tops[0], sched="event"),
                SimulationTool(tops[1], sched="static")]
    assert sims[1].sched_info()["simjit"]["interpreted"] == {
        "top": reason, "top.inc": reason}
    assert sims[1].sched_info()["lowered"]["kept"]["top.inc.logic"] == \
        reason.split(": ", 1)[1]
    assert lowerings[Inc.__qualname__ + ".__init__.<locals>.logic"] == 1
    for sim in sims:
        sim.reset()
    for cycle in range(10):
        for t in tops:
            t.in_.value = 30 * cycle
        for sim in sims:
            sim.cycle()
        assert int(tops[1].out) == int(tops[0].out)
    assert int(tops[1].out) == (30 * 9 + 1) & 0xFF


# -- engines that win ---------------------------------------------------------


class Ping(Model):
    """Forwards ``in_`` with ``back``'s low bits to its peer and outputs
    what comes back: one comb block, half of a cross-module
    combinational cycle of signals (``fwd`` needs ``back``, which needs
    ``fwd``) that settles (``back``'s low bits are 0, so ``fwd`` =
    ``in_``)."""

    def __init__(s):
        s.in_ = InPort(8)
        s.back = InPort(8)
        s.fwd = OutPort(8)
        s.out = OutPort(8)

        @s.combinational
        def logic():
            s.fwd.value = s.in_ | (s.back & 0x0F)
            s.out.value = s.back + 3


class Pong(Model):
    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)

        @s.combinational
        def logic():
            s.out.value = s.in_ & 0xF0


class Odd(Model):
    """A comb block with a body whose Python form pygen refuses (the
    name of its local)."""

    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)

        @s.combinational
        def logic():
            _n = s.in_ + 7
            s.out.value = _n


class FLParent(Model):
    """An FL parent over ping <-> pong (a combinational cycle through
    two siblings), a register (acyclic, lowered) and an ``Odd``."""

    def __init__(s):
        from repro.components import Register
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.ping, s.pong, s.reg, s.odd = Ping(), Pong(), Register(8), Odd()
        s.connect(s.in_, s.ping.in_)
        s.connect(s.ping.fwd, s.pong.in_)
        s.connect(s.pong.out, s.ping.back)
        s.connect(s.ping.out, s.reg.in_)
        s.connect(s.reg.out, s.odd.in_)
        s.connect(s.odd.out, s.out)
        s.seen = 0

        @s.tick_fl
        def count():
            s.seen += int(s.out)


def test_under_an_fl_parent_only_what_the_interpreter_keeps_compiles():
    """The comb cycle's two siblings compile, and so does the block
    pygen refuses; the register, which the CPython rung lowers and
    schedules statically, stays interpreted and says so.  The design
    computes what its interpreted twin computes."""
    top = auto_specialize(FLParent())
    assert _engines(top) == ["ping", "pong", "odd"]
    tops = [FLParent().elaborate(), top.elaborate()]
    sims = [SimulationTool(tops[0], sched="event"), SimulationTool(tops[1])]
    info = sims[1].sched_info()["simjit"]
    assert [e["model"] for e in info["engines"]] == [
        "top.ping", "top.pong", "top.odd"]
    assert all(e["blocks"] >= e["functions"] >= 1 and e["comb"]
               for e in info["engines"])
    assert info["interpreted"] == {
        "top": "top.count: level 'fl'; allowed: ['cl', 'rtl']",
        "top.reg": LOWERED}
    for sim in sims:
        sim.reset()
    for cycle in range(20):
        for t in tops:
            t.in_.value = (cycle * 37) & 0xFF
        for sim in sims:
            sim.cycle()
        assert int(tops[1].out) == int(tops[0].out)
        assert tops[1].seen == tops[0].seen
    assert int(tops[1].out) == ((19 * 37 & 0xF0) + 10) & 0xFF


def _structure(structure, skip):
    """A :class:`Structure` as ids: its nets of two or more signals
    not in ``skip``, its slice copies and its ties."""
    nets = [[id(sig) for sig in group if id(sig) not in skip]
            for group in structure.groups()]
    return ([net for net in nets if len(net) > 1],
            [(id(src), id(dst)) for src, dst in structure.copies],
            [(id(end), const) for end, const in structure.ties])


def _read_one_way(top):
    """One structural reading of un-elaborated ``top``: the nets, slice
    copies and ties read before elaboration are elaboration's (clock
    and reset aside, which elaboration adds), per model they are what
    translation reads from that model, and ``kept_blocks`` is what the
    simulator keeps (a blocking FL tick is a ``tick_fl`` block to
    ``kept_blocks``: which FL ticks block only the simulator knows).
    Returns the kept blocks by name."""
    models = list(dict.fromkeys(auto._subtree(top)))
    owner = {id(sig): m for m in models for sig in m.get_signals()}

    def parent_of(sig):
        return owner.get(id(sig))

    before = read_connections(models, parent_of)
    local = [_structure(read_connections([m], parent_of), ())
             for m in models]
    kept = kept_blocks(top)
    top.elaborate()
    kept = {blk.name: reason for blk, reason in kept.items()}
    assert top._all_models == models
    clocks = {id(sig) for m in models for sig in (m.clk, m.reset)}
    nets = {}
    for sig in top._all_signals:
        if id(sig) not in clocks:
            nets.setdefault(id(sig._net), []).append(id(sig))
    nets_before, *copies_ties = _structure(before, clocks)
    assert sorted(map(sorted, nets_before)) == sorted(
        sorted(net) for net in nets.values() if len(net) > 1)
    assert copies_ties == [
        [(id(src), id(dst)) for src, dst in top._connectors],
        [(id(end), const) for end, const in top._const_ties]]
    for model, want in zip(models, local):
        # What translation reads for the model's module.
        got = _structure(read_connections([model]), clocks)
        assert got == want, model.full_name()
    with warnings.catch_warnings():     # a design with nothing static
        warnings.simplefilter("ignore", ResilienceWarning)
        sim_kept = SimulationTool(top, sched="static").sched_info()[
            "lowered"]["kept"]
    assert kept == {name: "tick_fl block" if why.startswith(
        "blocking FL tick") else why for name, why in sim_kept.items()}
    return kept


def test_kept_blocks_are_the_interpreters_kept_blocks():
    """``kept_blocks`` reads the simulator's answer off the design
    before elaboration, and the design's structure is read one way
    before and after it (:func:`_read_one_way`): on the synthetic
    parent, whose reasons are pinned, and on mesh4 RTL and CL, every
    tile, the caches, the processors and the resilient link."""
    assert _read_one_way(FLParent()) == {
        "top.ping.logic":
            "event partition: in a combinational cycle through top.ping.fwd",
        "top.pong.logic":
            "event partition: in a combinational cycle through top.pong.out",
        "top.odd.logic": "the block's name '_n' is one the lowered "
                         "function uses",
        "top.count": "tick_fl block"}
    for router in (RouterRTL, RouterCL):
        _read_one_way(MeshNetworkStructural(router, 4, 256, 32, 2))
    for levels in itertools.product(("fl", "cl", "rtl"), repeat=3):
        kept = _read_one_way(Tile(levels))
        assert not any(name.endswith(("ctrl_comb", "arb_comb"))
                       for name in kept), levels
    for cache in (CacheFL, CacheCL, CacheRTL):
        _read_one_way(cache(MemMsg(), MemMsg()))
    for proc in (ProcFL, ProcCL, ProcRTL):
        _read_one_way(proc())
    for level in ("fl", "cl", "rtl"):
        _read_one_way(ResilientLink(payload_nbits=16, level=level))


def test_refusals_name_the_block_by_its_path():
    """A translator's refusal met before elaboration (``auto_specialize``
    asks every block for its body first) says only where and why, ``(line
    N): why``; the reports name the block by its path.  So the refused
    subtrees of the RTL resilient link and the simulator's kept blocks
    give each block the same reason, ``top.fwd.chan_seq (line 9): …``,
    and no reason names a model's class (which is what a model's full
    name reads before elaboration)."""
    top = auto_specialize(ResilientLink(payload_nbits=16, level="rtl"))
    info = SimulationTool(top.elaborate()).sched_info()
    interpreted, kept = info["simjit"]["interpreted"], info["lowered"]["kept"]
    named = {why.split(" (line ")[0]: why for why in interpreted.values()}
    assert set(named) == {"top.sender.sender_seq", "top.fwd.chan_seq",
                          "top.rev.chan_seq", "top.receiver.receiver_seq"}
    assert set(named) < set(kept)
    for name, why in named.items():
        assert kept[name] == why, name
    for why in [*interpreted.values(), *kept.values()]:
        for cls in ("senderrtl.", "receiverrtl.", "unreliablechannel."):
            assert cls not in why, why


@settings(derandomize=True, deadline=None, max_examples=8)
@given(design=st.sampled_from([_Body, _BitsBody]).flatmap(
    lambda body: designs(body, BITS_WIDTHS if body is _BitsBody
                         else WIDTHS)))
def test_generated_designs_are_read_one_way(design):
    """:func:`_read_one_way` over the generated-blocks corpus: two
    generated instances under one structural parent."""
    _read_one_way(load_generated(design.source)["Pair"](
        design.ka, design.kb))


class _Narrow(Model):
    """A 4-bit port connected to a ``Register(8)`` beside an FL memory:
    refused at the top, so its structure is read before elaboration."""

    def __init__(s):
        from repro.components import Register
        from repro.mem import TestMemory
        s.x = InPort(4)
        s.reg, s.mem = Register(8), TestMemory()
        s.connect(s.x, s.reg.in_)


def test_a_malformed_design_is_refused_by_name_before_elaboration():
    """The one reader checks widths before elaboration too (so
    ``auto_specialize`` raises), and the error names the ports as
    elaboration does."""
    with pytest.raises(ElaborationError, match="connected widths differ: "
                       "InPort x is 4b but InPort in_ is 8b"):
        auto_specialize(_Narrow()).elaborate()
