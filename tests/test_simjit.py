"""SimJIT tests: specialized models must be cycle-exact drop-ins.

The core property (paper Section IV): for any supported model, the
C-compiled simulation produces bit-identical port behaviour to the
interpreted simulation, cycle by cycle, under arbitrary stimulus.
"""

import random

import pytest

from repro.core import Model, SimulationTool
from repro.core.signals import InPort, OutPort
from repro.core.simjit import SimJITCL, SimJITRTL, SpecializationError
from repro.components import (
    IntPipelinedMultiplier,
    NormalQueue,
    RoundRobinArbiter,
    run_src_sink_test,
)
from repro.mem import CacheRTL, MemMsg
from repro.net import MeshNetworkStructural, NetworkTrafficHarness, RouterRTL


def assert_cycle_exact(factory, ncycles=200, seed=0, specializer=SimJITRTL):
    """Drive both the interpreted and specialized model with identical
    random inputs; compare every output port every cycle."""
    interp = factory().elaborate()
    jit = specializer(factory().elaborate()).specialize().elaborate()

    sim_i = SimulationTool(interp)
    sim_j = SimulationTool(jit)
    sim_i.reset()
    sim_j.reset()

    in_i = [p for p in interp.get_inports()
            if p.name not in ("clk", "reset")]
    in_j = [p for p in jit.get_inports()
            if p.name not in ("clk", "reset")]
    out_i = interp.get_outports()
    out_j = jit.get_outports()
    assert len(in_i) == len(in_j)
    assert len(out_i) == len(out_j)

    rng = random.Random(seed)
    for cycle in range(ncycles):
        for pi, pj in zip(in_i, in_j):
            value = rng.getrandbits(pi.nbits)
            pi.value = value
            pj.value = value
        sim_i.cycle()
        sim_j.cycle()
        for po_i, po_j in zip(out_i, out_j):
            assert int(po_i) == int(po_j), (
                f"cycle {cycle}: {po_i.name} differs "
                f"(interp {int(po_i):#x} vs jit {int(po_j):#x})"
            )


# -- component-level equivalence -------------------------------------------------


def test_register_equivalent():
    from repro.components import Register
    assert_cycle_exact(lambda: Register(8))


def test_muxreg_equivalent():
    from tests.test_core_smoke import MuxReg
    assert_cycle_exact(lambda: MuxReg(8, 4))


def test_counter_equivalent():
    from repro.components import Counter
    assert_cycle_exact(lambda: Counter(4))


def test_normal_queue_equivalent():
    assert_cycle_exact(lambda: NormalQueue(4, 16))


def test_multiplier_equivalent():
    assert_cycle_exact(lambda: IntPipelinedMultiplier(32, 4))


def test_arbiter_equivalent():
    assert_cycle_exact(lambda: RoundRobinArbiter(8))


def test_cache_rtl_equivalent():
    # Random val/rdy wiggling exercises the FSM heavily even without a
    # real memory behind it.
    assert_cycle_exact(lambda: CacheRTL(MemMsg(), MemMsg(), 4),
                       ncycles=300)


def test_router_rtl_equivalent():
    assert_cycle_exact(lambda: RouterRTL(0, 4, 64, 16, 2), ncycles=300)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mesh_equivalent_random_seeds(seed):
    assert_cycle_exact(
        lambda: MeshNetworkStructural(RouterRTL, 4, 64, 16, 2),
        ncycles=150, seed=seed,
    )


def test_mesh_traffic_statistics_match():
    """End-to-end: identical traffic through interpreted and JIT
    meshes delivers identical packet statistics."""
    def build():
        return MeshNetworkStructural(RouterRTL, 16, 256, 32, 2).elaborate()

    interp_stats = NetworkTrafficHarness(build(), seed=7) \
        .run_uniform_random(0.3, 150)
    jit = SimJITRTL(build()).specialize().elaborate()
    jit_stats = NetworkTrafficHarness(jit, seed=7) \
        .run_uniform_random(0.3, 150)
    assert interp_stats.injected == jit_stats.injected
    assert interp_stats.ejected == jit_stats.ejected
    assert interp_stats.latencies == jit_stats.latencies


# -- composition: a JIT model inside an interpreted design -------------------------


def test_jit_queue_composes_with_interpreted_harness():
    queue = NormalQueue(2, 16).elaborate()
    jit_queue = SimJITRTL(queue).specialize()
    msgs = list(range(1, 20))
    run_src_sink_test(jit_queue, 16, msgs, msgs, src_interval=1,
                      sink_interval=2)


def test_jit_component_inside_parent_model():
    """A JIT-specialized register inside a bigger interpreted model."""
    from repro.components import Register

    jit_reg = SimJITRTL(Register(8).elaborate()).specialize()

    class Wrapper(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.reg_ = jit_reg
            s.connect(s.in_, s.reg_.in_)
            s.connect(s.reg_.out, s.out)

    model = Wrapper().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    model.in_.value = 99
    sim.cycle()
    assert model.out == 99


def test_two_jit_instances_have_independent_state():
    """Two instances of the same compiled model must not share state
    (regression: identical C source -> one shared library -> the
    instances must still get separate state structs)."""
    from repro.components import Register

    jit_a = SimJITRTL(Register(8).elaborate()).specialize()
    jit_b = SimJITRTL(Register(8).elaborate()).specialize()

    class Two(Model):
        def __init__(s):
            s.a_in = InPort(8)
            s.b_in = InPort(8)
            s.a_out = OutPort(8)
            s.b_out = OutPort(8)
            s.a = jit_a
            s.b = jit_b
            s.connect(s.a_in, s.a.in_)
            s.connect(s.b_in, s.b.in_)
            s.connect(s.a.out, s.a_out)
            s.connect(s.b.out, s.b_out)

    model = Two().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    model.a_in.value = 11
    model.b_in.value = 22
    sim.cycle()
    assert model.a_out == 11
    assert model.b_out == 22


# -- error handling and overheads ----------------------------------------------------


def test_fl_model_rejected():
    from repro.mem import TestMemory
    mem = TestMemory().elaborate()
    with pytest.raises(SpecializationError, match="fl"):
        SimJITRTL(mem).specialize()


def test_cl_model_rejected_by_rtl_specializer():
    from repro.net import RouterCL
    router = RouterCL(0, 4, 64, 16, 2).elaborate()
    with pytest.raises(SpecializationError):
        SimJITRTL(router).specialize()


def test_overheads_recorded():
    from repro.components import Register
    spec = SimJITRTL(Register(8).elaborate(), cache=False)
    spec.specialize()
    for phase in ("elab", "veri", "cgen", "comp", "wrap", "simc"):
        assert phase in spec.overheads
    assert spec.overheads["comp"] > 0


def test_compile_cache_hit():
    from repro.components import Register
    first = SimJITRTL(Register(12).elaborate())
    first.specialize()
    second = SimJITRTL(Register(12).elaborate())
    second.specialize()
    assert second.overheads["cache_hit"]
    assert second.overheads["comp"] < max(0.5, first.overheads["comp"])


def test_generated_source_is_c(tmp_path):
    from repro.components import Register
    spec = SimJITRTL(Register(8).elaborate())
    spec.specialize()
    assert "run_comb_blocks" in spec.c_source
    assert "run_tick_blocks" in spec.c_source
    assert spec.lib_path.endswith(".so")


# -- engine lifetime and restore ----------------------------------------------


class _CountingLib:
    """A compiled library that counts the frees made through it."""

    def __init__(self, lib):
        self._lib = lib
        self.freed = []

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def free_instance(self, inst):
        self.freed.append("inst")
        self._lib.free_instance(inst)

    def obs_free(self, obs):
        self.freed.append("obs")
        self._lib.obs_free(obs)


def test_engine_and_recorder_memory_is_freed_with_its_owner(monkeypatch):
    """``inst_t`` goes with its ``SimJITEngine`` and ``obs_t`` with the
    ``KernelInstrumentation`` that armed it.  Nothing used to call
    ``free_instance``/``obs_free``: a dropped mesh16 engine leaked
    0.2 MiB, 1.95 MiB with a compiled flight recorder."""
    import gc

    from repro.components import Register
    from repro.core.simjit import instrument
    libs = []
    load = SimJITRTL._load

    def counting_load(self, lib_path):
        libs.append(_CountingLib(load(self, lib_path)))
        return libs[-1]

    # ``obs_t`` is the runtime's, which every design shares.
    runtime = _CountingLib(instrument._runtime())
    monkeypatch.setattr(SimJITRTL, "_load", counting_load)
    monkeypatch.setattr(instrument, "_runtime", lambda: runtime)
    top = SimJITRTL(Register(8).elaborate()).specialize().elaborate()
    sim = SimulationTool(top)
    sim.reset()
    sim.flight_recorder(["out"], depth=4)
    sim.run(3)
    assert sim._jit_instr.active
    lib, = libs
    assert lib.freed == runtime.freed == []
    del sim, top
    gc.collect()
    assert (lib.freed, runtime.freed) == (["inst"], ["obs"])


def test_restore_raw_refuses_another_designs_blob():
    """``load_inst`` copies ``sizeof(inst_t)`` bytes from whatever it
    is handed."""
    from repro.components import Register
    small = SimJITRTL(Register(8).elaborate()).specialize().jit_engine
    mesh = SimJITRTL(MeshNetworkStructural(
        RouterRTL, 4, 64, 16, 2).elaborate()).specialize().jit_engine
    blob = small.snapshot_raw()
    small.restore_raw(blob)
    with pytest.raises(ValueError) as exc:
        mesh.restore_raw(blob)
    assert str(len(blob)) in str(exc.value)
    assert str(len(mesh.snapshot_raw())) in str(exc.value)


# -- what a warm build pays for ---------------------------------------------------


def test_second_build_in_a_process_parses_no_declarations(monkeypatch):
    """The interface declarations go through pycparser once per
    process; a later engine is one ``dlopen`` (it used to be a
    ``cffi.FFI().cdef()`` of the same text per engine, 7-8 ms each,
    and a second throw-away ``cffi.FFI()`` for the engine's buffers)."""
    import cffi

    from repro.verif import make_mesh_dut
    first = make_mesh_dut("jit", "rtl", nrouters=4, jit=True)
    made = []
    init, cdef = cffi.FFI.__init__, cffi.FFI.cdef

    def counting_init(self, *args, **kwargs):
        made.append("FFI")
        init(self, *args, **kwargs)

    def counting_cdef(self, *args, **kwargs):
        made.append("cdef")
        return cdef(self, *args, **kwargs)

    monkeypatch.setattr(cffi.FFI, "__init__", counting_init)
    monkeypatch.setattr(cffi.FFI, "cdef", counting_cdef)
    dut = make_mesh_dut("jit", "rtl", nrouters=4, jit=True)
    assert made == []
    # The mesh is one engine; the two builds share the process-wide
    # declarations and each ``dlopen`` is a library object of its own.
    engines = [first.model.jit_engine, dut.model.jit_engine]
    assert engines[0]._ffi is engines[1]._ffi
    assert engines[0].lib is not engines[1].lib


_TWO_DRIVERS = [
    ("int64_t answer(void);", "int64_t answer(void) { return 42; }"),
    ("int64_t width_of(void *p, int slot);",
     "int64_t width_of(void *p, int slot)"
     " { (void)p; return net_width[slot]; }"),
]


def test_each_extra_cdef_has_its_own_declarations():
    """``extra_cdef`` (the all-C traffic driver of the Fig. 14 c-ref
    series) is part of what the process-wide declarations are keyed
    by."""
    from repro.components import Register
    libs = []
    for cdef, source in _TWO_DRIVERS + [("", "")]:
        spec = SimJITRTL(Register(8).elaborate(),
                         extra_cdef=cdef, extra_c=source)
        libs.append(spec.specialize().jit_engine)
    answer, width, plain = libs
    assert answer.lib.answer() == 42
    assert width.lib.width_of(width.inst, width.slot_of(
        width.model.out)) == 8
    for engine, missing in ((answer, "width_of"), (width, "answer"),
                            (plain, "answer"), (plain, "width_of")):
        with pytest.raises(AttributeError):
            getattr(engine.lib, missing)
    assert len({id(e._ffi) for e in libs}) == 3


def test_engine_does_not_keep_its_specializer():
    """``engine.slot_of`` was the specializer's bound method, which
    pinned the ``_Specializer`` and its whole ``c_source`` for the
    engine's life."""
    import weakref

    from repro.components import Register
    from repro.core.probe import NET, Probe
    spec = SimJITRTL(Register(8).elaborate())
    top = spec.specialize().elaborate()
    gone = weakref.ref(spec)
    del spec
    assert gone() is None
    engine = top.jit_engine
    sim = SimulationTool(top)
    slot = engine.slot_of(top.out)
    assert Probe.resolve(sim, "out").address(engine) == (NET, slot, 0)
    sim.reset()
    top.in_.value = 0x5A
    sim.cycle()
    assert engine.raw_get(slot) == 0x5A


_FIRST_LOAD = """
from repro.components import Register
from repro.core.simjit import SimJITRTL
SimJITRTL(Register(8).elaborate()).specialize()
"""


def test_first_load_in_a_process_prints_nothing():
    """cffi's ``emit_python_code`` announces the module it generates."""
    import os
    import subprocess
    import sys
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _FIRST_LOAD], env=env, check=True,
        capture_output=True, timeout=120)
    assert (done.stdout, done.stderr) == (b"", b"")


def test_library_is_unloaded_with_its_last_engine():
    """One ``ffi`` for the process must not mean one ``dlopen`` list
    for the process: a dropped design's ``.so`` leaves the address
    space."""
    import gc

    from repro.components import Register

    def mapped(path):
        with open("/proc/self/maps") as maps:
            return any(path in line for line in maps)

    spec = SimJITRTL(Register(24).elaborate())
    top = spec.specialize()
    path = spec.lib_path
    assert mapped(path)
    del spec, top
    gc.collect()
    assert not mapped(path)


# -- the SimJIT runtime -------------------------------------------------------


def test_simulating_tiles_never_loads_the_runtime(monkeypatch):
    """Only compiled instrumentation and the compiled test bench need
    the runtime: the nineteen ``Tile(levels, jit=True)`` built and run
    to ``done`` load none, and a design's C defines neither."""
    from repro.accel import Tile, mvmult_data, mvmult_xcel
    from repro.accel.kernels import Y_BASE
    from repro.core.simjit import instrument, specializer
    from repro.proc import assemble
    from tests.test_simjit_golden import TILE_LEVELS

    loads = []

    def no_runtime():
        loads.append("runtime")
        raise AssertionError("the SimJIT runtime was loaded")

    for module in (specializer, instrument):
        monkeypatch.setattr(module, "_runtime", no_runtime)
    words = assemble(mvmult_xcel(2, 4))
    data, expected = mvmult_data(2, 4, seed=1)
    for levels in TILE_LEVELS:
        tile = Tile(levels, jit=True).elaborate()
        tile.mem.load(0, words)
        for addr, value in data.items():
            tile.mem.write_word(addr, value)
        sim = SimulationTool(tile)
        sim.reset()
        while not int(tile.proc.done):
            sim.cycle()
            assert sim.ncycles < 100_000, levels
        assert [tile.mem.read_word(Y_BASE + 4 * i)
                for i in range(2)] == expected, levels
    assert loads == []


def test_runtime_compiles_once_per_process_without_a_cache(monkeypatch,
                                                           gcc_runs):
    """``REPRO_SIMJIT_CACHE=0`` compiles every build anew, and the
    runtime once per process: two benches and two compiled recorders
    are one runtime."""
    monkeypatch.setenv("REPRO_SIMJIT_CACHE", "0")
    for _ in range(2):
        net = SimJITRTL(MeshNetworkStructural(
            RouterRTL, 4, 256, 32, 2).elaborate()).specialize().elaborate()
        harness = NetworkTrafficHarness(net, seed=1)
        assert harness.run_uniform_random(0.3, 30).driver == "compiled"
        recorder = harness.sim.flight_recorder(["in_[0].val"], depth=8)
        assert recorder._cidx is not None
        harness.sim.run(5)
    assert gcc_runs == ["design", "runtime", "design"]
