"""SimJIT tests: specialized models must be cycle-exact drop-ins.

The core property (paper Section IV): for any supported model, the
C-compiled simulation produces bit-identical port behaviour to the
interpreted simulation, cycle by cycle, under arbitrary stimulus.
"""

import random

import pytest

from repro.core import Model, SimulationTool
from repro.core.ast_ir import TranslationError
from repro.core.signals import InPort, OutPort
from repro.core.simjit import (JITModel, SimJITCL, SimJITRTL,
                               SpecializationError, auto_specialize)
from repro.core.translation import translate
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


# -- Bits widths: one rule, every backend ----------------------------------


class _WidthProbe(Model):
    """Three expressions whose width each printer once decided for
    itself: ``Bits`` arithmetic on the 5-bit ``a`` wraps at 5 bits
    before it reaches the wider outputs."""

    def __init__(s):
        s.a, s.n = InPort(5), InPort(4)
        s.o, s.p, s.q = OutPort(8), OutPort(8), OutPort(16)

        @s.combinational
        def comb():
            s.o.value = s.a.value + 30
            s.p.value = ~s.a.value
            s.q.value = s.a.value << s.n


def test_bits_wrap_reads_alike_on_every_backend():
    columns = [{"sched": "event"},
               {"sched": "static", "collect_stats": True},
               {"sched": "static"}]
    models = [_WidthProbe().elaborate() for _ in columns]
    sims = [SimulationTool(m, **kw) for m, kw in zip(models, columns)]
    assert sims[2].sched_info()["lowered"]["blocks"] == 1
    models.append(SimJITRTL(_WidthProbe().elaborate()).specialize()
                  .elaborate())
    sims.append(SimulationTool(models[-1]))
    assert "/simjit " in repr(sims[-1])
    for model, sim in zip(models, sims):
        model.a.value, model.n.value = 5, 6
        sim.cycle()
        assert (int(model.o), int(model.p), int(model.q)) == (3, 26, 0), sim
    # Verilog sizes an expression by its context: the masks are sized.
    verilog = translate(_WidthProbe().elaborate())
    for line in ("o = ((a + 30) & 5'h1f);", "p = ((~a) & 5'h1f);",
                 "q = (((n < 5)) ? ((a << n) & 5'h1f) : 0);"):
        assert line in verilog


class _WideDivide(Model):
    def __init__(s):
        s.a, s.b = InPort(64), InPort(70)
        s.x, s.y, s.z = OutPort(64), OutPort(64), OutPort(70)

        @s.combinational
        def comb():
            s.x.value = s.a.value // 2
            s.y.value = s.a.uint() // 3
            s.z.value = s.b.value % 1000


class _HoleDivide(Model):
    def __init__(s, k):
        s.a, s.y = InPort(64), OutPort(64)
        s.k = k

        @s.combinational
        def comb():
            s.y.value = s.a.uint() // s.k


def test_wide_floor_division_is_unsigned_in_c():
    """``//`` and ``%`` of a value 64 bits or wider divide as ``u128``:
    through ``int64_t``, a value at or above 2**63 went negative."""
    interp = _WideDivide().elaborate()
    jit = SimJITRTL(_WideDivide().elaborate()).specialize().elaborate()
    for model in (interp, jit):
        sim = SimulationTool(model)
        model.a.value, model.b.value = 2**63 + 4, 2**69 + 7
        sim.cycle()
        assert (int(model.x), int(model.y), int(model.z)) == (
            4611686018427387906, 3074457345618258604, 719), sim


class _IntOfWide(Model):
    """Ints made from 64-bit ``Bits`` values: ``int()`` / ``.uint()``
    change the type, not the value, which may be 2**63 or more."""

    def __init__(s):
        s.a, s.b, s.x, s.y = InPort(64), InPort(64), OutPort(64), OutPort(64)

        @s.combinational
        def comb():
            s.x.value = int(s.a.value + 1) // 3
            s.y.value = (s.a.value ^ s.b.value).uint() % 1000


class _IntOfWideByNegative(Model):
    def __init__(s):
        s.a, s.x = InPort(64), OutPort(64)

        @s.combinational
        def comb():
            s.x.value = int(s.a.value + 1) // -2


def test_int_of_wide_bits_divides_unsigned_or_refuses_in_c():
    """The typer alone decides that C divides as ``u128``: an int made
    from a 64-bit ``Bits`` value is that wide too, and a divisor that
    may be negative is a refusal, not a ``u128`` of it."""
    interp = _IntOfWide().elaborate()
    jit = SimJITRTL(_IntOfWide().elaborate()).specialize().elaborate()
    for model in (interp, jit):
        sim = SimulationTool(model)
        model.a.value, model.b.value = 2**63 + 4, 7
        sim.cycle()
        assert (int(model.x), int(model.y)) == (
            (2**63 + 5) // 3, (2**63 + 3) % 1000), sim
    with pytest.raises(TranslationError, match="may be negative"):
        SimJITRTL(_IntOfWideByNegative().elaborate()).specialize()
    model = _IntOfWideByNegative().elaborate()
    sim = SimulationTool(model, sched="static")
    model.a.value = 5
    sim.cycle()
    assert int(model.x) == (6 // -2) & ((1 << 64) - 1)


def test_wide_floor_division_by_an_int_hole_is_refused():
    """A constant hole may be negative in a sibling: C refuses the
    body, Python keeps the closure (and the division floors)."""
    with pytest.raises(TranslationError, match="may be negative"):
        SimJITRTL(_HoleDivide(3).elaborate()).specialize()
    model = _HoleDivide(-3).elaborate()
    sim = SimulationTool(model, sched="static")
    assert "may be negative" in sim.sched_info()["lowered"]["kept"][
        "top.comb"]
    model.a.value = 7
    sim.cycle()
    assert int(model.y) == (7 // -3) & ((1 << 64) - 1)


class _Undecided(Model):
    """``m`` is ``Bits`` on one path and an int on the other: ``m + 1``
    wraps on one path only, so no printer can decide its width."""

    def __init__(s):
        s.a, s.c, s.o = InPort(8), InPort(1), OutPort(8)

        @s.combinational
        def comb():
            m = s.a.value if s.c else s.a.uint()
            s.o.value = m + 1


class _HoldsUndecided(Model):
    def __init__(s):
        s.x = _Undecided()
        s.a, s.c, s.o = InPort(8), InPort(1), OutPort(8)
        s.connect(s.a, s.x.a)
        s.connect(s.c, s.x.c)
        s.connect(s.x.o, s.o)


def test_undecided_types_refuse_c_and_verilog_loudly():
    """C and Verilog used to compute such a body wide; now they refuse
    it, and ``auto_specialize`` keeps the subtree interpreted, saying
    why."""
    why = "Bits on one path and an int"
    with pytest.raises(TranslationError, match=why):
        SimJITRTL(_Undecided().elaborate()).specialize()
    with pytest.raises(TranslationError, match=why):
        translate(_Undecided().elaborate())
    top = auto_specialize(_HoldsUndecided())
    sim = SimulationTool(top.elaborate())
    assert why in sim.sched_info()["simjit"]["interpreted"]["top.x"]
    top.a.value, top.c.value = 255, 1
    sim.cycle()
    assert int(top.o) == 0        # Bits(8) 255 + 1, the closure's value


class _WideLocal(Model):
    """``x`` holds an 80-bit ``Bits``; C's locals are ``int64_t``."""

    def __init__(s):
        s.a, s.o = InPort(80), OutPort(80)

        @s.combinational
        def comb():
            x = s.a.value
            s.o.value = x


class _WideIntLocal(Model):
    """``x`` is an int made from an 80-bit read."""

    def __init__(s):
        s.a, s.o = InPort(80), OutPort(80)

        @s.combinational
        def comb():
            x = s.a.uint() + 1
            s.o.value = x


class _NarrowLocals(Model):
    """Locals that only compare or slice a wide read stay in C."""

    def __init__(s):
        s.a, s.o = InPort(80), OutPort(80)

        @s.combinational
        def comb():
            hit = s.a.value == 5
            low = s.a[0:8]
            top = 1 if s.a.value else 0
            s.o.value = low + hit + top


class _Grows(Model):
    """40-bit reads, and a value past ``int64_t`` made of them: the
    leaf-width rule let C truncate it (``o`` read 0).  At 70 bits, a
    value that fits but is made of one outside C's ``u128`` (past it,
    or negative where C compares).  An ``int64_t`` shifted by an amount
    that may reach 64 is undefined in C (x86 shifted 129 by ``2**39``
    as by 0)."""

    def __init__(s, kind):
        nbits = 70 if kind.startswith("u128") else 40
        s.a, s.b, s.o = InPort(nbits), InPort(nbits), OutPort(nbits)
        if kind == "u128-shift":
            @s.combinational
            def comb():
                x = (s.a.uint() << 70) >> 80
                s.o.value = x
        elif kind == "u128-product":
            @s.combinational
            def comb():
                x = (s.a.uint() * s.b.uint()) >> 80
                s.o.value = x
        elif kind == "u128-write":
            @s.combinational
            def comb():
                s.o.value = (s.a.uint() * s.b.uint()) >> 70
        elif kind == "u128-negative":
            @s.combinational
            def comb():
                s.o.value = 1 if s.a.uint() - s.b.uint() - 1 < 0 else 0
        elif kind == "u128-cond":
            @s.combinational
            def comb():
                if (s.a.uint() << 70) >> 138:
                    s.o.value = 1
                else:
                    s.o.value = 0
        elif kind == "shift-amount":
            @s.combinational
            def comb():
                x = (s.a.uint() >> 32) | 1
                s.o.value = x >> s.b.uint()
        elif kind == "product":
            @s.combinational
            def comb():
                p = s.a.uint() * s.b.uint()
                s.o.value = p >> 40
        elif kind == "shift":
            @s.combinational
            def comb():
                t = s.a.uint() << 30
                s.o.value = t >> 35
        else:
            s.acc = 0

            @s.tick_cl
            def tick():
                s.acc = s.a.uint() << 30
                s.o.next = s.acc >> 35


class _NarrowedWideRead(Model):
    """``x`` is a 70-bit read shifted into 60 bits: it fits C's local.
    ``p``'s product passes C's ``u128``, but the write keeps only what
    C's wrapping arithmetic keeps right, its low 70 bits."""

    def __init__(s):
        s.a, s.o, s.p = InPort(70), OutPort(70), OutPort(70)

        @s.combinational
        def comb():
            x = s.a.uint() >> 10
            s.o.value = x
            s.p.value = s.a.uint() * s.a.uint()


class _Holds(Model):
    def __init__(s, x):
        s.x = x
        for name in ("a", "b", "o"):
            if hasattr(x, name):
                port = getattr(x, name)
                setattr(s, name, type(port)(port.nbits))
                s.connect(getattr(s, name), port)


def test_wide_locals_are_refused_in_c():
    """A local given a value that may need 64 bits or more: C truncated
    it (``(1 << 70) | 5`` read ``0x5``).  C refuses the body loudly,
    ``auto_specialize`` says why, and the CPython rung still lowers it;
    locals that only compare or slice such a value still compile.  The
    range pass judges the value, not its leaves: a product or a shift
    of 40-bit reads, into a local or CL state, is refused, and a 70-bit
    read shifted into 60 bits compiles.  So is a value that fits but is
    made of one outside C's ``u128`` (a shift or product of 70-bit
    reads shifted back, a negative difference compared), into a local,
    a signal or a condition, and a shift of an ``int64_t`` by an amount
    that may reach 64, which C leaves undefined."""
    why = "local 'x' may hold 64 bits or more"
    value = (1 << 70) | 5
    for probe, want in ((_WideLocal, value), (_WideIntLocal, value + 1)):
        with pytest.raises(TranslationError, match=why):
            SimJITRTL(probe().elaborate()).specialize()
        for sched in ("event", "static"):
            model = probe().elaborate()
            sim = SimulationTool(model, sched=sched)
            model.a.value = value
            sim.cycle()
            assert int(model.o) == want, sched
        assert sim.sched_info()["lowered"]["kept"] == {}
    top = auto_specialize(_Holds(_WideLocal()))
    sim = SimulationTool(top.elaborate())
    assert why in sim.sched_info()["simjit"]["interpreted"]["top.x"]
    top.a.value = value
    sim.cycle()
    assert int(top.o) == value
    for value, want in ((value, 5 + 0 + 1), (5, 5 + 1 + 1), (0, 0)):
        models = [_NarrowLocals().elaborate(),
                  SimJITRTL(_NarrowLocals().elaborate()).specialize()
                  .elaborate()]
        for model in models:
            sim = SimulationTool(model)
            model.a.value = value
            sim.cycle()
            assert int(model.o) == want, sim
    past = "may compute a value C's u128 / int64_t arithmetic gets wrong"
    for kind, specializer, why, want in (
            ("product", SimJITRTL, "local 'p' may hold 64 bits or more",
             1 << 38),
            ("shift", SimJITRTL, "local 't' may hold 64 bits or more",
             1 << 34),
            ("state", SimJITCL, "CL state 'acc' may be given 64 bits or more",
             1 << 34),
            ("u128-shift", SimJITRTL, "local 'x' may hold 64 bits or more",
             1 << 59),
            ("u128-product", SimJITRTL, "local 'x' may hold 64 bits or more",
             1 << 58),
            ("u128-write", SimJITRTL, f"70-bit signal write {past}",
             1 << 68),
            ("u128-negative", SimJITRTL, f"70-bit signal write {past}",
             1),
            ("u128-cond", SimJITRTL, f"a condition {past}", 1),
            ("shift-amount", SimJITRTL, f"40-bit signal write {past}", 0)):
        with pytest.raises(TranslationError, match=why):
            specializer(_Grows(kind).elaborate()).specialize()
        top = auto_specialize(_Holds(_Grows(kind)))
        sim = SimulationTool(top.elaborate())
        assert why in sim.sched_info()["simjit"]["interpreted"]["top.x"]
        # No static schedule for a CL tick alone: it runs on event.
        scheds = ("event",) if kind == "state" else ("event", "static")
        tops = [top] + [_Grows(kind).elaborate() for _ in scheds]
        sims = [sim] + [SimulationTool(model, sched=sched)
                        for model, sched in zip(tops[1:], scheds)]
        for model, sim in zip(tops, sims):
            model.a.value = model.b.value = 1 << model.a.nbits - 1
            sim.cycle()
            assert int(model.o) == want, (kind, sim)
    models = [SimJITRTL(_NarrowedWideRead().elaborate()).specialize()
              .elaborate(), _NarrowedWideRead().elaborate()]
    sims = [SimulationTool(models[0]),
            SimulationTool(models[1], sched="event")]
    assert "/simjit " in repr(sims[0])
    for value in (0x7F << 63 | 0x12345, 1 << 69, (1 << 70) - 1, 1 << 63):
        for model, sim in zip(models, sims):
            model.a.value = value
            sim.cycle()
        assert int(models[0].o) == int(models[1].o) == value >> 10
        assert int(models[0].p) == int(models[1].p) == \
            value * value % (1 << 70)


def test_wide_cl_state_is_refused_in_c():
    """A body that may store 64 bits or more into CL state: C holds CL
    state as ``int64_t``, so a ``RouterCL`` mesh with 70-bit messages
    (``buf_data`` holds them) read avg latency 3.92 in SimJIT against
    2.17 interpreted.  SimJIT refuses it naming the attribute,
    ``auto_specialize`` keeps it interpreted with that reason, and the
    same mesh with 32-bit messages still compiles."""
    from repro.net import RouterCL
    why = "CL state 'buf_data' may be given 64 bits or more"

    def mesh(data_nbits):
        return MeshNetworkStructural(RouterCL, 4, 256, data_nbits, 2)

    with pytest.raises(TranslationError, match=why):
        SimJITCL(mesh(58).elaborate()).specialize()
    stats = {}
    for sched in ("auto", "event"):
        top = auto_specialize(mesh(58)) if sched == "auto" else mesh(58)
        sim = SimulationTool(top.elaborate(), sched=sched)
        if sched == "auto":
            assert why in sim.sched_info()["simjit"]["interpreted"]["top"]
        run = NetworkTrafficHarness(top, sim=sim, seed=1).run_uniform_random(
            0.3, 100, 0, 1000)
        stats[sched] = run.injected, run.ejected, run.latencies
    assert stats["auto"] == stats["event"]
    assert stats["auto"][0] > 0
    assert isinstance(auto_specialize(mesh(32)), JITModel)


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
    """A design's C is its bodies and ``run_block``, its one export;
    the kernel that runs them is the SimJIT runtime's."""
    from repro.components import Register
    spec = SimJITRTL(Register(8).elaborate())
    spec.specialize()
    assert "\nvoid run_block(inst_t *I, int f," in spec.c_source
    assert "run_comb_blocks" not in spec.c_source
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
    """The instance goes with its ``SimJITEngine`` and ``obs_t`` with
    the ``KernelInstrumentation`` that armed it.  Nothing used to call
    ``free_instance``/``obs_free``: a dropped mesh16 engine leaked
    0.2 MiB, 1.95 MiB with a compiled flight recorder."""
    import gc

    from repro.components import Register
    from repro.core.simjit import specializer

    # Both are the runtime's, which every design shares.
    runtime = _CountingLib(specializer._runtime())
    monkeypatch.setattr(specializer, "_runtime", lambda: runtime)
    top = SimJITRTL(Register(8).elaborate()).specialize().elaborate()
    sim = SimulationTool(top)
    sim.reset()
    sim.flight_recorder(["out"], depth=4)
    sim.run(3)
    assert sim._jit_instr.active
    assert runtime.freed == []
    del sim, top
    gc.collect()
    assert sorted(runtime.freed) == ["inst", "obs"]


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
    # declarations and the runtime, and each design's ``dlopen`` is a
    # library object of its own.
    engines = [first.model.jit_engine, dut.model.jit_engine]
    assert engines[0]._ffi is engines[1]._ffi
    assert engines[0].lib is engines[1].lib
    assert engines[0].design_lib is not engines[1].design_lib


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


def test_simulating_tiles_loads_the_runtime_once(monkeypatch, gcc_runs):
    """The kernel is the runtime's: the nineteen ``Tile(levels,
    jit=True)`` built and run to ``done`` load it once, compile it once
    on an empty cache, and no design's C defines it."""
    from repro.accel import Tile, mvmult_data, mvmult_xcel
    from repro.accel.kernels import Y_BASE
    from repro.core.simjit import specializer
    from repro.proc import assemble
    from tests.test_simjit_golden import TILE_LEVELS

    sources = []
    compile_ = specializer._Specializer._compile

    def recording_compile(self, c_source):
        sources.append(c_source)
        return compile_(self, c_source)

    monkeypatch.setattr(specializer._Specializer, "_compile",
                        recording_compile)
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
    assert len(sources) == 18
    assert specializer._runtime.cache_info().misses == 1
    assert gcc_runs == ["runtime", "design", "design"]
    for source in sources:
        for name in ("new_instance(", "int edge(", "int cycle(", "settle(",
                     "obs_", "tb_uniform", "layout_t"):
            assert name not in source, name


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
    assert gcc_runs == ["runtime", "design", "design"]
