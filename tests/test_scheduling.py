"""Static-schedule correctness: mode equivalence, loop detection,
hybrid fallback, and auto selection.

The static scheduler is only allowed to change *speed*, never
*behavior*: every test here runs the same design under
``sched="static"`` and ``sched="event"`` and demands bit-identical
port values and line traces, cycle by cycle.
"""

import hashlib
import linecache
import random

import pytest

from repro import (
    InPort,
    Model,
    OutPort,
    SimulationError,
    SimulationTool,
    Wire,
)
from repro.accel import mvmult_data, mvmult_xcel
from repro.accel.kernels import Y_BASE
from repro.accel.tile import Tile, run_tile
from repro.core.probe import Probe
from repro.core.simjit import SimJITRTL
from repro.mem import BankedCacheRTL, MemReqMsg
from repro.net import MeshNetworkStructural, RouterRTL
from repro.proc import assemble

MODES = ("auto", "static", "event")


# -- helpers ------------------------------------------------------------------------


def _lockstep(models, sims, ncycles, stimulus=None, probes=()):
    """Advance several sims of identical designs in lockstep, applying
    the same stimulus to each and asserting identical traces/probes."""
    for cyc in range(ncycles):
        if stimulus is not None:
            for model in models:
                stimulus(model, cyc)
        for sim in sims:
            sim.cycle()
        traces = [model.line_trace() for model in models]
        assert len(set(traces)) == 1, (
            f"cycle {cyc}: line traces diverged: {traces}"
        )
        for probe in probes:
            values = [probe(model) for model in models]
            assert len(set(values)) == 1, (
                f"cycle {cyc}: probe values diverged: {values}"
            )


def _pair(build):
    """Two elaborated instances of a design + static/event sims."""
    models = [build().elaborate() for _ in range(2)]
    sims = [SimulationTool(m, sched=s)
            for m, s in zip(models, ("static", "event"))]
    assert sims[0].sched_mode == "static"
    assert sims[1].sched_mode == "event"
    for sim in sims:
        sim.reset()
    return models, sims


# -- mode equivalence: mesh network -------------------------------------------------


def test_mesh_static_event_identical():
    models, sims = _pair(
        lambda: MeshNetworkStructural(RouterRTL, 4, 256, 32, 2))
    mt = models[0].msg_type
    dest_lo, _ = mt.field_slice("dest")
    src_lo, _ = mt.field_slice("src")

    # Deterministic traffic: every terminal injects to a rotating
    # destination whenever its input is ready.
    def stimulus(net, cyc):
        for i, port in enumerate(net.in_):
            dest = (i + cyc) % 4
            port.msg.value = (dest << dest_lo) | (i << src_lo) | (cyc & 0xFF)
            port.val.value = cyc % 3 != 0
        for port in net.out:
            port.rdy.value = 1

    def outputs(net):
        return tuple(
            (p.val.uint(), p.msg.uint() if p.val.uint() else 0)
            for p in net.out
        )

    _lockstep(models, sims, 60, stimulus, probes=[outputs])


# -- mode equivalence: banked cache -------------------------------------------------


def test_banked_cache_static_event_identical():
    models, sims = _pair(lambda: BankedCacheRTL(nbanks=4, nlines=8))
    traces = [[], []]
    reqs = [
        (k % 4,
         MemReqMsg.mk_wr(k * 4 % 64, k + 1) if k % 3 == 0
         else MemReqMsg.mk_rd(k * 4 % 64))
        for k in range(24)
    ]

    def step():
        for sim in sims:
            sim.cycle()
        lt = [model.line_trace() for model in models]
        assert lt[0] == lt[1], f"line traces diverged: {lt}"

    for bank, req in reqs:
        # Offer the request until the queue accepts it.
        for model in models:
            enq = model.req_q[bank].enq
            enq.msg.value = req
            enq.val.value = 1
            model.resp_q[bank].deq.rdy.value = 1
        for _ in range(100):
            acc = [m.req_q[bank].enq.rdy.uint() for m in models]
            assert acc[0] == acc[1], "accept timing diverged"
            step()
            if acc[0]:
                break
        else:
            raise AssertionError("cache request never accepted")
        for model in models:
            model.req_q[bank].enq.val.value = 0
        # Wait for the response to pop out of the response queue.
        for _ in range(100):
            vals = [m.resp_q[bank].deq.val.uint() for m in models]
            assert vals[0] == vals[1], "response timing diverged"
            if vals[0]:
                for k, model in enumerate(models):
                    traces[k].append((bank,
                                      model.resp_q[bank].deq.msg.uint()))
                step()
                break
            step()
        else:
            raise AssertionError("cache response never arrived")
    assert traces[0] == traces[1]
    assert len(traces[0]) == len(reqs)
    assert sims[0].ncycles == sims[1].ncycles


# -- mode equivalence: accelerator tile ---------------------------------------------


def test_tile_static_event_identical():
    words = assemble(mvmult_xcel(4, 8))
    data, expected = mvmult_data(4, 8)

    results = {}
    for sched in ("static", "event"):
        tile, ncycles = run_tile(("rtl", "rtl", "rtl"), words, data,
                                 sched=sched)
        got = [tile.mem.read_word(Y_BASE + 4 * i)
               for i in range(len(expected))]
        assert got == expected
        results[sched] = ncycles
    assert results["static"] == results["event"]


# -- combinational loop detection ---------------------------------------------------


class _CombLoop(Model):
    def __init__(s):
        s.a = Wire(1)
        s.b = Wire(1)

        @s.combinational
        def one():
            s.a.value = ~s.b.value

        @s.combinational
        def two():
            s.b.value = s.a.value


@pytest.mark.parametrize("sched", MODES)
def test_comb_loop_raises_in_every_mode(sched):
    model = _CombLoop().elaborate()
    with pytest.raises(SimulationError, match="loop"):
        sim = SimulationTool(model, sched=sched)
        sim.eval_combinational()


# -- hybrid fallback: cyclic SCC demoted, acyclic part stays static -----------------


def test_tile_rtl_partial_fallback():
    tile = Tile(("rtl", "rtl", "rtl")).elaborate()
    sim = SimulationTool(tile, sched="static")
    desc = sim.schedule.describe()
    # The processor/xcel val-rdy handshake is a genuine comb cycle:
    # those blocks must be demoted to the event fixpoint, everything
    # else must stay on the static schedule.
    assert desc["demoted_cyclic"] >= 1
    assert desc["static_blocks"] >= 1
    assert sim.sched_mode == "static"
    # Hybrid schedules cannot use the flat mega-cycle kernel.
    assert sim._kernel is None
    # And the hybrid still simulates correctly.
    sim.reset()
    for _ in range(50):
        sim.cycle()


# -- auto mode selection ------------------------------------------------------------


class _Counter(Model):
    def __init__(s):
        s.en = InPort(1)
        s.count = OutPort(8)

        @s.tick_rtl
        def logic():
            if s.reset:
                s.count.next = 0
            elif s.en:
                s.count.next = s.count + 1


class _Opaque(Model):
    """Comb block whose write set defeats static analysis (method
    call target), leaving nothing to schedule statically."""

    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)

        @s.combinational
        def logic():
            s.helper()

    def helper(s):
        s.out.value = s.in_.value + 1


def test_auto_picks_static_for_analyzable_design():
    sim = SimulationTool(_Counter().elaborate(), sched="auto")
    assert sim.sched_mode == "static"


def test_auto_falls_back_to_event_for_opaque_design():
    model = _Opaque().elaborate()
    sim = SimulationTool(model, sched="auto")
    assert sim.sched_mode == "event"
    sim.reset()
    model.in_.value = 41
    sim.eval_combinational()
    assert model.out == 42


def test_forced_static_on_opaque_design_still_correct():
    model = _Opaque().elaborate()
    # The silent static -> event downgrade is no longer silent.
    with pytest.warns(RuntimeWarning, match="no effect"):
        sim = SimulationTool(model, sched="static")
    sim.reset()
    model.in_.value = 7
    sim.eval_combinational()
    assert model.out == 8


def test_auto_downgrade_does_not_warn():
    """auto mode falling back to event is expected, not warned."""
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        SimulationTool(_Opaque().elaborate(), sched="auto")


def test_sched_info_and_repr():
    net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    sim = SimulationTool(net, sched="static")
    info = sim.sched_info()
    assert info["requested"] == "static"
    assert info["mode"] == "static"
    assert info["kernel"] is True
    assert info["kernel_refused"] == []
    assert info["event_blocks"] == 0
    assert info["static_blocks"] == info["total_comb_blocks"] > 0
    assert info["levels"] >= 1
    assert "sched=static/kernel" in repr(sim)
    assert "MeshNetworkStructural" in repr(sim)

    net2 = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    sim2 = SimulationTool(net2, sched="static", collect_stats=True)
    info2 = sim2.sched_info()
    assert info2["kernel"] is False
    assert any("collect_stats" in r for r in info2["kernel_refused"])

    sim3 = SimulationTool(_Opaque().elaborate(), sched="auto")
    info3 = sim3.sched_info()
    assert info3["requested"] == "auto"
    assert info3["mode"] == "event"
    assert info3["static_blocks"] == 0
    assert "sched=event" in repr(sim3)


def test_cycle_hooks_fire_each_cycle_and_disable_kernel_fast_path():
    model = _Counter().elaborate()
    sim = SimulationTool(model, sched="static")
    assert sim._kernel is not None
    seen = []
    sim.add_cycle_hook(lambda cyc: seen.append(int(model.count)))
    sim.reset()
    del seen[:]     # hooks fire during reset cycles too
    model.en.value = 1
    sim.run(5)
    # The hook observes the pre-tick state of every cycle, and the
    # model still advances exactly as without hooks.
    assert seen == [0, 1, 2, 3, 4]
    assert model.count == 5


def test_invalid_sched_rejected():
    with pytest.raises(ValueError, match="sched"):
        SimulationTool(_Counter().elaborate(), sched="fast")


# -- kernel generation and stats ----------------------------------------------------


def test_fully_static_design_gets_kernel():
    net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    sim = SimulationTool(net, sched="static")
    desc = sim.schedule.describe()
    assert desc["event_blocks"] == 0
    assert sim._kernel is not None


def test_collect_stats_disables_kernel_but_counts_everything():
    net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    sim = SimulationTool(net, sched="static", collect_stats=True)
    assert sim._kernel is None
    sim.reset()
    sim.run(5)
    report = sim.telemetry.activity()
    # Preseeded zero entries: every comb block appears in the report,
    # fired or not.
    nblocks = sum(
        len(sub.get_comb_blocks()) for sub in net._all_models)
    assert len(report.hot_blocks) >= nblocks
    assert report.num_events > 0


class _Split(Model):
    """Slice connections (directional connectors) + a comb block."""

    def __init__(s):
        s.in_ = InPort(8)
        s.lo = OutPort(4)
        s.hi = OutPort(4)
        s.inv = OutPort(8)
        s.connect(s.in_[0:4], s.lo)
        s.connect(s.in_[4:8], s.hi)

        @s.combinational
        def invert():
            s.inv.value = ~s.in_.value


def test_connector_names_in_activity_report():
    model = _Split().elaborate()
    sim = SimulationTool(model, collect_stats=True)
    sim.reset()
    model.in_.value = 0xA5
    sim.eval_combinational()
    assert model.lo == 0x5 and model.hi == 0xA
    report = sim.telemetry.activity()
    names = [name for name, _count in report.hot_blocks]
    # Connector copies get stable diagnostic names in the report.
    assert any(name.startswith("connect(") for name in names), names
    assert "top.invert" in names


def test_stats_match_between_modes():
    """Total block activity is mode-dependent (event mode may re-run
    blocks while settling) but architectural state must not be."""
    models = [_Counter().elaborate() for _ in range(2)]
    sims = [SimulationTool(m, sched=s, collect_stats=True)
            for m, s in zip(models, ("static", "event"))]
    for sim in sims:
        sim.reset()
    for model in models:
        model.en.value = 1
    _lockstep(models, sims, 10,
              probes=[lambda m: m.count.uint()])


# -- randomized mode equivalence ----------------------------------------------------
#
# Generated-model property test: random DAGs of combinational blocks
# (emitted in shuffled order, so the static scheduler must actually
# topo-sort them) feeding random register updates.  Every substrate
# must agree with the event fixpoint wire for wire, cycle for cycle.
# This generalizes the hand-picked designs above the same way the
# differential cosim sweeps (tests/test_diff_*.py) generalize the
# directed subsystem tests.


def load_generated(source):
    """Run generated module ``source`` where ``inspect.getsource``
    finds it (a ``linecache`` entry): block analysis and lowering read
    block source, and a block without one is event-driven and
    untranslatable.  Returns the module's namespace."""
    name = f"<generated {hashlib.sha1(source.encode()).hexdigest()[:12]}>"
    linecache.cache[name] = (
        len(source), None, source.splitlines(keepends=True), name)
    namespace = {}
    exec(compile(source, name, "exec"), namespace)
    return namespace


def _random_dag_source(seed):
    """Python source for a random fully-analyzable Model subclass;
    returns it with the sizes drawn (2-10 wires, 1-5 registers)."""
    rng = random.Random(seed)
    nwires, nregs = rng.randint(2, 10), rng.randint(1, 5)

    def expr(avail):
        op = rng.choice(["+", "^", "&", "|"])
        a, b = rng.choice(avail), rng.choice(avail)
        return f"(({a}.uint() {op} {b}.uint()) & 0xFFFF)"

    lines = [
        "from repro import InPort, Model, OutPort, Wire",
        "class _RandomDag(Model):",
        "    def __init__(s):",
        "        s.in_ = InPort(16)",
        "        s.out = OutPort(16)",
    ]
    lines += [f"        s.r{i} = Wire(16)" for i in range(nregs)]
    lines += [f"        s.w{i} = Wire(16)" for i in range(nwires)]

    blocks = []
    for i in range(nwires):
        # Acyclic by construction: wire i only reads earlier wires,
        # the input, and registers (whose updates break cycles).
        avail = (["s.in_"] + [f"s.r{j}" for j in range(nregs)]
                 + [f"s.w{j}" for j in range(i)])
        blocks.append([
            "        @s.combinational",
            f"        def comb{i}():",
            f"            s.w{i}.value = {expr(avail)}",
        ])
    for i in range(nregs):
        avail = ["s.in_"] + [f"s.w{j}" for j in range(nwires)]
        blocks.append([
            "        @s.tick_rtl",
            f"        def tick{i}():",
            "            if s.reset:",
            f"                s.r{i}.next = {rng.randint(0, 0xFFFF)}",
            "            else:",
            f"                s.r{i}.next = {expr(avail)}",
        ])
    blocks.append([
        "        @s.combinational",
        "        def comb_out():",
        f"            s.out.value = s.w{nwires - 1}.uint()",
    ])
    rng.shuffle(blocks)
    for block in blocks:
        lines += block

    signals = ([f"w{i}" for i in range(nwires)]
               + [f"r{i}" for i in range(nregs)])
    lines += [
        f"    traced = {signals}",
        "    def line_trace(s):",
        "        return ' '.join(str(int(getattr(s, x))) for x in s.traced)",
    ]
    return "\n".join(lines), nwires, nregs


@pytest.mark.parametrize("seed", range(6))
def test_random_dag_static_event_identical(seed):
    source, nwires, nregs = _random_dag_source(seed)
    build = load_generated(source)["_RandomDag"]
    # The event fixpoint is the reference; collect_stats=True keeps the
    # static schedule off the kernel.
    columns = [dict(sched="event"),
               dict(sched="static", collect_stats=True),
               dict(sched="static")]
    models = [build().elaborate() for _ in columns]
    sims = [SimulationTool(m, **kw) for m, kw in zip(models, columns)]
    assert [repr(sim).split()[2] for sim in sims] == [
        "sched=event/interpreted", "sched=static/interpreted",
        "sched=static/kernel"]
    # Every block really is on the static rung (none was for as long as
    # the classes had no retrievable source).
    for sim in sims[1:]:
        info = sim.sched_info()
        assert (info["static_blocks"], info["event_blocks"],
                info["gated_ticks"]) == (nwires + 1, 0, nregs)
    assert sims[2].sched_info()["kernel"]
    if seed < 2:
        # The compiled column: a wrapper has no wires to trace, so its
        # trace reads the same signals out of the engine.
        jit = SimJITRTL(build().elaborate()).specialize().elaborate()
        sims.append(SimulationTool(jit))
        assert "/simjit " in repr(sims[-1])
        reads = [Probe.resolve(sims[-1], name).read for name in build.traced]
        jit.line_trace = lambda: " ".join(str(int(read())) for read in reads)
        models.append(jit)
    for sim in sims:
        sim.reset()

    def stimulus(model, cyc):
        model.in_.value = (cyc * 2654435761 + seed) & 0xFFFF

    _lockstep(models, sims, 40, stimulus,
              probes=[lambda m: m.out.uint()])


# -- cycle trace ring buffer --------------------------------------------------------


class _TracedCounter(Model):
    def __init__(s):
        s.count = OutPort(8)

        @s.tick_rtl
        def logic():
            if s.reset:
                s.count.next = 0
            else:
                s.count.next = s.count + 1

    def line_trace(s):
        return f"count={int(s.count)}"


def test_trace_log_ring_buffer_and_equivalence():
    """``trace_depth`` (used by the cosim harness for divergence
    forensics) keeps the last N line traces without perturbing
    simulation results, in both scheduling modes."""
    for sched in ("static", "event"):
        plain = _TracedCounter().elaborate()
        traced = _TracedCounter().elaborate()
        sim_plain = SimulationTool(plain, sched=sched)
        sim_traced = SimulationTool(traced, sched=sched, trace_depth=4)
        assert sim_plain.trace_log is None
        for sim in (sim_plain, sim_traced):
            sim.reset()
            sim.run(10)
        assert plain.count.uint() == traced.count.uint()
        log = list(sim_traced.trace_log)
        assert len(log) == 4
        cycles = [c for c, _ in log]
        assert cycles == list(range(cycles[0], cycles[0] + 4))
        assert log[-1] == (sim_traced.ncycles,
                           f"count={int(traced.count)}")
