"""Unit tests for elaboration: naming, nets, connectors, sensitivity."""

import warnings

import pytest

from repro import (
    ElaborationError,
    InPort,
    InValRdyBundle,
    Model,
    OutPort,
    OutValRdyBundle,
    SimulationTool,
    Wire,
    bw,
)
from repro.resilience import ResilienceWarning


class _Pass(Model):
    def __init__(s, nbits=8):
        s.in_ = InPort(nbits)
        s.out = OutPort(nbits)
        s.connect(s.in_, s.out)


class _Wrapper(Model):
    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.inner = _Pass()
        s.connect(s.in_, s.inner.in_)
        s.connect(s.inner.out, s.out)


def test_names_assigned():
    model = _Wrapper().elaborate()
    assert model.name == "top"
    assert model.inner.name == "inner"
    assert model.inner.full_name() == "top.inner"
    assert model.in_.name == "in_"
    assert model.inner.out.parent is model.inner


def test_submodels_registered():
    model = _Wrapper().elaborate()
    assert model.get_submodels() == [model.inner]


def test_full_connection_merges_nets():
    model = _Wrapper().elaborate()
    assert model.in_._net is model.inner.in_._net
    assert model.out._net is model.inner.out._net


def test_connected_value_propagates_without_sim():
    model = _Wrapper().elaborate()
    model.in_.value = 99
    assert model.inner.in_.value == 99


def test_clk_reset_propagate():
    model = _Wrapper().elaborate()
    assert model.reset._net is model.inner.reset._net
    assert model.clk._net is model.inner.clk._net


def test_width_mismatch_raises():
    class Bad(Model):
        def __init__(s):
            s.a = Wire(8)
            s.b = Wire(4)
            s.connect(s.a, s.b)

    with pytest.raises(ElaborationError):
        Bad().elaborate()


def test_connect_rejects_junk():
    class Bad(Model):
        def __init__(s):
            s.a = Wire(8)
            s.connect(s.a, "nope")

    with pytest.raises(TypeError):
        Bad()


def test_connect_two_constants_rejected():
    model = Model()
    with pytest.raises(TypeError):
        model.connect(1, 2)


def test_constant_tie():
    class Tied(Model):
        def __init__(s):
            s.out = OutPort(8)
            s.mid = Wire(8)
            s.connect(s.mid, 0x5A)
            s.connect(s.mid, s.out)

    model = Tied().elaborate()
    SimulationTool(model)
    assert model.out == 0x5A


def test_constant_too_wide_raises():
    class Fits(Model):
        def __init__(s):
            s.out = OutPort(3)
            s.connect(s.out, 7)     # fits

    Fits().elaborate()

    class TooWide(Model):
        def __init__(s):
            s.out = OutPort(2)
            s.connect(s.out, 7)     # does not fit

    with pytest.raises(ElaborationError):
        TooWide().elaborate()


def test_slice_connection():
    class SliceConn(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.lo = OutPort(4)
            s.hi = OutPort(4)
            s.connect(s.in_[0:4], s.lo)
            s.connect(s.in_[4:8], s.hi)

    model = SliceConn().elaborate()
    sim = SimulationTool(model)
    model.in_.value = 0xAB
    sim.eval_combinational()
    assert model.lo == 0xB
    assert model.hi == 0xA


def test_slice_connection_into_child():
    class Child(Model):
        def __init__(s):
            s.in_ = InPort(4)
            s.out = OutPort(4)
            s.connect(s.in_, s.out)

    class Parent(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(4)
            s.child = Child()
            s.connect(s.in_[2:6], s.child.in_)
            s.connect(s.child.out, s.out)

    model = Parent().elaborate()
    sim = SimulationTool(model)
    model.in_.value = 0b0011_1100
    sim.eval_combinational()
    assert model.out == 0xF


def test_slice_width_mismatch_raises():
    class Bad(Model):
        def __init__(s):
            s.a = Wire(8)
            s.b = Wire(8)
            s.connect(s.a[0:4], s.b)

    with pytest.raises(ElaborationError):
        Bad().elaborate()


def test_sensitivity_includes_dynamic_index():
    from repro import bw

    class Mux(Model):
        def __init__(s, nports=4):
            s.in_ = InPort[nports](8)
            s.sel = InPort(bw(nports))
            s.out = OutPort(8)

            @s.combinational
            def logic():
                s.out.value = s.in_[s.sel.uint()].value

    model = Mux().elaborate()
    SimulationTool(model, sched="event")
    blk = model.get_comb_blocks()[0]
    assert _sensitive(model, blk) == sorted(
        ["sel"] + [port.name for port in model.in_])


def test_elaborate_idempotent():
    model = _Wrapper().elaborate()
    nets_before = len(model._all_nets)
    model.elaborate()
    assert len(model._all_nets) == nets_before


def test_model_level_tags():
    class Fl(Model):
        def __init__(s):
            s.out = OutPort(1)

            @s.tick_fl
            def logic():
                pass

    class Cl(Model):
        def __init__(s):
            s.out = OutPort(1)

            @s.tick_cl
            def logic():
                pass

    assert Fl().level() == "fl"
    assert Cl().level() == "cl"
    assert _Pass().level() == "struct"


def test_connect_auto_pairs_by_name():
    class Dpath(Model):
        def __init__(s):
            s.status = OutPort(4)
            s.control = InPort(4)

    class Ctrl(Model):
        def __init__(s):
            s.status = InPort(4)
            s.control = OutPort(4)

    class Top(Model):
        def __init__(s):
            s.dpath = Dpath()
            s.ctrl = Ctrl()
            s.connect_auto(s.dpath, s.ctrl)

    model = Top().elaborate()
    assert model.dpath.status._net is model.ctrl.status._net
    assert model.dpath.control._net is model.ctrl.control._net


# -- block analysis: what the simulator does with a block, from its body ------
#
# Every block below closes over ``s`` and is registered on two instances
# of ``_Bench`` (2 and 4 ports), so the two share one code object and
# must differ only in what the body binds to.


class _Bench(Model):
    def __init__(s, build, nports):
        s.in_ = InPort[nports](8)
        s.out = OutPort[nports](8)
        s.sel = InPort(bw(nports))
        s.enq = InValRdyBundle(8)
        s.reg = Wire(8)
        s.nports = nports           # immutable constant
        s.buf = [0]                 # mutable non-signal state
        build(s)


def _ports(name, nports):
    return [f"{name}[{i}]" for i in range(nports)]


def _comb_spine_prefix(s):
    @s.combinational
    def blk():
        s.enq.rdy.value = s.sel.value


def _comb_augmented(s):
    @s.combinational
    def blk():
        s.enq.rdy.value |= s.sel.value


def _comb_dynamic_index(s):
    @s.combinational
    def blk():
        s.out[s.sel.uint()].value = s.in_[s.sel.uint()].value


def _comb_tainted_alias(s):
    @s.combinational
    def blk():
        port = s.out[0]
        port.value = s.sel.value


def _comb_local_container(s):
    @s.combinational
    def blk():
        xs = [0] * 2
        xs[0] = s.sel.value
        s.out[0].value = xs[0]


def _comb_method_call(s):
    @s.combinational
    def blk():
        s.buf.append(s.sel.value)
        s.out[0].value = s.sel.uint()


def _comb_no_source(s):
    env = {"s": s}
    exec("def blk():\n    s.out[0].value = s.in_[0].value\n", env)
    s.combinational(env["blk"])


def _tick_registered(s):
    @s.tick_rtl
    def blk():
        if s.nports > 1:
            s.reg.next = s.in_[s.sel.uint()].value


def _tick_value_write(s):
    @s.tick_rtl
    def blk():
        s.reg.value = s.sel.value


def _tick_method_call(s):
    @s.tick_rtl
    def blk():
        s.buf.append(s.sel.value)


def _tick_mutable_read(s):
    @s.tick_rtl
    def blk():
        s.reg.next = len(s.buf)


def _tick_lambda(s):
    @s.tick_rtl
    def blk():
        pick = lambda: s.sel.value  # noqa: E731
        s.reg.next = pick()


def _tick_nested_def(s):
    @s.tick_rtl
    def blk():
        def pick():
            return s.sel.value
        s.reg.next = pick()


def _tick_bare_model(s):
    @s.tick_rtl
    def blk():
        s.reg.next = id(s)


def _tick_tainted_deref(s):
    @s.tick_rtl
    def blk():
        port = s.in_[0]
        s.reg.next = port.value


def _tick_no_source(s):
    env = {"s": s}
    exec("def blk():\n    s.reg.next = s.sel.value\n", env)
    s.tick_rtl(env["blk"])


def _unbounded(n):
    """What a comb block of a ``_Bench`` without a body may read: every
    signal of its model, output ports included (a ``_Bench`` has no
    submodel)."""
    return ["clk", "reset", "sel", "reg", "enq.msg", "enq.val",
            "enq.rdy"] + _ports("in_", n) + _ports("out", n)


_UNTRANSLATABLE = "method calls are not translatable"

# build, per-nports expectation of (partition, why the block keeps its
# closure or None, the nets it reacts to).  A comb block's partition is
# "static" or "event", a tick's "gated" or "ungated".
_ANALYSIS_CASES = [
    # The target spine ``s.enq`` is no read of the bundle.
    (_comb_spine_prefix, lambda n: ("static", None, ["sel"])),
    # An augmented target is read, but it is the block's own write.
    (_comb_augmented, lambda n: ("static", None, ["sel"])),
    # A dynamic index reads every element of this instance's list.
    (_comb_dynamic_index,
     lambda n: ("static", None, ["sel"] + _ports("in_", n))),
    # Without a body: event-driven on every net the block may read.
    (_comb_tainted_alias,
     lambda n: ("event", "unsupported write target", _unbounded(n))),
    # A body with no Python form is scheduled; the closure runs.
    (_comb_local_container,
     lambda n: ("static", "array elements are ints", ["sel"])),
    (_comb_method_call,
     lambda n: ("event", _UNTRANSLATABLE, _unbounded(n))),
    (_comb_no_source,
     lambda n: ("event", "cannot retrieve source", _unbounded(n))),
    (_tick_registered,
     lambda n: ("gated", None, ["sel"] + _ports("in_", n))),
    (_tick_value_write,
     lambda n: ("ungated", ".value write inside tick block", [])),
    (_tick_method_call, lambda n: ("ungated", _UNTRANSLATABLE, [])),
    # ``len`` of a model list is a constant of the body.
    (_tick_mutable_read, lambda n: ("gated", None, [])),
    (_tick_lambda, lambda n: ("ungated", "expression Lambda", [])),
    (_tick_nested_def, lambda n: ("ungated", "statement FunctionDef", [])),
    (_tick_bare_model, lambda n: ("ungated", "calls are not translatable",
                                  [])),
    # A local naming a signal reads that signal.
    (_tick_tainted_deref, lambda n: ("gated", None, ["in_[0]"])),
    (_tick_no_source, lambda n: ("ungated", "cannot retrieve source", [])),
]


def _names(signals):
    return sorted(sig.name for sig in signals)


def _sensitive(model, blk):
    """The signals whose change re-runs comb block ``blk`` in the
    event-driven settle."""
    return _names(sig for sig in model._all_signals
                  if blk.func in sig._net.blocks)


@pytest.mark.parametrize(
    "build, expect", _ANALYSIS_CASES,
    ids=[build.__name__.lstrip("_") for build, _ in _ANALYSIS_CASES])
def test_block_analysis(build, expect):
    # Both instances exist before either is simulated, and the larger
    # one is simulated last and checked first.
    models = [_Bench(build, nports).elaborate() for nports in (2, 4)]
    sims = []
    for model in models:
        with warnings.catch_warnings():
            # A design with nothing to schedule says so under "static".
            warnings.simplefilter("ignore", ResilienceWarning)
            sims.append(SimulationTool(model, sched="static"))
    for model, sim in zip(reversed(models), reversed(sims)):
        partition, why, nets = expect(model.nports)
        kept = sim.sched_info()["lowered"]["kept"]
        if why is None:
            assert kept == {}
        else:
            assert list(kept) == ["top.blk"] and why in kept["top.blk"]
        if build.__name__.startswith("_comb"):
            blk, = model.get_comb_blocks()
            static = blk.func in sim.schedule.order
            assert ("static" if static else "event") == partition
            got = (_names(sig for sig in model._all_signals
                          if sig._net.sreaders) if static
                   else _sensitive(model, blk))
            # The event-driven simulator reads the same nets.
            twin = _Bench(build, model.nports).elaborate()
            SimulationTool(twin, sched="event")
            assert _sensitive(twin, twin.get_comb_blocks()[0]) == got
        else:
            (slot, _), = sim._tick_plan
            assert ("gated" if slot >= 0 else "ungated") == partition
            got = _names(sig for sig in model._all_signals
                         if sig._net.treaders)
        assert got == sorted(nets)


@pytest.mark.parametrize("build", [
    pytest.param(_comb_no_source, id="_comb_no_source-comb"),
    pytest.param(_tick_no_source, id="_tick_no_source-tick_rtl")])
def test_block_without_source_does_not_lower(build):
    from repro.core.ast_ir import TranslationError
    from repro.core.bodies import lowered

    model = _Bench(build, 2).elaborate()
    blk, = model.get_comb_blocks() or model.get_tick_blocks()
    with pytest.raises(TranslationError, match="cannot retrieve source"):
        lowered(blk, {})


def test_block_source_parsed_once_per_function(monkeypatch):
    import ast

    from repro import SimJITRTL
    from repro.core import bodies, elaboration
    from repro.net import MeshNetworkStructural, RouterRTL

    parses = []
    real_parse = ast.parse
    monkeypatch.setattr(
        ast, "parse", lambda *a, **kw: parses.append(1) or real_parse(*a, **kw))
    monkeypatch.setattr(elaboration, "_block_sources", {})
    monkeypatch.setattr(bodies, "_bodies", {})

    net = MeshNetworkStructural(RouterRTL, 16, 256, 32, 2).elaborate()
    assert parses == []             # elaboration analyses no block
    codes = {blk.func.__code__
             for model in net._all_models
             for blk in model._comb_blocks + model._tick_blocks}
    nblocks = sum(len(model._comb_blocks) + len(model._tick_blocks)
                  for model in net._all_models)
    SimulationTool(net)
    assert len(parses) == len(codes) < nblocks
    SimJITRTL(net).specialize()
    assert len(parses) == len(codes)


def test_block_shapes_die_with_their_functions():
    import gc

    from repro.core.elaboration import _block_sources

    def one_shot(i):
        env = {}
        exec(f"def build(s):\n"
             f"    @s.combinational\n"
             f"    def blk():\n"
             f"        s.out[0].value = s.in_[0].value + {i}\n", env)
        return _Bench(env["build"], 2).elaborate()

    one_shot(0)
    gc.collect()
    before = len(_block_sources)
    for i in range(50):
        one_shot(i)
    gc.collect()
    assert len(_block_sources) == before


# -- the model/tool API: what a model owns, asked one way -----------------------


class _ApiChild(Model):
    def __init__(s):
        s.in_ = InPort(4)
        s.out = OutPort(4)
        s.w = Wire(4)
        s.observe(s.w)

        @s.combinational
        def logic():
            s.w.value = s.in_.value
            s.out.value = s.w.value


class _ApiTop(Model):
    """One of everything a collector has to get right: scalar ports, a
    val/rdy bundle, a list of bundles, a four-deep port list,
    ``s.observe(...)`` registrations (private bookkeeping that lists
    signals a second time) and a child."""

    def __init__(s):
        s.a = InPort(8)
        s.o = OutPort(8)
        s.enq = InValRdyBundle(8)
        s.deqs = [OutValRdyBundle(8) for _ in range(2)]
        s.deep = [[[[InPort(2) for _ in range(2)]]]]
        s.w = Wire(8)
        s.observe(s.w, s.a)
        s.child = _ApiChild()
        s.connect(s.a[0:4], s.child.in_)

        @s.combinational
        def logic():
            s.w.value = s.a.value
            s.o.value = s.w.value


_API_PORTS = [
    "clk", "reset", "a", "o", "enq.msg", "enq.val", "enq.rdy",
    "deqs[0].msg", "deqs[0].val", "deqs[0].rdy",
    "deqs[1].msg", "deqs[1].val", "deqs[1].rdy",
    "deep[0][0][0][0]", "deep[0][0][0][1]",
]


_API_OUTPORTS = ["o", "enq.rdy", "deqs[0].msg", "deqs[0].val",
                 "deqs[1].msg", "deqs[1].val"]
_API_ACCESSORS = {
    "get_signals": _API_PORTS + ["w"],
    "get_ports": _API_PORTS,
    "get_inports": [n for n in _API_PORTS if n not in _API_OUTPORTS],
    "get_outports": _API_OUTPORTS,
    "get_wires": ["w"],
}


@pytest.mark.parametrize("accessor", _API_ACCESSORS)
def test_model_accessors_are_stable_across_elaboration(accessor):
    top = _ApiTop()
    before = getattr(top, accessor)()
    top.elaborate()
    after = getattr(top, accessor)()
    assert [id(sig) for sig in before] == [id(sig) for sig in after]
    assert [sig.name for sig in after] == _API_ACCESSORS[accessor]


def test_all_signals_is_every_models_get_signals_once():
    top = _ApiTop().elaborate()
    owned = [sig for model in top._all_models
             for sig in model.get_signals()]
    assert [id(sig) for sig in top._all_signals] == [id(s) for s in owned]
    assert len({id(sig) for sig in owned}) == len(owned)
    assert [m.full_name() for m in top._all_models] == ["top", "top.child"]
    assert [b.name for b in top.get_signals(InValRdyBundle)] == ["enq"]


def test_simjit_and_translator_list_the_same_ports():
    import re

    from repro import SimJITRTL, TranslationTool

    def mangle(sig):
        return (sig.name.replace(".", "__").replace("[", "_")
                .replace("]", ""))

    top = _ApiTop().elaborate()
    engine = SimJITRTL(top).specialize().jit_engine
    assert [sig.name for sig in engine._in_ports] == [
        sig.name for sig in top.get_inports()]
    assert [sig.name for sig in engine._out_ports] == [
        sig.name for sig in top.get_outports()]

    tool = TranslationTool(_ApiTop().elaborate())
    module = tool.verilog[tool.verilog.index(f"module {tool.top_module}"):]
    header = module[:module.index(");")]
    decls = re.findall(r"^  (input|output)\s+(?:wire|reg)\s+"
                       r"(?:\[\d+:0\] )?(\w+)", header, re.M)
    assert [n for d, n in decls if d == "input"] == [
        mangle(sig) for sig in engine._in_ports]
    assert [n for d, n in decls if d == "output"] == [
        mangle(sig) for sig in engine._out_ports]


# -- what elaboration records for the checkpoint walk ---------------------------


def _library_designs():
    """A design of every library model family that a checkpoint takes
    (blocking FL adapters refuse one), FL to RTL, plus tiles."""
    from repro.accel import (DotProductCL, DotProductRTL, MemArbiter,
                             MemcpyCL, MemcpyRTL, Tile, XcelMsg)
    from repro.components import (
        BypassQueue, Counter, Crossbar, GcdUnitCL, GcdUnitFL, GcdUnitRTL,
        IntPipelinedMultiplier, Mux, NormalQueue, PriorityEncoder,
        QueueCL, RegEnRst, Register, RoundRobinArbiter)
    from repro.mem import BankedCacheRTL, CacheCL, CacheFL, CacheRTL, MemMsg
    from repro.mem import TestMemory as Memory
    from repro.net import (MeshNetworkStructural, NetworkFL,
                           RingNetworkStructural, RouterCL, RouterRTL)
    from repro.proc import ProcCL, ProcFL, ProcHarness, ProcRTL

    mm, xm = MemMsg(), XcelMsg()
    return {
        "Register": lambda: Register(8), "RegEnRst": lambda: RegEnRst(8),
        "Counter": lambda: Counter(8), "Mux": lambda: Mux(8, 4),
        "Crossbar": lambda: Crossbar(8, 4),
        "PriorityEncoder": lambda: PriorityEncoder(4),
        "NormalQueue": lambda: NormalQueue(4, 16),
        "BypassQueue": lambda: BypassQueue(8), "QueueCL": lambda: QueueCL(2, 8),
        "RoundRobinArbiter": lambda: RoundRobinArbiter(4),
        "IntPipelinedMultiplier": lambda: IntPipelinedMultiplier(16, 2),
        "GcdUnitFL": GcdUnitFL, "GcdUnitCL": GcdUnitCL,
        "GcdUnitRTL": GcdUnitRTL,
        "TestMemory": lambda: Memory(nports=2, size=1 << 16),
        "CacheFL": lambda: CacheFL(mm, mm),
        "CacheCL": lambda: CacheCL(mm, mm, 8),
        "CacheRTL": lambda: CacheRTL(mm, mm, 8),
        "BankedCacheRTL": lambda: BankedCacheRTL(nbanks=2),
        "DotProductCL": lambda: DotProductCL(mm, xm),
        "DotProductRTL": lambda: DotProductRTL(mm, xm),
        "MemcpyCL": lambda: MemcpyCL(mm, xm),
        "MemcpyRTL": lambda: MemcpyRTL(mm, xm),
        "MemArbiter": lambda: MemArbiter(mm),
        "ProcFL": lambda: ProcHarness(ProcFL(mm, xm)),
        "ProcCL": lambda: ProcHarness(ProcCL(mm, xm)),
        "ProcRTL": lambda: ProcHarness(ProcRTL()),
        "NetworkFL": lambda: NetworkFL(4, 16, 16, 2),
        "RouterCL": lambda: RouterCL(0, 4, 64, 16, 2),
        "RouterRTL": lambda: RouterRTL(0, 4, 64, 16, 2),
        "meshCL": lambda: MeshNetworkStructural(RouterCL, 4, 64, 16, 2),
        "mesh16": lambda: MeshNetworkStructural(RouterRTL, 16, 64, 16, 2),
        "ring": lambda: RingNetworkStructural(4, 16, 16, 2),
        "tile-cl": lambda: Tile(("cl", "cl", "cl")),
        "tile-rtl-jit": lambda: Tile(("rtl", "rtl", "rtl"), jit=True),
    }


def _full_walk(model):
    """The checkpoint's Python state as a walk that tests every public
    attribute of every model (what ``_structural`` lets it skip)."""
    from repro.core.model import Model
    from repro.core.portbundle import PortBundle
    from repro.core.signals import Signal, _SignalSlice
    from repro.resilience.snapshot import _capture_attr

    state = {}
    for idx, sub in enumerate(model._all_models):
        attrs = {}
        for name, value in sub.__dict__.items():
            if name.startswith("_") or isinstance(
                    value, (Signal, _SignalSlice, PortBundle, Model)):
                continue
            entry = _capture_attr(value)
            if entry is not None:
                attrs[name] = entry
        if attrs:
            state[idx] = attrs
    return state


@pytest.mark.parametrize("name", list(_library_designs()))
def test_checkpoint_skips_what_elaboration_named(name):
    """A checkpoint skips the attributes elaboration recorded as
    signals, bundles, submodels and lists of them, untested: its
    entries and fingerprint equal a walk that tests every attribute,
    also for public attributes a model sets after elaboration."""
    from repro.resilience.snapshot import _canon

    model = _library_designs()[name]().elaborate()
    assert "clk" in model._structural and "reset" in model._structural
    sim = SimulationTool(model)
    sim.reset()
    sim.run(20)
    model.later = 5                       # set after elaboration
    model._all_models[-1].later_list = [1, 2]

    def canon(state):
        return {(idx, attr): (kind, _canon(value))
                for idx, attrs in state.items()
                for attr, (kind, value) in attrs.items()}

    cp = sim.save_checkpoint()
    full = _full_walk(model)
    assert canon(cp.py_state) == canon(full)
    assert cp.py_state[0]["later"] == ("plain", 5)
    want = cp.fingerprint()
    cp.py_state = full
    assert cp.fingerprint() == want
