"""The addressing contract (src/repro/core/probe.py).

One design carrying every kind of named observable runs on four
substrates — event, static + mega-cycle kernel, a SimJIT top, and a
SimJIT child inside an interpreted parent — and every spec form must

- read the same value through ``read()`` and ``reader()()``, equal
  across the substrates after every cycle;
- round-trip a ``write`` and propagate it through one ``cycle()``
  identically everywhere;
- report, through ``address(engine)``, the index under which the
  engine's own ``raw_get``/``get_state_at`` return that value, or raise
  ``Unlowerable``.

The last section pins three places where the pre-``Probe`` resolvers
had drifted apart: a slice of a SimJIT-internal signal observed through
a recorder, a watchpoint and a signal-backed histogram.
"""

import contextlib
import re
import warnings

import pytest

from repro import (
    InPort,
    Model,
    OutPort,
    ResilienceWarning,
    SimulationTool,
    Wire,
    rose,
    value_is,
)
from repro.core.probe import NET, STATE, Probe, Unlowerable
from repro.core.simjit import SimJITCL, SimJITRTL
from repro.net import RouterRTL
from repro.resilience import resolve_path       # re-exported from core.probe


class _Dut(Model):
    """An RTL counter, a list of registers, CL int and int-list state,
    and one counter of each backing kind (the python-kind one is bumped
    by the bench, so it survives specialization)."""

    def __init__(s):
        s.en = InPort(1)
        s.out = OutPort(8)
        s.c = Wire(8)
        s.lanes = [Wire(4) for _ in range(2)]
        s.total = 0
        s.hist = [0] * 4
        s.spare = 3                 # no block touches it: never lowered
        s.n_c = s.counter("n_c", sig=s.c)
        s.n_total = s.counter("n_total", state=("total",))
        s.n_py = s.counter("n_py")

        @s.tick_rtl
        def seq():
            if s.reset:
                s.c.next = 0
                s.lanes[0].next = 0
                s.lanes[1].next = 0
            elif s.en:
                s.c.next = s.c + 1
                s.lanes[0].next = s.lanes[0] + 1
                s.lanes[1].next = s.lanes[1] + s.lanes[0]

        @s.tick_cl
        def acc():
            if s.reset.uint():
                s.total = 0
                for i in range(4):
                    s.hist[i] = 0
            elif s.en.uint():
                s.total = s.total + s.c.uint()
                s.hist[s.c.uint() % 4] = s.hist[s.c.uint() % 4] + 1

        @s.combinational
        def comb():
            s.out.value = s.c


class _HistDut(_Dut):
    """``_Dut`` plus a histogram over a *slice* of its counter."""

    def __init__(s):
        super().__init__()
        s.low = s.histogram("low", sig=s.c[0:2], when=s.en)


class _Parent(Model):
    def __init__(s, child):
        s.en = InPort(1)
        s.out = OutPort(8)
        s.dut = child
        s.connect(s.en, s.dut.en)
        s.connect(s.dut.out, s.out)


SUBSTRATES = ("event", "kernel", "jit-top", "jit-child")

# spec form -> builder(inner model, path prefix)
SPECS = {
    "path": lambda m, p: p + "c",
    "signal": lambda m, p: m.c,
    "slice": lambda m, p: m.c[1:5],
    "list-path": lambda m, p: p + "lanes[1]",
    "cl-int": lambda m, p: p + "total",
    "cl-list": lambda m, p: p + "hist[1]",
    "ctr-signal": lambda m, p: p + "n_c",
    "ctr-state": lambda m, p: p + "n_total",
    "ctr-python": lambda m, p: p + "n_py",
}
WRITABLE = ("path", "signal", "slice", "list-path", "cl-int", "cl-list")
STATE_PATHS = ("c", "lanes[0]", "lanes[1]", "total", "hist[0]",
               "hist[1]", "hist[2]", "hist[3]")


def _build(substrate, cls=_Dut):
    """``(sim, top, inner, prefix)``: ``inner`` is the original design
    (whose Signal objects serve as specs), ``prefix`` its path from
    ``top``."""
    inner = cls().elaborate()
    prefix = ""
    if substrate == "event":
        top, sched = inner, "event"
    elif substrate == "kernel":
        top, sched = inner, "static"
    elif substrate == "jit-top":
        top, sched = SimJITCL(inner).specialize().elaborate(), "auto"
    else:
        top = _Parent(SimJITCL(inner).specialize()).elaborate()
        sched, prefix = "auto", "dut."
    sim = SimulationTool(top, sched=sched)
    assert sim.sched_info()["kernel"] == (substrate == "kernel")
    sim.reset()
    return sim, top, inner, prefix


def _engine(top, substrate):
    return (top if substrate == "jit-top" else top.dut).jit_engine


# -- read ---------------------------------------------------------------------


@pytest.mark.parametrize("form", SPECS)
def test_read_agrees_with_reader_and_across_substrates(form):
    traces = {}
    for substrate in SUBSTRATES:
        sim, top, inner, prefix = _build(substrate)
        probe = Probe.resolve(sim, SPECS[form](inner, prefix))
        trace = []
        for cyc in range(12):
            top.en.value = 0 if cyc % 5 == 3 else 1
            inner.n_py.incr(cyc)
            sim.cycle()
            assert probe.read() == probe.reader()()
            trace.append(probe.read())
        traces[substrate] = trace
    assert len(set(traces["event"])) > 3          # the value moves
    for substrate in SUBSTRATES:
        assert traces[substrate] == traces["event"], substrate


def test_probe_passes_through_resolve():
    sim, _top, _inner, _ = _build("event")
    probe = Probe.resolve(sim, "c")
    assert Probe.resolve(sim, probe) is probe


# -- write --------------------------------------------------------------------


@pytest.mark.parametrize("form", WRITABLE)
def test_write_round_trips_and_propagates(form):
    after = {}
    for substrate in SUBSTRATES:
        sim, top, inner, prefix = _build(substrate)
        top.en.value = 1
        sim.run(3)
        probe = Probe.resolve(sim, SPECS[form](inner, prefix))
        state = [Probe.resolve(sim, prefix + path)
                 for path in STATE_PATHS]
        before = [p.read() for p in state]
        value = probe.read() ^ 0b101
        probe.write(sim, value)
        assert probe.read() == probe.reader()() == value
        # Only the written variable moved (a slice: only its bits).
        moved = [i for i, p in enumerate(state)
                 if p.read() != before[i]]
        assert len(moved) == 1
        sim.cycle()
        after[substrate] = ([p.read() for p in state], int(top.out))
    for substrate in SUBSTRATES:
        assert after[substrate] == after["event"], substrate


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_counters_are_read_only(substrate):
    sim, _top, _inner, prefix = _build(substrate)
    for name in ("n_c", "n_total", "n_py"):
        with pytest.raises(TypeError, match="telemetry counter"):
            Probe.resolve(sim, prefix + name).write(sim, 1)


# -- widths -------------------------------------------------------------------


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_widths(substrate, tmp_path):
    sim, top, inner, prefix = _build(substrate)
    widths = {form: Probe.resolve(sim, spec(inner, prefix)).nbits
              for form, spec in SPECS.items()}
    assert widths == {
        "path": 8, "signal": 8, "slice": 4, "list-path": 4,
        "cl-int": 64, "cl-list": 64,
        "ctr-signal": 8, "ctr-state": 64, "ctr-python": 64}
    assert Probe.resolve(sim, prefix + "total", nbits=12).nbits == 12
    # A recorded counter never overflows its VCD declaration.
    with warnings.catch_warnings():
        # (counters sample from Python: a SimJIT top says so)
        warnings.simplefilter("ignore", ResilienceWarning)
        rec = sim.flight_recorder([prefix + "n_py", prefix + "n_total"])
    inner.n_py.incr(1 << 40)
    top.en.value = 1
    sim.run(3)
    text = open(rec.window().to_vcd(str(tmp_path / "w.vcd"))).read()
    declared = {code: int(nbits) for nbits, code in
                re.findall(r"\$var wire (\d+) (\S+) ", text)}
    values = re.findall(r"^b([01]+) (\S+)$", text, re.M)
    assert any(len(bits) > 32 for bits, _ in values)
    for bits, code in values:
        assert len(bits) <= declared[code]


# -- address ------------------------------------------------------------------


@pytest.mark.parametrize("substrate", ("jit-top", "jit-child"))
def test_address_indexes_the_engine(substrate):
    sim, top, inner, prefix = _build(substrate)
    engine = _engine(top, substrate)
    top.en.value = 1
    sim.run(7)
    kinds = {}
    for form in ("path", "signal", "list-path", "cl-int", "cl-list"):
        probe = Probe.resolve(sim, SPECS[form](inner, prefix))
        kind, idx, elem = probe.address(engine)
        if kind == NET:
            assert elem == 0 and engine.raw_get(idx) == probe.read()
        else:
            assert engine.lib.get_state_at(
                engine.inst, idx, elem) == probe.read()
        kinds[form] = kind
    assert kinds == {"path": NET, "signal": NET, "list-path": NET,
                     "cl-int": STATE, "cl-list": STATE}
    assert Probe.resolve(sim, prefix + "hist[1]").address(engine)[2] == 1
    if substrate == "jit-top":
        # A boundary port is a Python net with a slot in the engine.
        port = Probe.resolve(sim, top.out)
        assert port.location == "net"
        kind, idx, _ = port.address(engine)
        assert kind == NET and engine.raw_get(idx) == port.read() == 7


@pytest.mark.parametrize("substrate", ("jit-top", "jit-child"))
def test_unlowerable_specs(substrate):
    sim, top, inner, prefix = _build(substrate)
    engine = _engine(top, substrate)
    other = SimJITRTL(RouterRTL(0, 4, 64, 16, 2).elaborate()) \
        .specialize().jit_engine

    def refused(spec, eng, message):
        with pytest.raises(Unlowerable, match=message):
            Probe.resolve(sim, spec).address(eng)

    refused(inner.c[1:5], engine, "signal slices are sampled from Python")
    for name in ("n_c", "n_total", "n_py"):
        refused(prefix + name, engine,
                "does not name a signal of this engine")
    refused(prefix + "c", other, "does not name a signal of this engine")
    refused(top.en, other, "signal has no net slot in this engine")
    if substrate == "jit-top":
        with pytest.raises(Unlowerable, match="not a net slot"):
            sim._jit_instrumentation().net_slot("total")


def test_plain_attribute_is_unlowerable():
    sim, _top, _inner, _ = _build("kernel")
    probe = Probe.resolve(sim, "total")
    assert probe.location == "attr"
    engine = SimJITCL(_Dut().elaborate()).specialize().jit_engine
    with pytest.raises(Unlowerable, match="does not name a signal"):
        probe.address(engine)


# -- resolution errors and the path grammar -----------------------------------


def test_resolve_rejects_what_it_cannot_place():
    sim, _top, _inner, _ = _build("event")
    with pytest.raises(TypeError, match="cannot observe int"):
        Probe.resolve(sim, 42)
    with pytest.raises(TypeError, match="resolved to list"):
        Probe.resolve(sim, "hist")
    stranger = _Dut().elaborate()
    with pytest.raises(ValueError, match="not simulated by this"):
        Probe.resolve(sim, stranger.c)
    jit_sim, _jtop, _jinner, _ = _build("jit-top")
    with pytest.raises(ValueError, match="not lowered to compiled"):
        Probe.resolve(jit_sim, "spare")


@pytest.mark.parametrize("jit", (False, True))
def test_resolve_path_walks_lists_and_jit_wrappers(jit):
    orig = RouterRTL(0, 4, 64, 16, 2).elaborate()
    top = SimJITRTL(orig).specialize().elaborate() if jit else orig
    owner, attr, target, engine, indices = resolve_path(
        top, "priority[1]")
    assert owner is orig and attr == "priority" and indices == (1,)
    assert target is orig.priority[1]
    assert engine is (top.jit_engine if jit else None)


@pytest.mark.parametrize("path, exc, message", [
    ("nonexistent.thing", AttributeError, "no attribute"),
    ("pri ority", ValueError, "bad path token"),
])
def test_resolve_path_errors(path, exc, message):
    with pytest.raises(exc, match=message):
        resolve_path(RouterRTL(0, 4, 64, 16, 2).elaborate(), path)


# -- drift: a slice of a SimJIT-internal signal -------------------------------


def _arming(substrate):
    """Slices do not compile into the SimJIT kernel: a SimJIT top
    samples them from Python instead, and says so."""
    if substrate == "jit-top":
        return pytest.warns(ResilienceWarning, match="signal slices")
    return contextlib.nullcontext()


def _drive(sim, top, ncycles=14):
    for cyc in range(ncycles):
        top.en.value = 0 if cyc % 4 == 2 else 1
        sim.cycle()


def test_recorder_on_internal_slice_matches_interpreter():
    rows = {}
    for substrate in SUBSTRATES:
        sim, top, inner, _ = _build(substrate)
        with _arming(substrate):
            rec = sim.flight_recorder([inner.c[0:3], inner.c], depth=32)
        _drive(sim, top)
        rows[substrate] = list(rec.window().rows())
    assert len({values for _, values in rows["event"]}) > 8
    for substrate in SUBSTRATES:
        assert rows[substrate] == rows["event"], substrate


def test_watchpoint_on_internal_slice_matches_interpreter():
    fires = {}
    for substrate in SUBSTRATES:
        sim, top, inner, _ = _build(substrate)
        with _arming(substrate):
            eq = sim.watch(value_is(inner.c[0:3], 3), name="low3")
            up = sim.watch(rose(inner.c[1:2]), name="bit1")
        _drive(sim, top)
        fires[substrate] = (eq.fire_cycles(), up.fire_cycles())
    assert all(fires["event"])
    for substrate in SUBSTRATES:
        assert fires[substrate] == fires["event"], substrate


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_watchpoint_resolves_each_spec_once(substrate, monkeypatch):
    """Snapshots, C lowering, the Python evaluator and a later dearm
    all use the probes one pass over the condition built."""
    sim, top, inner, prefix = _build(substrate)
    resolved = []
    resolve = Probe.resolve.__func__
    monkeypatch.setattr(
        Probe, "resolve", classmethod(
            lambda cls, sim, spec, nbits=None:
                resolved.append(spec) or resolve(cls, sim, spec, nbits)))
    cond = rose(prefix + "c") & ~value_is(inner.lanes[0], 0)
    wp = sim.watch(cond, name="once")
    with (pytest.warns(ResilienceWarning, match="cycle hook")
          if substrate == "jit-top" else contextlib.nullcontext()):
        sim.add_cycle_hook(lambda cycle: None)      # dearms: rebinds
    assert [spec for spec in resolved if not isinstance(spec, Probe)] \
        == [prefix + "c", inner.lanes[0]]
    _drive(sim, top)
    assert wp.fired


def test_histogram_on_internal_slice_matches_interpreter():
    bins = {}
    for substrate in SUBSTRATES:
        with _arming(substrate):
            sim, top, inner, _ = _build(substrate, _HistDut)
        _drive(sim, top)
        bins[substrate] = inner.low.bins_sorted()
    assert len(bins["event"]) == 4
    for substrate in SUBSTRATES:
        assert bins[substrate] == bins["event"], substrate
