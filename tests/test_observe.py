"""Waveform-observatory tests (src/repro/observe/).

Covers the three pillars and their substrate-portability contract:

- flight recorder ring-buffer semantics (change compression, rolling
  base, depth eviction), window serialization, and VCD export;
- watchpoint combinators (edges, stability, implication windows,
  boolean algebra) and firing policies (log / callback / dump / halt /
  once);
- cross-substrate equivalence: identical windows and identical fire
  cycles under event, static(+kernel), and SimJIT execution on the
  cache and mesh DUTs;
- post-mortem forensics: co-sim divergence, Watchdog trip, and an
  unhandled exception in ``cycle()`` each auto-produce a
  ``repro-observe-v1`` bundle, bit-identical across substrates;
- the ``python -m repro.observe.dump`` ASCII renderer;
- the ``line_trace_sink`` satellite.
"""

import json
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    InPort,
    Model,
    OutPort,
    SimulationTool,
    Wire,
    rose,
    fell,
    changed,
    value_is,
    when,
    stable_for,
    implies_within,
)
from repro.observe import (
    FlightRecorder,
    RecorderWindow,
    WatchpointHit,
    load_bundle,
)
from repro.core.probe import Probe
from repro.observe.dump import main as dump_main, render
from repro.resilience import Watchdog, WatchdogTimeout
from repro.verif import CoSimHarness, CoSimMismatch, RNG
from repro.verif.duts import make_cache_dut, make_mesh_dut
from repro.verif.strategies import mem_request_strategy


# -- fixtures -----------------------------------------------------------------


class _Counter(Model):
    """4-bit enable-gated counter with observe() registrations."""

    def __init__(s):
        s.en = InPort(1)
        s.out = OutPort(4)
        s.count = Wire(4)
        s.par = Wire(1)
        s.observe(s.count, s.par)

        @s.tick_rtl
        def tick():
            if s.reset:
                s.count.next = 0
            elif s.en:
                s.count.next = (s.count + 1) & 0xF

        @s.combinational
        def comb():
            s.out.value = s.count
            s.par.value = s.count & 1


def _counter_sim(**kwargs):
    sim = SimulationTool(_Counter().elaborate(), **kwargs)
    sim.reset()
    return sim


# -- flight recorder ----------------------------------------------------------


def test_recorder_records_change_compressed_window():
    sim = _counter_sim()
    rec = sim.flight_recorder(signals=["count", "en"], depth=32)
    sim.model.en.value = 1
    sim.run(5)
    win = rec.window()
    assert win.names == ["count", "en"]
    assert win.widths == [4, 1]
    assert win.cycles() == [3, 4, 5, 6, 7]
    assert list(win.rows()) == [
        (3, (1, 1)), (4, (2, 1)), (5, (3, 1)),
        (6, (4, 1)), (7, (5, 1))]
    # en only changed on the first recorded cycle: later entries are
    # change-compressed down to the count delta alone.
    assert win.changes[0][1] == [(0, 1), (1, 1)]
    assert win.changes[1][1] == [(0, 2)]
    assert win.values_at(5) == (3, 1)
    with pytest.raises(KeyError):
        win.values_at(99)


def test_recorder_depth_evicts_into_base():
    sim = _counter_sim()
    rec = sim.flight_recorder(signals=["count"], depth=4)
    sim.model.en.value = 1
    sim.run(10)
    win = rec.window()
    assert win.ncycles == 4
    assert win.cycles() == [9, 10, 11, 12]
    # The rolling base reconstructs the oldest retained cycle exactly.
    assert list(win.rows()) == [(9, (7,)), (10, (8,)),
                                (11, (9,)), (12, (10,))]
    assert rec.nsamples == 10                     # armed post-reset


def test_recorder_idle_cycles_store_no_changes():
    sim = _counter_sim()
    rec = sim.flight_recorder(signals=["count"], depth=16)
    sim.model.en.value = 0
    sim.run(6)
    win = rec.window()
    assert win.ncycles == 6
    assert all(ch == [] or ch == () or list(ch) == []
               for _, ch in win.changes)
    assert list(win.rows())[-1] == (8, (0,))


def test_recorder_signals_none_uses_model_observe():
    sim = _counter_sim()
    rec = sim.flight_recorder(depth=8)           # signals=None
    assert rec.signal_names == ["count", "par"]
    sim.model.en.value = 1
    sim.run(3)
    assert list(rec.window().rows())[-1] == (5, (3, 1))


def test_recorder_rejects_bad_specs_and_empty():
    sim = SimulationTool(_CounterNoObserve().elaborate())
    with pytest.raises(ValueError, match="nothing to record"):
        sim.flight_recorder()
    with pytest.raises(TypeError, match="cannot observe"):
        sim.flight_recorder(signals=[42])
    with pytest.raises(ValueError, match="depth"):
        FlightRecorder(signals=["count"], depth=0)
    rec = sim.flight_recorder(signals=["count"])
    with pytest.raises(RuntimeError, match="already attached"):
        rec.attach(sim)


class _CounterNoObserve(Model):
    def __init__(s):
        s.en = InPort(1)
        s.count = Wire(4)
        s.out = OutPort(4)

        @s.tick_rtl
        def tick():
            if s.reset:
                s.count.next = 0
            elif s.en:
                s.count.next = (s.count + 1) & 0xF

        @s.combinational
        def comb():
            s.out.value = s.count


def test_recorder_detach_stops_sampling():
    sim = _counter_sim()
    rec = sim.flight_recorder(signals=["count"], depth=16)
    sim.model.en.value = 1
    sim.run(3)
    rec.detach()
    sim.run(5)
    assert rec.window().cycles() == [3, 4, 5]
    assert not sim._observers
    rec.detach()                                  # idempotent


def test_window_dict_roundtrip_and_vcd(tmp_path):
    sim = _counter_sim()
    rec = sim.flight_recorder(signals=["count", "par"], depth=16)
    sim.model.en.value = 1
    sim.run(6)
    win = rec.window()
    data = json.loads(json.dumps(win.to_dict()))
    assert RecorderWindow.from_dict(data) == win

    path = tmp_path / "win.vcd"
    win.to_vcd(path)
    text = path.read_text()
    assert "$var wire 4 a count $end" in text
    assert "$var wire 1 b par $end" in text
    assert "$dumpvars" in text
    # Timestep lines only where something changed; the window replays
    # exactly the recorded cycle span.
    assert f"#{win.base_cycle}" in text
    assert f"#{win.cycles()[-1]}" in text


def test_recorder_keeps_mega_cycle_kernel_and_fast_path():
    sim = _counter_sim(sched="static")
    assert sim.sched_info()["kernel"] is True
    rec = sim.flight_recorder(signals=["count"], depth=8)
    sim.model.en.value = 1
    sim.run(20)
    # The kernel is still in use (not refused) while the recorder
    # samples every cycle.
    assert sim.sched_info()["kernel"] is True
    assert rec.nsamples == 20
    rec.detach()
    before = sim.ncycles
    sim.run(10)                                   # back on the fast path
    assert sim.ncycles == before + 10
    assert rec.nsamples == 20


class _Counted(Model):
    """Counter-tap fixture: a python-kind telemetry counter."""

    def __init__(s):
        s.en = InPort(1)
        s.out = OutPort(4)
        s.count = Wire(4)
        s.evens = s.counter("evens", "even count values latched")

        @s.tick_rtl
        def tick():
            if s.reset:
                s.count.next = 0
            elif s.en:
                s.count.next = (s.count + 1) & 0xF

        @s.tick_fl
        def observe_evens():
            if not s.reset and int(s.count.value) % 2 == 0:
                s.evens.incr()

        @s.combinational
        def comb():
            s.out.value = s.count


def test_recorder_taps_telemetry_counters():
    sim = SimulationTool(_Counted().elaborate())
    sim.reset()
    rec = sim.flight_recorder(signals=["evens", "count"], depth=16)
    wp = sim.watch(changed("evens"), name="even-seen")
    sim.model.en.value = 1
    sim.run(6)
    rows = list(rec.window().rows())
    assert [v for _, (v, _) in rows] == [1, 1, 2, 2, 3, 3]
    assert wp.fire_cycles() == [3, 5, 7]


# -- watchpoints --------------------------------------------------------------


def test_edge_and_value_watchpoints():
    sim = _counter_sim()
    wp_rose = sim.watch(rose("par"), name="par-rise")
    wp_fell = sim.watch(fell("par"), name="par-fall")
    wp_chg = sim.watch(changed("count"), name="count-chg")
    wp_val = sim.watch(value_is("count", 3, 5), name="count-3or5")
    sim.model.en.value = 1
    sim.run(6)
    # count=1 at cycle 3 ... count=6 at cycle 8; par = count & 1.
    assert wp_rose.fire_cycles() == [3, 5, 7]
    assert wp_fell.fire_cycles() == [4, 6, 8]
    assert wp_chg.fire_cycles() == [3, 4, 5, 6, 7, 8]
    assert wp_val.fire_cycles() == [5, 7]
    assert wp_val.fires[0][1] == {"count": 3}


def test_predicate_and_boolean_algebra():
    sim = _counter_sim()
    wp = sim.watch(when(lambda c, p: c > 3 and not p, "count", "par"),
                   name="big-even")
    wp2 = sim.watch(rose("par") & value_is("count", 5), name="and")
    wp3 = sim.watch(~changed("count"), name="idle")
    sim.model.en.value = 1
    sim.run(6)
    sim.model.en.value = 0
    sim.run(2)
    assert wp.fire_cycles() == [6, 8, 9, 10]      # count 4,6,6,6
    assert wp2.fire_cycles() == [7]
    assert wp3.fire_cycles() == [9, 10]


def test_stable_for_fires_once_per_stretch():
    sim = _counter_sim()
    wp = sim.watch(stable_for("count", 3), name="stuck")
    sim.model.en.value = 1
    sim.run(4)
    sim.model.en.value = 0
    sim.run(7)
    sim.model.en.value = 1
    sim.run(2)
    # count stops changing after cycle 6; stable streak hits 3 at
    # cycle 9, fires once, and re-arms only after the next change.
    assert wp.fire_cycles() == [9]
    with pytest.raises(ValueError, match="n >= 1"):
        stable_for("count", 0)


def test_implies_within_violation_and_satisfaction():
    sim = _counter_sim()
    # par rises every 2 cycles while counting: rose(par) is always
    # followed by fell(par) within 2 cycles -> never fires.
    ok = sim.watch(implies_within(rose("par"), fell("par"), 2),
                   name="ok")
    # ... but never followed by count==15 within 3 cycles -> fires 3
    # cycles after every rise.
    bad = sim.watch(
        implies_within(rose("par"), value_is("count", 15), 3),
        name="bad")
    sim.model.en.value = 1
    sim.run(8)
    assert ok.fire_cycles() == []
    assert bad.fire_cycles() == [6, 8, 10]        # rises at 3, 5, 7
    with pytest.raises(ValueError, match="n >= 1"):
        implies_within(rose("par"), fell("par"), 0)
    with pytest.raises(TypeError):
        implies_within("par", fell("par"), 2)


def test_watchpoint_once_callback_and_detach():
    sim = _counter_sim()
    seen = []
    wp = sim.watch(rose("par"), name="once",
                   callback=lambda w, c: seen.append(c), once=True)
    sim.model.en.value = 1
    sim.run(6)
    assert seen == [3]
    assert wp.n_fires == 1
    assert wp.sim is None
    assert wp not in sim._watchpoints


def test_watchpoint_halt_raises_structured_hit():
    sim = _counter_sim()
    sim.watch(value_is("count", 4), name="stop-at-4", halt=True)
    sim.model.en.value = 1
    with pytest.raises(WatchpointHit) as excinfo:
        sim.run(20)
    diag = excinfo.value.diagnostic
    assert diag["name"] == "stop-at-4"
    assert diag["cycle"] == 6
    assert diag["values"] == {"count": 4}
    assert "value_is" in diag["condition"]
    # The halting cycle completed: state is consistent at count == 4.
    assert sim.ncycles == 6
    assert int(sim.model.count.value) == 4


def test_watchpoint_dump_writes_bundle(tmp_path):
    sim = _counter_sim()
    sim.flight_recorder(signals=["count"], depth=8)
    out = tmp_path / "wp_out"
    sim.watch(value_is("count", 5), name="five", dump=str(out),
              once=True)
    sim.model.en.value = 1
    sim.run(10)
    bundles = [f for f in os.listdir(out) if f.endswith(".json")]
    assert len(bundles) == 1
    manifest = load_bundle(out / bundles[0])
    assert manifest["reason"] == "watchpoint:five"
    assert manifest["watchpoint"]["name"] == "five"
    assert manifest["windows"][0]["window"].values_at(7) == (5,)


def test_watch_rejects_non_condition():
    sim = _counter_sim()
    with pytest.raises(TypeError, match="Condition"):
        sim.watch("count")


def test_when_needs_a_signal_to_watch():
    """``when`` calls its predicate only on a cycle where a signal it
    names changed; with none named it would be called once and then
    repeat that verdict forever, so it is refused."""
    with pytest.raises(ValueError, match="at least one signal"):
        when(lambda: True)


# -- watchpoints evaluate only on a change ------------------------------------


class _Taps(Model):
    """Three inputs a watchpoint taps; the test bench drives them."""

    def __init__(s):
        s.a = InPort(2)
        s.b = InPort(2)
        s.c = InPort(1)
        s.q = OutPort(2)

        @s.tick_rtl
        def tick():
            s.q.next = s.a


def _reference(cond, read):
    """The evaluator watchpoints had before they skipped quiet cycles:
    every node updated every cycle from fresh reads (``read(spec)``)."""
    kind = type(cond).__name__
    if kind == "_BoolOp":
        lhs, rhs = _reference(cond.left, read), _reference(cond.right, read)
        if cond.op == "and":
            return lambda cycle: lhs(cycle) & rhs(cycle)
        return lambda cycle: lhs(cycle) | rhs(cycle)
    if kind == "_Not":
        inner = _reference(cond.inner, read)
        return lambda cycle: not inner(cycle)
    if kind == "_Edge":
        state = {"prev": read(cond.spec)}

        def edge(cycle):
            prev, value = state["prev"], read(cond.spec)
            state["prev"] = value
            if cond.direction == "rose":
                return prev == 0 and value != 0
            if cond.direction == "fell":
                return prev != 0 and value == 0
            return value != prev
        return edge
    if kind == "_ValueIs":
        return lambda cycle: read(cond.spec) in cond.values
    if kind == "_When":
        return lambda cycle: bool(cond.fn(*map(read, cond.specs)))
    if kind == "_StableFor":
        state = {"prev": read(cond.spec), "streak": 0}

        def stable(cycle):
            value = read(cond.spec)
            if value == state["prev"]:
                state["streak"] += 1
            else:
                state["prev"], state["streak"] = value, 0
            return state["streak"] == cond.n
        return stable
    ant = _reference(cond.antecedent, read)
    con = _reference(cond.consequent, read)
    pending = []

    def implies(cycle):
        if con(cycle) and pending:
            pending.pop(0)
        if ant(cycle):
            pending.append(cycle + cond.n)
        if pending and cycle >= pending[0]:
            pending.pop(0)
            return True
        return False
    return implies


_SPECS = ("a", "b", "c", "a[1]")        # "a[1]": a slice, read by a probe


def _condition(tree, model):
    """The condition a drawn ``tree`` describes, over ``model``'s taps."""
    def spec(name):
        return model.a[1] if name == "a[1]" else name

    kind, *args = tree
    if kind in ("rose", "fell", "changed"):
        return {"rose": rose, "fell": fell, "changed": changed}[kind](
            spec(args[0]))
    if kind == "value_is":
        return value_is(spec(args[0]), *args[1])
    if kind == "when":
        return when(lambda *v: sum(v) % 3 == 0, *map(spec, args[0]))
    if kind == "stable_for":
        return stable_for(spec(args[0]), args[1])
    if kind == "not":
        return ~_condition(args[0], model)
    if kind == "implies":
        return implies_within(_condition(args[0], model),
                              _condition(args[1], model), args[2])
    lhs, rhs = _condition(args[0], model), _condition(args[1], model)
    return lhs & rhs if kind == "and" else lhs | rhs


def _condition_trees(python_leaves=True):
    """Trees over every leaf, or (``python_leaves`` false) over the ones
    a SimJIT engine compiles: no ``when`` and no slice."""
    name = st.sampled_from(_SPECS if python_leaves else _SPECS[:3])
    leaves = [
        st.tuples(st.sampled_from(["rose", "fell", "changed"]), name),
        st.tuples(st.just("value_is"), name,
                  st.lists(st.integers(0, 3), min_size=1, max_size=2)),
        st.tuples(st.just("stable_for"), name, st.integers(1, 4))]
    if python_leaves:
        leaves.append(st.tuples(st.just("when"),
                                st.lists(name, min_size=1, max_size=3)))
    leaf = st.one_of(leaves)
    return st.recursive(leaf, lambda kids: st.one_of(
        st.tuples(st.sampled_from(["and", "or"]), kids, kids),
        st.tuples(st.just("not"), kids),
        st.tuples(st.just("implies"), kids, kids, st.integers(1, 4))),
        max_leaves=6)


def _value_traces():
    """Rows of (a, b, c), each held for 1-5 cycles: most cycles change
    no tap."""
    row = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1),
                    st.integers(1, 5))
    return st.lists(row, min_size=1, max_size=30)


def _settings():
    fuzz = settings.get_profile("fuzz")
    return fuzz if settings.default is fuzz else settings(
        derandomize=True, deadline=None, max_examples=60)


def _python_only(tree):
    """Whether a drawn tree holds a ``when`` or reads the slice: the
    forests the SimJIT runtime cannot hold."""
    kind, *args = tree
    if kind == "when":
        return True
    if kind in ("and", "or", "not", "implies"):
        return any(_python_only(kid) for kid in args
                   if isinstance(kid, tuple))
    return args[0] == "a[1]"


def _jit_taps():
    from repro.core.simjit import SimJITRTL
    return SimJITRTL(_Taps().elaborate()).specialize().elaborate()


def test_quiet_cycles_give_the_verdicts_of_evaluating_everything():
    """A watchpoint evaluates its whole forest only on a cycle where
    one of its taps changed.  On a condition tree and a value trace
    drawn at random, it fires on exactly the cycles where evaluating
    every node on every cycle fires — one, two and three taps, whole
    nets and a slice — on every column: the Python forest; a
    single-engine SimJIT sim, where a tree with no ``when`` and no
    slice runs in ``obs_run`` and any other warns ``instrument-fallback``
    and runs in Python; and that SimJIT sim dearmed by a cycle hook at
    a drawn cycle, which hands the C node state back to Python."""
    @_settings()
    @given(tree=st.booleans().flatmap(_condition_trees),
                      trace=_value_traces(), dearm_at=st.integers(0, 12))
    def check(tree, trace, dearm_at):
        want = None
        for column in ("python", "compiled", "dearmed"):
            model = _Taps().elaborate() if column == "python" \
                else _jit_taps()
            sim = SimulationTool(model)
            sim.reset()
            cond = _condition(tree, model)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                wp = sim.watch(cond)
            fallback = any(getattr(w.message, "kind", "") ==
                           "instrument-fallback" for w in caught)
            if column == "python":
                assert wp._cwp is None and wp._nodes and not caught
                probes = {}

                def read(spec):
                    if id(spec) not in probes:
                        probes[id(spec)] = Probe.resolve(sim, spec)
                    return probes[id(spec)].read()
                reference, want = _reference(cond, read), []
            else:
                assert fallback == (wp._cwp is None) == _python_only(tree)
            n = 0
            for a, b, c, hold in trace:
                model.a.value, model.b.value, model.c.value = a, b, c
                for _ in range(hold):
                    if column == "dearmed" and n == dearm_at:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            sim.add_cycle_hook(lambda cycle: None)
                        assert wp._cwp is None
                    n += 1
                    sim.cycle()
                    if column == "python" and reference(sim.ncycles):
                        want.append(sim.ncycles)
            assert wp.fire_cycles() == want, (column, cond.describe())

    check()


# -- substrate equivalence ----------------------------------------------------

CACHE_SIGNALS = ["cache.state", "cache.req_addr", "cache.miss_count"]
N_EQUIV_TXNS = 120


def _cache_requests(seed, n=N_EQUIV_TXNS):
    rng = RNG(seed).fork("observe-equiv")
    strat = mem_request_strategy(addr_words=32)
    return {"req": [strat.sample(rng) for _ in range(n)]}


def _armed_cache_duts(substrates, depth=64):
    duts, recs, wps = [], [], []
    for name, kwargs in substrates:
        dut = make_cache_dut(name, "rtl", **kwargs)
        rec = dut.sim.flight_recorder(signals=CACHE_SIGNALS,
                                      depth=depth)
        wp = dut.sim.watch(
            rose("cache.miss_count") | stable_for("cache.state", 24),
            name="miss-or-stuck")
        duts.append(dut)
        recs.append(rec)
        wps.append(wp)
    return duts, recs, wps


def test_cache_windows_bit_identical_across_substrates(tmp_path):
    """Recorders hold bit-identical windows and watchpoints fire at
    identical cycles under event, static(+kernel), and an embedded
    SimJIT cache engine.  That engine sits under the interpreted
    ``TestMemory``, so its recorder and watchpoint sample from Python;
    the mesh test below covers compiled instrumentation."""
    substrates = [("event", {"sched": "event"}),
                  ("static", {"sched": "static"}),
                  ("jit-embedded", {"jit": True})]
    duts, recs, wps = _armed_cache_duts(substrates)
    harness = CoSimHarness(duts, compare="cycle_exact")
    res = harness.run(_cache_requests(7), max_cycles=20_000)
    assert res.ntransactions("resp") == N_EQUIV_TXNS
    assert duts[2].sim._jit_instrumentation() is None
    assert recs[2]._cidx is None and wps[2]._cwp is None

    dicts = [rec.window().to_dict() for rec in recs]
    assert dicts[0] == dicts[1] == dicts[2]
    assert dicts[0]["changes"], "window should not be empty"

    vcds = []
    for (name, _), rec in zip(substrates, recs):
        path = tmp_path / f"{name}.vcd"
        rec.window().to_vcd(path)
        vcds.append(path.read_bytes())
    assert vcds[0] == vcds[1] == vcds[2]

    fire_cycles = [wp.fire_cycles() for wp in wps]
    assert fire_cycles[0] == fire_cycles[1] == fire_cycles[2]
    assert wps[0].fired


def test_mesh_windows_bit_identical_across_substrates():
    mesh_signals = ["routers[0].grant_val[0]", "routers[0].hold_val[0]",
                    "routers[2].priority[0]"]
    duts, recs, wps = [], [], []
    for name, kwargs in [("event", {"sched": "event"}),
                         ("static", {"sched": "static"}),
                         ("jit", {"jit": True})]:
        dut = make_mesh_dut(name, "rtl", nrouters=4, **kwargs)
        recs.append(dut.sim.flight_recorder(signals=mesh_signals,
                                            depth=48))
        wps.append(dut.sim.watch(
            rose("routers[0].grant_val[0]"), name="grant0"))
        wps.append(dut.sim.watch(
            stable_for("routers[0].hold_val[0]", 24)
            | implies_within(rose("routers[0].grant_val[0]"),
                             fell("routers[0].grant_val[0]"), 3),
            name="stuck-or-held"))
        duts.append(dut)

    from repro.verif.strategies import net_message_strategy
    rng = RNG(11)
    msg_type = duts[0].model.msg_type
    stimulus = {}
    for src in range(4):
        port_rng = rng.fork(f"port{src}")
        strat = net_message_strategy(msg_type, src, 4)
        stimulus[f"in{src}"] = [strat.sample(port_rng)
                                for _ in range(40)]
    harness = CoSimHarness(duts, compare="cycle_exact")
    harness.run(stimulus, max_cycles=20_000)

    # The mesh DUT is one SimJIT engine: its watchpoints, the counter
    # and the window included, evaluate in obs_run.
    assert all(wp._cwp is not None for wp in wps[4:])
    dicts = [rec.window().to_dict() for rec in recs]
    assert dicts[0] == dicts[1] == dicts[2]
    fires = [(grant.fire_cycles(), held.fire_cycles())
             for grant, held in zip(wps[::2], wps[1::2])]
    assert fires[0] == fires[1] == fires[2]
    assert all(fires[0]), "both watchpoints should fire under traffic"


def test_static_kernel_and_interpreted_static_agree():
    """The static schedule with every block counted (collect_stats)
    and without samples identically; stats run the same step."""
    sims = [_counter_sim(sched="static"),
            _counter_sim(sched="static", collect_stats=True)]
    assert sims[0].sched_info()["kernel"] is True
    assert sims[1].sched_info()["kernel"] is True
    recs = [s.flight_recorder(signals=["count", "par"], depth=16)
            for s in sims]
    for s in sims:
        s.model.en.value = 1
        s.run(12)
    assert recs[0].window().to_dict() == recs[1].window().to_dict()


# -- post-mortem forensics ----------------------------------------------------


def _divergent_cache_pair(dut_kwargs, out_dir):
    """Reference (fast memory) vs DUT (slow memory): deterministic
    cycle_exact divergence at the first response."""
    ref = make_cache_dut("ref", "rtl", sched="event", mem_latency=1)
    dut = make_cache_dut("dut", "rtl", mem_latency=3, **dut_kwargs)
    dut.sim.flight_recorder(signals=CACHE_SIGNALS, depth=32,
                            autodump=str(out_dir))
    return CoSimHarness([ref, dut], compare="cycle_exact")


@pytest.mark.parametrize("dut_kwargs", [
    {"sched": "event"},
    {"sched": "static"},
    {"jit": True},
])
def test_cosim_divergence_produces_bundle(tmp_path, dut_kwargs):
    out = tmp_path / "div"
    harness = _divergent_cache_pair(dut_kwargs, out)
    with pytest.raises(CoSimMismatch) as excinfo:
        harness.run(_cache_requests(3, n=20), max_cycles=10_000)
    exc = excinfo.value
    assert "dut" in exc.bundles
    manifest = load_bundle(exc.bundles["dut"])
    assert manifest["schema"] == "repro-observe-v1"
    assert manifest["reason"] == "cosim-divergence"
    window = manifest["windows"][0]["window"]
    assert window.names == CACHE_SIGNALS
    assert window.ncycles == min(32, manifest["cycle"])
    assert window.cycles()[-1] == manifest["cycle"]
    vcd = os.path.join(os.path.dirname(exc.bundles["dut"]),
                       manifest["windows"][0]["vcd"])
    assert os.path.exists(vcd)


def test_divergence_bundles_bit_identical_across_substrates(tmp_path):
    """The exported divergence window of the same (deterministic) DUT
    is byte-identical whether it ran event, static, or SimJIT."""
    payloads = {}
    for sub, kwargs in [("event", {"sched": "event"}),
                        ("static", {"sched": "static"}),
                        ("jit", {"jit": True})]:
        out = tmp_path / sub
        harness = _divergent_cache_pair(kwargs, out)
        with pytest.raises(CoSimMismatch) as excinfo:
            harness.run(_cache_requests(3, n=20), max_cycles=10_000)
        manifest = load_bundle(excinfo.value.bundles["dut"])
        vcd_path = os.path.join(
            os.path.dirname(excinfo.value.bundles["dut"]),
            manifest["windows"][0]["vcd"])
        payloads[sub] = (manifest["windows"][0]["window"].to_dict(),
                         open(vcd_path, "rb").read())
    assert payloads["event"] == payloads["static"] == payloads["jit"]


def test_watchdog_trip_produces_bundle(tmp_path):
    out = tmp_path / "wd"
    sim = _counter_sim()
    sim.flight_recorder(signals=["count"], depth=16)
    sim.model.en.value = 1
    wd = Watchdog(sim, max_cycles=40, check_every=8,
                  bundle_dir=str(out))
    with pytest.raises(WatchdogTimeout) as excinfo:
        wd.run(1000)
    diag = excinfo.value.diagnostics
    assert "observe_bundle" in diag
    manifest = load_bundle(diag["observe_bundle"])
    assert manifest["schema"] == "repro-observe-v1"
    assert manifest["reason"] == "watchdog:cycle-budget"
    window = manifest["windows"][0]["window"]
    # The window replays the last depth cycles up to the trip point.
    assert window.ncycles == 16
    assert window.cycles()[-1] == sim.ncycles


class _Crasher(Model):
    def __init__(s):
        s.out = OutPort(4)
        s.count = Wire(4)

        @s.tick_rtl
        def tick():
            if s.reset:
                s.count.next = 0
            else:
                s.count.next = (s.count + 1) & 0xF

        @s.combinational
        def comb():
            s.out.value = s.count

        @s.tick_fl
        def bomb():
            if s.count.value.uint() == 9:
                raise RuntimeError("injected fault at count 9")


def test_unhandled_cycle_exception_produces_bundle(tmp_path):
    out = tmp_path / "crash"
    sim = SimulationTool(_Crasher().elaborate())
    sim.flight_recorder(signals=["count"], depth=8,
                        autodump=str(out))
    sim.reset()
    with pytest.raises(RuntimeError, match="injected fault") as excinfo:
        sim.run(100)
    path = getattr(excinfo.value, "_observe_bundle", None)
    assert path is not None
    manifest = load_bundle(path)
    assert manifest["reason"] == "crash:cycle"
    assert "injected fault" in manifest["error"]
    # Only one bundle despite the exception crossing run()'s loop.
    assert len([f for f in os.listdir(out)
                if f.endswith(".json")]) == 1


def test_no_autodump_no_bundle(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_OBSERVE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    sim = SimulationTool(_Crasher().elaborate())
    sim.flight_recorder(signals=["count"], depth=8)   # no autodump
    sim.reset()
    with pytest.raises(RuntimeError, match="injected fault"):
        sim.run(100)
    assert not os.path.exists("observe_out")


def test_halting_watchpoint_does_not_double_dump(tmp_path):
    out = tmp_path / "halt"
    sim = _counter_sim()
    sim.flight_recorder(signals=["count"], depth=8, autodump=str(out))
    sim.watch(value_is("count", 4), name="stop", halt=True,
              dump=str(out))
    sim.model.en.value = 1
    with pytest.raises(WatchpointHit):
        sim.run(20)
    # One bundle from dump=, none from the crash path.
    bundles = [f for f in os.listdir(out) if f.endswith(".json")]
    assert len(bundles) == 1
    assert load_bundle(out / bundles[0])["reason"] == "watchpoint:stop"


# -- dump CLI -----------------------------------------------------------------


def _make_bundle(tmp_path):
    out = tmp_path / "cli"
    sim = _counter_sim()
    sim.flight_recorder(signals=["count", "par"], depth=16)
    sim.model.en.value = 1
    sim.run(8)
    sim.watch(rose("par"), name="parwatch")
    sim.run(2)
    from repro.observe import export_bundle
    return export_bundle(sim, str(out), reason="manual", tag="demo")


def test_dump_render_and_cli(tmp_path, capsys):
    path = _make_bundle(tmp_path)
    text = render(load_bundle(path))
    assert "manual at cycle" in text
    assert "count" in text and "par" in text
    assert "watchpoint 'parwatch'" in text
    # 1-bit lane uses waveform glyphs; multibit lane shows hex.
    assert any(g in text for g in ("/", "\\", "~", "_"))

    assert dump_main([str(path), "--last-n", "5"]) == 0
    out = capsys.readouterr().out
    assert "repro-observe bundle" in out
    assert dump_main([str(tmp_path / "missing.json")]) == 2


def test_load_bundle_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope", "windows": []}))
    with pytest.raises(ValueError, match="schema"):
        load_bundle(bad)


# -- telemetry integration ----------------------------------------------------


def test_telemetry_report_includes_observe_section():
    sim = _counter_sim()
    sim.flight_recorder(signals=["count"], depth=8)
    sim.watch(rose("par"), name="p")
    sim.model.en.value = 1
    sim.run(4)
    data = sim.telemetry.report().to_dict()
    obs = data["observe"]
    assert obs["recorders"][0]["signals"] == ["count"]
    assert obs["recorders"][0]["depth"] == 8
    assert obs["watchpoints"][0]["name"] == "p"
    assert obs["watchpoints"][0]["n_fires"] == 2  # par rose at 3 and 5
    assert "recorder: 1 signals" in sim.telemetry.report().summary()


# -- line_trace_sink satellite ------------------------------------------------


class _Traced(Model):
    def __init__(s):
        s.out = OutPort(4)
        s.count = Wire(4)

        @s.tick_rtl
        def tick():
            s.count.next = 0 if s.reset else (s.count + 1) & 0xF

        @s.combinational
        def comb():
            s.out.value = s.count

    def line_trace(s):
        return f"count={int(s.count.value)}"


def test_line_trace_sink_file(tmp_path):
    path = tmp_path / "trace.log"
    with SimulationTool(_Traced().elaborate(),
                        line_trace_sink=str(path)) as sim:
        sim.reset()
        sim.run(3)
    lines = path.read_text().splitlines()
    assert len(lines) == 5                        # 2 reset + 3 run
    assert lines[-1].endswith("count=3")
    assert lines[0].split(":")[0].strip() == "1"


def test_line_trace_sink_callable():
    seen = []
    sim = SimulationTool(_Traced().elaborate(),
                         line_trace_sink=seen.append)
    sim.reset()
    sim.run(2)
    assert len(seen) == 4
    assert seen[-1].endswith("count=2")


def test_line_trace_sink_keeps_stdout_silent(tmp_path, capsys):
    sim = SimulationTool(_Traced().elaborate(),
                         line_trace_sink=str(tmp_path / "t.log"))
    sim.reset()
    sim.cycle()
    sim.close()
    assert capsys.readouterr().out == ""


# -- doctests / package smoke -------------------------------------------------


def test_observe_package_doctest_smoke():
    import doctest
    import repro.observe.recorder as rmod
    import repro.observe.watchpoints as wmod
    for mod in (rmod, wmod):
        result = doctest.testmod(mod)
        assert result.failed == 0


# -- manifest error contract + trace attachment -------------------------------


def test_read_manifest_missing_file(tmp_path):
    from repro.observe.forensics import read_manifest
    with pytest.raises(FileNotFoundError):
        read_manifest(str(tmp_path / "nope.json"))


def test_read_manifest_truncated_json(tmp_path):
    """A bundle cut off mid-write (crashed worker, full disk) must
    surface as ValueError, not a raw JSONDecodeError surprise — the
    fleet aggregator catches ValueError when embedding manifests."""
    from repro.observe.forensics import read_manifest
    path = _make_bundle(tmp_path)
    with open(path) as handle:
        text = handle.read()
    truncated = tmp_path / "truncated.json"
    truncated.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError):
        read_manifest(str(truncated))


def test_read_manifest_wrong_schema(tmp_path):
    from repro.observe.forensics import read_manifest
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "repro-observe-v999"}))
    with pytest.raises(ValueError, match="schema"):
        read_manifest(str(bad))


def test_read_manifest_non_object(tmp_path):
    from repro.observe.forensics import read_manifest
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError, match="object"):
        read_manifest(str(bad))


def test_attach_trace_roundtrip(tmp_path):
    """attach_trace writes a sibling Chrome trace, references it from
    the manifest, and the result revalidates — the path the fleet
    uses to pin a host timeline onto a mismatch bundle."""
    from repro.observe.forensics import attach_trace, read_manifest
    from repro.telemetry import traceevent
    from repro.telemetry.tracing import Tracer

    path = _make_bundle(tmp_path)
    tracer = Tracer()
    with tracer.span("fleet.task", task="verif/demo"):
        with tracer.span("sim.run", ncycles=10):
            pass
    trace_path = attach_trace(path, tracer.events, name="verif/demo")

    manifest = read_manifest(path)
    assert manifest["trace"] == os.path.basename(trace_path)
    assert os.path.dirname(trace_path) == os.path.dirname(path)
    with open(trace_path) as handle:
        trace = json.load(handle)
    events = traceevent.validate(trace)
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert names == {"fleet.task", "sim.run"}
    assert any(e["ph"] == "M" and e["args"]["name"] == "verif/demo"
               for e in events)
