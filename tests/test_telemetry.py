"""Unified telemetry subsystem tests.

Covers the four pillars (counters, transaction tracing, self-profiling,
export) plus the observability satellites: counter totals must be
bit-identical across event mode, static mode, the compiled mega-cycle
kernel, and SimJIT specialization; Chrome-trace JSON must satisfy the
trace-event schema; the VCD writer must match a golden file and be
exception-safe; and the telemetry module doctests must pass.
"""

import doctest
import json

import pytest

from repro import (
    InPort,
    Model,
    OutPort,
    SimulationTool,
    Wire,
    set_telemetry_enabled,
    telemetry_enabled,
)
from repro.core.simjit import SimJITCL, SimJITRTL
from repro.mem import CacheCL, CacheRTL, MemMsg, MemReqMsg, TestMemory
from repro.net import MeshNetworkStructural, RouterCL, RouterRTL
from repro.net.traffic import NetworkTrafficHarness
from repro.telemetry import (
    Counter,
    Histogram,
    NullCounter,
    TelemetryReport,
    TxTracer,
)
from repro.tools import VCDWriter
from tests.test_checkpoint import _simulate_cl


# -- helpers ------------------------------------------------------------------------


def _mesh_sim(sched, collect_stats=False):
    net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    sim = SimulationTool(net, sched=sched, collect_stats=collect_stats)
    return net, sim


def _run_mesh_traffic(sched, collect_stats=False):
    net, sim = _mesh_sim(sched, collect_stats)
    harness = NetworkTrafficHarness(net, sim=sim, seed=7)
    harness.run_uniform_random(0.25, 120)
    return sim


class _CacheHarness(Model):
    def __init__(s, cache):
        s.cache = cache
        s.mem = TestMemory(nports=1, latency=2, size=1 << 16)
        s.connect(s.cache.mem_ifc.req, s.mem.ports[0].req)
        s.connect(s.cache.mem_ifc.resp, s.mem.ports[0].resp)


def _drive_cache(sim, port, reqs, max_cycles=500):
    """Blocking request/response loop (same protocol as test_mem)."""
    for req in reqs:
        port.req_msg.value = req
        port.req_val.value = 1
        port.resp_rdy.value = 1
        for _ in range(max_cycles):
            accepted = int(port.req_val) and int(port.req_rdy)
            sim.cycle()
            if accepted:
                break
        else:
            raise AssertionError("request never accepted")
        port.req_val.value = 0
        for _ in range(max_cycles):
            if int(port.resp_val) and int(port.resp_rdy):
                sim.cycle()
                port.resp_rdy.value = 0
                break
            sim.cycle()
        else:
            raise AssertionError("no response")


_CACHE_REQS = (
    [MemReqMsg.mk_wr(a * 4, a + 1) for a in range(8)]
    + [MemReqMsg.mk_rd(a * 4) for a in range(16)]
    # Conflict misses: stride-64 reads all land in the same set of a
    # 4-line cache, forcing evictions of valid lines.
    + [MemReqMsg.mk_rd(a * 64) for a in range(8)]
    + [MemReqMsg.mk_rd(a * 4) for a in range(8)]
)


def _run_cache(cache_cls, sched, **kwargs):
    harness = _CacheHarness(
        cache_cls(MemMsg(), MemMsg(), **kwargs)).elaborate()
    simulate = _simulate_cl if cache_cls is CacheCL else SimulationTool
    sim = simulate(harness, sched=sched)
    sim.reset()
    _drive_cache(sim, harness.cache.cpu_ifc, _CACHE_REQS)
    return harness, sim


# -- counter basics ------------------------------------------------------------------


def test_counter_kinds_and_values():
    class _M(Model):
        def __init__(s):
            s.w = Wire(8)
            s.n = 3
            s.lst = [10, 20]
            s.c_py = s.counter("py")
            s.c_sig = s.counter("sig", sig=s.w)
            s.c_state = s.counter("st", state=("n",))
            s.c_elem = s.counter("el", state=("lst", 1))

    m = _M()
    m.c_py.incr(5)
    assert m.c_py.value == 5 and m.c_py.kind == "python"
    assert m.c_sig.value == 0 and m.c_sig.kind == "signal"
    assert m.c_state.value == 3 and m.c_state.kind == "state"
    assert m.c_elem.value == 20
    with pytest.raises(TypeError, match="backed"):
        m.c_sig.incr()
    with pytest.raises(ValueError, match="duplicate"):
        m.counter("py")


def test_counters_collected_hierarchically():
    _, sim = _mesh_sim("static")
    counters = sim.telemetry.counters()
    assert "top.routers[0].flits_out0" in counters
    # 4 routers x 5 ports x 2 counters
    assert len(counters) == 4 * 5 * 2
    subtrees = sim.telemetry.subtree_totals()
    assert "top.routers[3]" in subtrees
    assert set(subtrees["top.routers[3]"]) == {
        f"{k}{o}" for k in ("flits_out", "stalls_out") for o in range(5)
    }


def test_histogram_percentiles():
    h = Histogram("lat")
    for v, n in [(1, 90), (4, 9), (40, 1)]:
        h.observe(v, n)
    assert h.count == 100 and h.max == 40 and h.min == 1
    assert h.percentile(0.5) == 1
    assert h.percentile(0.95) == 4
    assert h.percentile(1.0) == 40


# -- the zero-overhead-when-disabled contract ----------------------------------------


def test_disabled_telemetry_registers_nothing():
    prev = set_telemetry_enabled(False)
    try:
        assert not telemetry_enabled()
        net_off = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2)
        net_off.elaborate()
        assert net_off._all_counters == {}
        # Telemetry-only tick blocks are not declared at all.
        nticks_off = sum(len(m.get_tick_blocks())
                         for m in net_off._all_models)
    finally:
        set_telemetry_enabled(prev)
    net_on = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    nticks_on = sum(len(m.get_tick_blocks())
                    for m in net_on._all_models)
    assert nticks_on == nticks_off + 4   # one telemetry tick per router
    assert len(net_on._all_counters) == 40


def test_disabled_declarations_return_null_counter():
    prev = set_telemetry_enabled(False)
    try:
        class _M(Model):
            def __init__(s):
                s.w = Wire(4)
                s.c = s.counter("c")
                s.h = s.histogram("h")
                s.cs = s.counter("cs", sig=s.w)

        m = _M()
        assert isinstance(m.c, NullCounter)
        m.c.incr()
        m.h.observe(9)
        assert m.c.value == 0 and m.h.count == 0
        # Backed declarations still read their storage but register
        # nothing.
        assert isinstance(m.cs, Counter)
        assert m._telemetry_counters == {}
    finally:
        set_telemetry_enabled(prev)


# -- mode equivalence: counters must not depend on the schedule ----------------------


def test_mesh_counters_identical_event_static_kernel():
    sims = {
        "event": _run_mesh_traffic("event"),
        "static": _run_mesh_traffic("static"),
        "stats": _run_mesh_traffic("static", collect_stats=True),
    }
    # The static run must actually exercise the compiled kernel, and
    # the stats run must exercise the interpreted path.
    assert sims["static"]._kernel is not None
    assert sims["stats"]._kernel is None
    counts = {k: sim.telemetry.counters() for k, sim in sims.items()}
    assert counts["event"] == counts["static"] == counts["stats"]
    assert sum(counts["event"].values()) > 0


@pytest.mark.parametrize("cache_cls,kwargs", [
    (CacheCL, {"nlines": 4}),
    (CacheRTL, {"nlines": 4}),
    (CacheCL, {"nlines": 4, "assoc": 2}),
])
def test_cache_counters_identical_event_static(cache_cls, kwargs):
    results = {}
    for sched in ("event", "static"):
        harness, sim = _run_cache(cache_cls, sched, **kwargs)
        results[sched] = sim.telemetry.counters()
        # Sanity: the workload really hits/misses/evicts.
        assert results[sched]["top.cache.accesses"] == len(_CACHE_REQS)
        assert results[sched]["top.cache.misses"] > 0
        assert results[sched]["top.cache.evictions"] > 0
        assert results[sched]["top.cache.writebacks"] == 8
    assert results["event"] == results["static"]


def test_counters_advance_inside_kernel_run():
    """sim.run()'s fast path executes the compiled kernel; wire-backed
    counter increments are compiled into it."""

    class _Ctr(Model):
        def __init__(s):
            s.en = InPort(1)
            s.out = OutPort(8)
            s.ticks = Wire(32)
            s.counter("ticks", sig=s.ticks)

            @s.tick_rtl
            def logic():
                if s.reset:
                    s.ticks.next = 0
                elif s.en:
                    s.ticks.next = s.ticks + 1
                s.out.next = s.ticks.value

    m = _Ctr().elaborate()
    sim = SimulationTool(m, sched="static")
    assert sim._kernel is not None
    sim.reset()
    m.en.value = 1
    sim.run(25)
    assert sim.telemetry.counters() == {"top.ticks": 25}


# -- SimJIT survival -----------------------------------------------------------------


def _drive_router(router, ncycles=20):
    sim = SimulationTool(router.elaborate()
                         if not router.is_elaborated() else router)
    sim.reset()
    for o in range(5):
        router.out[o].rdy.value = 1
    dest_lo, _ = router.msg_type.field_slice("dest")
    router.in_[0].msg.value = 1 << dest_lo    # dest=1 -> east
    router.in_[0].val.value = 1
    for _ in range(ncycles):
        sim.cycle()
    return {name: ctr.value
            for name, ctr in router._telemetry_counters.items()}


def test_counters_survive_simjit_cl():
    plain = _drive_router(RouterCL(0, 4, 64, 16, 2))
    jit = SimJITCL(RouterCL(0, 4, 64, 16, 2)).specialize()
    jitted = _drive_router(jit.elaborate())
    assert plain == jitted
    assert jitted["flits_out2"] > 0


def test_counters_survive_simjit_rtl():
    plain = _drive_router(RouterRTL(0, 4, 64, 16, 2).elaborate())
    jit = SimJITRTL(RouterRTL(0, 4, 64, 16, 2).elaborate()).specialize()
    jitted = _drive_router(jit.elaborate())
    assert plain == jitted
    assert jitted["flits_out2"] > 0


# -- transaction tracing -------------------------------------------------------------


def _traced_cache_run():
    harness = _CacheHarness(
        CacheCL(MemMsg(), MemMsg(), nlines=4)).elaborate()
    sim = SimulationTool(harness)
    tracer = sim.telemetry.trace()
    req_tap = tracer.tap(harness.cache.cpu_ifc.req, "cpu_req")
    resp_tap = tracer.tap(harness.cache.cpu_ifc.resp, "cpu_resp")
    tracer.pair("cpu_req", "cpu_resp", name="cpu")
    sim.reset()
    tracer.reset_monitors()
    _drive_cache(sim, harness.cache.cpu_ifc, _CACHE_REQS)
    return sim, tracer, req_tap, resp_tap


def test_tracer_counts_transfers_and_latency():
    sim, tracer, req_tap, resp_tap = _traced_cache_run()
    assert len(req_tap.transfers) == len(_CACHE_REQS)
    assert len(resp_tap.transfers) == len(_CACHE_REQS)
    assert not req_tap.violations and not resp_tap.violations
    lat = tracer.latency_histogram("cpu")
    assert lat.count == len(_CACHE_REQS)
    assert lat.min >= 1                    # every response takes a cycle
    assert lat.max >= 4                    # refills are multi-cycle
    occ = tracer.occupancy_histogram("cpu")
    assert occ.max >= 1                    # blocking cache: <=1 in flight
    summary = tracer.summary()
    assert summary["taps"]["cpu_req"]["transfers"] == len(_CACHE_REQS)
    assert summary["pairs"]["cpu"]["matched"] == len(_CACHE_REQS)


def test_chrome_trace_schema(tmp_path):
    sim, tracer, req_tap, _ = _traced_cache_run()
    path = tmp_path / "cache.trace.json"
    tracer.write_chrome_trace(path)
    with open(path) as handle:
        trace = json.load(handle)

    assert set(trace) == {"traceEvents", "displayTimeUnit", "metadata"}
    events = trace["traceEvents"]
    by_phase = {}
    for ev in events:
        assert {"ph", "pid"} <= set(ev)
        by_phase.setdefault(ev["ph"], []).append(ev)
    # Process metadata + one thread_name per tap.
    assert len(by_phase["M"]) == 1 + len(tracer.taps)
    # One complete event per transfer, with the required fields.
    xfers = by_phase["X"]
    assert len(xfers) == sum(len(t.transfers) for t in tracer.taps)
    for ev in xfers:
        assert isinstance(ev["ts"], float) and ev["dur"] == 1.0
        assert ev["args"]["msg"].startswith("0x")
    # Async begin/end events pair up by id.
    begins = {ev["id"] for ev in by_phase["b"]}
    ends = {ev["id"] for ev in by_phase["e"]}
    assert begins == ends and len(begins) == len(_CACHE_REQS)


def test_tap_model_discovers_bundles():
    net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    tracer = TxTracer()
    taps = tracer.tap_model(net, prefix="net.")
    names = {tap.name for tap in taps}
    assert "net.in_[0]" in names and "net.out[3]" in names
    assert len(taps) == 8   # 4 terminal inputs + 4 terminal outputs


# -- self-profiling ------------------------------------------------------------------


def test_profiler_phases_and_blocks():
    net, sim = _mesh_sim("static")
    assert sim.profiler is None
    net2 = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    sim2 = SimulationTool(net2, sched="static", profile=True)
    # Profiling forces the interpreted path and records why.
    assert sim2._kernel is None
    assert any("profile" in r for r in sim2._kernel_refused)
    sim2.reset()
    sim2.run(10)
    prof = sim2.profiler
    assert prof.cycles >= 10
    assert prof.cycles_per_sec > 0
    report = prof.report(sim2)
    assert set(report["phase_seconds"]) == {
        "settle_pre", "hooks", "tick", "flop", "settle_post"}
    assert report["hot_blocks"] and report["sched"]["mode"] == "static"
    named = [blk["name"] for blk in report["hot_blocks"]]
    assert any("routers" in name for name in named)
    assert "cycles/sec" in prof.summary(sim2)


# -- export schema -------------------------------------------------------------------


def test_report_schema_and_serialization(tmp_path):
    sim = _run_mesh_traffic("static")
    report = sim.telemetry.report()
    data = report.to_dict()
    assert data["schema"] == TelemetryReport.SCHEMA
    assert set(data) == {
        "schema", "design", "ncycles", "num_events", "sched",
        "counters", "subtrees", "leaf_totals", "derived",
        "histograms", "transactions", "profile", "observe",
    }
    assert data["observe"] is None      # observatory idle
    assert data["design"] == "MeshNetworkStructural"
    assert data["sched"]["kernel"] is True
    total = sum(v for k, v in data["leaf_totals"].items()
                if k.startswith("flits"))
    assert total == sum(v for k, v in data["counters"].items()
                        if "flits" in k) > 0

    json_path = tmp_path / "report.json"
    assert json.loads(report.to_json(json_path)) == data
    with open(json_path) as handle:
        assert json.load(handle) == data

    csv_path = tmp_path / "report.csv"
    csv_text = report.to_csv(csv_path)
    lines = csv_text.splitlines()
    assert lines[0] == "kind,name,value"
    assert len(lines) == 1 + len(data["counters"])
    assert "telemetry report: MeshNetworkStructural" in report.summary()


def test_report_derives_cpi():
    class _Proc(Model):
        def __init__(s):
            s.num_instrs = 0
            s.counter("insts_retired", state=("num_instrs",))

            @s.tick_fl
            def logic():
                if not s.reset:
                    s.num_instrs += 1

    sim = SimulationTool(_Proc().elaborate())
    sim.reset()
    sim.run(10)
    report = sim.telemetry.report()
    retired = report.counters["top.insts_retired"]
    assert retired > 0
    assert report.derived["top.cpi"] == sim.ncycles / retired


def test_activity_requires_collect_stats():
    _, sim = _mesh_sim("static")
    with pytest.raises(ValueError, match="collect_stats"):
        sim.telemetry.activity()


# -- VCD golden file and exception safety --------------------------------------------


class _VcdCounter(Model):
    def __init__(s):
        s.en = InPort(1)
        s.count = OutPort(4)

        @s.tick_rtl
        def logic():
            if s.reset:
                s.count.next = 0
            elif s.en:
                s.count.next = s.count + 1


def _write_vcd(path):
    with VCDWriter(path) as vcd:
        model = _VcdCounter().elaborate()
        sim = SimulationTool(model, vcd=vcd)
        sim.reset()
        model.en.value = 1
        sim.run(6)
        model.en.value = 0
        sim.run(2)


def test_vcd_matches_golden(tmp_path):
    import os
    path = tmp_path / "counter.vcd"
    _write_vcd(path)
    with open(path) as handle:
        got = handle.read()
    golden_path = os.path.join(
        os.path.dirname(__file__), "golden", "vcd_counter.vcd")
    with open(golden_path) as handle:
        golden = handle.read()
    assert got == golden
    # Timesteps are sparse: every #<cycle> line is followed by at
    # least one value change (cycle 2 of this run — reset held, no
    # activity — must emit nothing).
    lines = got.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("#"):
            assert i + 1 < len(lines) and not lines[i + 1].startswith("#")
    assert "#2\n" not in got
    assert "#10" not in got                     # idle tail cycles


def test_vcd_closes_on_exception(tmp_path):
    path = tmp_path / "crash.vcd"
    with pytest.raises(RuntimeError, match="boom"):
        with VCDWriter(path) as vcd:
            model = _VcdCounter().elaborate()
            sim = SimulationTool(model, vcd=vcd)
            sim.reset()
            sim.run(3)
            raise RuntimeError("boom")
    assert vcd._closed
    # The file is complete up to the failure point: header + samples.
    with open(path) as handle:
        text = handle.read()
    assert "$enddefinitions" in text and "#3" in text
    vcd.close()                                  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        vcd.sample(99)


def test_vcd_lazy_open(tmp_path):
    path = tmp_path / "never.vcd"
    vcd = VCDWriter(path)
    vcd.close()
    assert not path.exists()


def test_simulation_tool_close_closes_vcd(tmp_path):
    path = tmp_path / "simclose.vcd"
    vcd = VCDWriter(path)
    model = _VcdCounter().elaborate()
    with SimulationTool(model, vcd=vcd) as sim:
        sim.reset()
        sim.run(2)
    assert vcd._closed
    sim.close()                                  # idempotent


# -- doctests ------------------------------------------------------------------------


@pytest.mark.parametrize("modname", [
    "repro.telemetry.counters",
])
def test_telemetry_doctests(modname):
    import importlib
    mod = importlib.import_module(modname)
    result = doctest.testmod(mod)
    assert result.attempted > 0
    assert result.failed == 0


# -- reset() vs telemetry ------------------------------------------------------------


def test_reset_zeroes_python_counters_and_histograms():
    """reset() must agree with a fresh simulator: python-kind counters
    (no signal/state backing) and histograms restart from zero, and a
    deterministic re-run reproduces the first run's totals exactly."""

    class _Instrumented(Model):
        def __init__(s):
            s.out = OutPort(8)
            s.acc = Wire(8)
            s.events = s.counter("events")
            s.lat = s.histogram("lat")

            @s.tick_rtl
            def seq():
                if s.reset:
                    s.acc.next = 0
                else:
                    s.acc.next = s.acc.value + 1
                    s.events.incr()
                    s.lat.observe(int(s.acc.value) % 4)
                s.out.next = s.acc.value

    m = _Instrumented().elaborate()
    sim = SimulationTool(m)

    def run_once():
        sim.reset()
        sim.run(25)
        return (dict(sim.telemetry.counters()),
                {k: dict(h.bins)
                 for k, h in m._all_histograms.items()})

    first = run_once()
    assert first[0]["top.events"] == 25
    assert sum(first[1]["top.lat"].values()) == 25

    # Mid-run reset: totals accumulated so far must not leak into the
    # next run's telemetry.
    sim.reset()
    sim.run(7)
    assert sim.telemetry.counters()["top.events"] == 7
    second = run_once()
    assert second == first


@pytest.mark.parametrize("sched", ["event", "static"])
def test_reset_rerun_matches_fresh_sim_on_mesh(sched):
    """After reset() a mesh re-run produces the same counter totals as
    a brand-new simulator — including under the static schedule, whose
    gating flags must be re-armed in place."""

    def drive(net, sim, ncycles):
        for cyc in range(ncycles):
            for i in range(4):
                net.in_[i].val.value = 1 if (cyc + i) % 3 else 0
                net.in_[i].msg.value = ((cyc + i) % 4) << 14
                net.out[i].rdy.value = 1
            sim.cycle()
        return dict(sim.telemetry.counters())

    net, sim = _mesh_sim(sched)
    sim.reset()
    fresh = drive(net, sim, 60)
    sim.reset()
    again = drive(net, sim, 60)
    assert again == fresh
