"""Host-span tracing and the fleet observability plane.

Four layers under test, bottom-up:

1. **Tracer** (:mod:`repro.telemetry.tracing`) — hierarchical spans
   with per-thread depth, ring-buffer eviction accounting, the
   drain-for-streaming primitive, and a disarmed path that is a
   shared no-op object.
2. **Serializer** (:mod:`repro.telemetry.traceevent`) — the one
   Chrome trace-event writer every producer shares: a golden file
   pins the wire format, and ``validate`` rejects malformed traces.
3. **Instrumented framework** — a SimJIT-specialized simulation run
   emits elaborate/schedule/compile/run spans; the watchdog emits a
   ``watchdog.fire`` instant; span records feed ``SimProfiler`` phase
   attribution (the path that works even under the compiled kernel).
4. **Fleet plane** (:mod:`repro.fleet.live` + runner side-channel) —
   the deterministic ``repro-fleet-v1`` report bytes are identical
   with tracing on or off at 1/2/4 workers; the merged campaign
   trace validates, has one pid track per worker, and nests
   elaborate/schedule/compile/run under every task span; per-kind
   duration stats ride in ``FleetResult.stats``.
"""

import io
import json
import os
import threading

import pytest

from repro import Model, OutPort, SimulationTool, Wire
from repro.fleet import (
    BenchPointTask,
    Campaign,
    FaultSweepTask,
    VerifSweepTask,
    run_campaign,
)
from repro.fleet.live import LiveCollector, Ticker, worker_snapshot
from repro.resilience import Watchdog, WatchdogTimeout
from repro.telemetry import traceevent, tracing
from repro.telemetry.profile import SimProfiler
from repro.telemetry.tracing import Tracer


@pytest.fixture(autouse=True)
def _always_disarmed():
    """No test may leak an armed process-global tracer."""
    yield
    tracing.disarm()


# -- 1. tracer core -----------------------------------------------------------


def test_span_records_and_nesting_depth():
    tracer = Tracer()
    with tracer.span("outer", task="t0"):
        with tracer.span("inner"):
            pass
    outer = [r for r in tracer.events if r["name"] == "outer"][0]
    inner = [r for r in tracer.events if r["name"] == "inner"][0]
    assert outer["ph"] == "X" and inner["ph"] == "X"
    assert outer["depth"] == 0 and inner["depth"] == 1
    assert outer["pid"] == os.getpid()
    assert outer["tid"] == threading.get_ident()
    assert outer["args"] == {"task": "t0"} and inner["args"] is None
    # Monotonic-int timestamps; the child interval nests in the parent.
    for rec in (outer, inner):
        assert isinstance(rec["ts"], int) and isinstance(rec["dur"], int)
        assert rec["dur"] >= 0
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]


def test_span_set_attrs_and_error_capture():
    tracer = Tracer()
    with tracer.span("task") as sp:
        sp.set(status="ok", n=3)
    assert tracer.events[-1]["args"] == {"status": "ok", "n": 3}
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("nope")
    rec = tracer.events[-1]
    assert rec["args"]["error"] == "RuntimeError"
    # Depth restored after the exception unwound the span.
    with tracer.span("after"):
        pass
    assert tracer.events[-1]["depth"] == 0


def test_instant_and_add_span():
    tracer = Tracer()
    tracer.instant("mark", cycle=41)
    tracer.add_span("ext", 1000, 3500, design="X")
    inst, ext = tracer.events
    assert inst["ph"] == "i" and "dur" not in inst
    assert inst["args"] == {"cycle": 41}
    assert ext == {"name": "ext", "ph": "X", "ts": 1000, "dur": 2500,
                   "pid": os.getpid(), "tid": threading.get_ident(),
                   "depth": 0, "args": {"design": "X"}}


def test_ring_buffer_eviction_counted():
    tracer = Tracer(capacity=4)
    for i in range(10):
        tracer.instant(f"e{i}")
    assert len(tracer) == 4
    assert tracer.dropped == 6
    assert [r["name"] for r in tracer.events] == ["e6", "e7", "e8", "e9"]


def test_drain_empties_the_ring():
    tracer = Tracer()
    for i in range(5):
        tracer.instant(f"e{i}")
    first = tracer.drain()
    assert [r["name"] for r in first] == [f"e{i}" for i in range(5)]
    assert len(tracer) == 0 and tracer.drain() == []
    tracer.instant("late")
    assert [r["name"] for r in tracer.drain()] == ["late"]


def test_threads_get_independent_depth_and_tids():
    tracer = Tracer()
    done = threading.Event()

    def other():
        with tracer.span("thread-span"):
            done.wait(5.0)

    t = threading.Thread(target=other)
    with tracer.span("main-span"):
        t.start()
        done.set()
        t.join()
    recs = {r["name"]: r for r in tracer.events}
    assert recs["thread-span"]["tid"] != recs["main-span"]["tid"]
    # Concurrent, not nested: each thread's depth counter is its own.
    assert recs["thread-span"]["depth"] == 0
    assert recs["main-span"]["depth"] == 0


def test_disarmed_helpers_are_noops():
    assert tracing.active() is None
    sp = tracing.span("anything", n=1)
    # One shared null object — no per-call allocation when disarmed.
    assert sp is tracing.span("other")
    with sp as inner:
        inner.set(status="ignored")
    tracing.instant("dropped")     # swallowed, no error


def test_arm_disarm_roundtrip():
    tracer = tracing.arm(capacity=128)
    assert tracing.active() is tracer
    assert tracer.capacity == 128
    with tracing.span("via-module", k=1):
        tracing.instant("inside")
    assert [r["name"] for r in tracer.events] == ["inside", "via-module"]
    assert tracer.events[0]["depth"] == 1    # instant saw the open span
    assert tracing.disarm() is tracer
    assert tracing.active() is None and tracing.disarm() is None


# -- 2. shared serializer -----------------------------------------------------


def _golden_events():
    return [
        traceevent.process_name(1, "worker 0 (pid 1)"),
        traceevent.process_sort_index(1, 0),
        traceevent.thread_name(1, 10, "main"),
        traceevent.complete("fleet.task", 1, 10, 0.0, 1500.0, cat="host",
                            args={"task": "verif/cache/a",
                                  "kind": "verif"}),
        traceevent.complete("sim.run", 1, 10, 100.0, 900.0, cat="host",
                            args={"design": "CacheRTL", "ncycles": 64}),
        traceevent.instant("watchdog.fire", 1, 10, 650.0, cat="host",
                           args={"kind": "cycle-budget", "cycle": 40}),
        traceevent.async_begin("xact", 1, 10, 120.0, id=3, cat="latency"),
        traceevent.async_end("xact", 1, 10, 480.0, id=3, cat="latency"),
        traceevent.counter("fleet", 1, 1500.0,
                           {"tasks_done": 1, "tasks_failed": 0}),
    ]


def test_trace_event_golden_file(tmp_path):
    """The serialized wire format is pinned byte-for-byte: every
    producer (txtrace, host tracer, fleet collector) shares this
    writer, so a drift here would silently re-shape all of them."""
    trace = traceevent.trace_object(
        _golden_events(), metadata={"campaign": "golden"})
    path = traceevent.write_trace(str(tmp_path / "t.json"), trace)
    with open(path) as handle:
        got = handle.read()
    golden_path = os.path.join(
        os.path.dirname(__file__), "golden", "trace_events.json")
    with open(golden_path) as handle:
        assert got == handle.read()


def test_validate_accepts_own_output():
    trace = traceevent.trace_object(_golden_events())
    events = traceevent.validate(trace)
    assert len(events) == len(_golden_events())


@pytest.mark.parametrize("mutate, match", [
    (lambda t: t.pop("traceEvents"), "traceEvents"),
    (lambda t: t["traceEvents"].append({"ph": "?", "pid": 1, "tid": 0,
                                        "name": "x"}),
     "unknown phase"),
    (lambda t: t["traceEvents"][3].pop("dur"), "dur"),
    (lambda t: t["traceEvents"][3].pop("pid"), "pid"),
    (lambda t: t["traceEvents"].append(
        traceevent.async_end("xact", 1, 10, 900.0, id=99,
                             cat="latency")),
     "async end without begin"),
    (lambda t: t["traceEvents"].pop(7), "unclosed async"),
])
def test_validate_rejects_malformed(mutate, match):
    trace = traceevent.trace_object(_golden_events())
    mutate(trace)
    with pytest.raises(ValueError, match=match):
        traceevent.validate(trace)


def test_tracer_chrome_trace_validates():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    tracer.instant("mark")
    trace = tracer.chrome_trace()
    events = traceevent.validate(trace)
    slices = [e for e in events if e["ph"] == "X"]
    # ns records became us events, rebased near zero.
    assert {e["name"] for e in slices} == {"a", "b"}
    assert all(e["ts"] >= 0.0 for e in slices)
    assert any(e["ph"] == "M" and e["name"] == "process_name"
               for e in events)


# -- 3. instrumented framework ------------------------------------------------


class _TickModel(Model):
    def __init__(s):
        s.out = OutPort(8)
        s.cnt = Wire(8)

        @s.tick_rtl
        def seq():
            if s.reset:
                s.cnt.next = 0
            else:
                s.cnt.next = (s.cnt + 1) & 0xFF
            s.out.next = s.cnt.value


def test_simulation_emits_host_spans():
    """One static-kernel sim run emits the core span vocabulary:
    elaborate, schedule build, kernel compile, reset, run batch."""
    from repro.net import MeshNetworkStructural, RouterRTL

    tracer = tracing.arm()
    net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    sim = SimulationTool(net, sched="static")
    assert sim._kernel is not None
    sim.reset()
    start = sim.ncycles
    sim.run(10)
    tracing.disarm()

    by_name = {}
    for rec in tracer.events:
        by_name.setdefault(rec["name"], []).append(rec)
    for required in ("sim.elaborate", "sim.schedule", "sim.compile",
                     "sim.reset", "sim.run"):
        assert required in by_name, sorted(by_name)
    assert by_name["sim.elaborate"][0]["args"]["design"] \
        == "MeshNetworkStructural"
    run = by_name["sim.run"][-1]
    assert run["args"]["ncycles"] == 10
    assert run["args"]["start_cycle"] == start


def test_specializer_emits_compile_span_with_phases():
    """SimJIT specialization emits a simjit.compile span carrying the
    cache_hit attribute, with the per-phase timers (elab/cgen/comp/...)
    nested inside it."""
    from repro.components import Register
    from repro.core.simjit import SimJITRTL

    tracer = tracing.arm()
    SimJITRTL(Register(8).elaborate()).specialize()
    tracing.disarm()

    by_name = {}
    for rec in tracer.events:
        by_name.setdefault(rec["name"], []).append(rec)
    assert "simjit.compile" in by_name, sorted(by_name)
    compile_rec = by_name["simjit.compile"][0]
    assert isinstance(compile_rec["args"]["cache_hit"], bool)
    # The specializer's phase timers land inside the compile span.
    phases = [n for n in by_name
              if n.startswith("simjit.") and n != "simjit.compile"]
    assert phases, sorted(by_name)
    lo = compile_rec["ts"]
    hi = lo + compile_rec["dur"]
    for name in phases:
        for rec in by_name[name]:
            assert lo <= rec["ts"] <= rec["ts"] + rec["dur"] <= hi


def test_runtime_load_is_one_span_per_process(gcc_runs):
    """A process finds or builds the SimJIT runtime once, inside one
    ``simjit.runtime`` span: on an empty cache the first compiled
    traffic run shows it with the gcc time inside (``cache_hit``
    False), later runs show none, and a new process on the warm cache
    shows it once more, a hit."""
    from repro.core.simjit import auto_specialize, specializer
    from repro.net import MeshNetworkStructural, NetworkTrafficHarness
    from repro.net import RouterRTL

    def runtime_spans(runs):
        tracer = tracing.arm()
        for seed in range(runs):
            net = auto_specialize(
                MeshNetworkStructural(RouterRTL, 4, 256, 32, 2))
            stats = NetworkTrafficHarness(
                net.elaborate(), seed=seed).run_uniform_random(0.3, 40)
            assert stats.driver == "compiled"
        tracing.disarm()
        return [rec["args"] for rec in tracer.events
                if rec["name"] == "simjit.runtime"]

    assert runtime_spans(2) == [{"cache_hit": False}]
    assert gcc_runs == ["design", "runtime"]
    assert runtime_spans(1) == []
    specializer._runtime.cache_clear()      # as a new process would
    assert runtime_spans(1) == [{"cache_hit": True}]
    assert gcc_runs == ["design", "runtime"]


def test_watchdog_fire_emits_instant():
    tracer = tracing.arm()
    sim = SimulationTool(_TickModel().elaborate())
    sim.reset()
    wd = Watchdog(sim, max_cycles=32, check_every=16)
    with pytest.raises(WatchdogTimeout):
        wd.run(1000)
    tracing.disarm()
    fires = [r for r in tracer.events if r["name"] == "watchdog.fire"]
    assert len(fires) == 1
    assert fires[0]["ph"] == "i"
    assert fires[0]["args"]["kind"] == "cycle-budget"
    assert fires[0]["args"]["cycle"] == sim.ncycles


def test_profiler_ingests_spans_with_self_time():
    """Span-fed phase attribution: each span contributes duration
    minus enclosed children, so totals add up instead of
    double-counting — the path that works under SimJIT, where the
    interpreted per-phase timers never run."""
    pid, tid = 1, 1
    records = [
        {"name": "sim.run", "ph": "X", "ts": 0, "dur": 2_000_000_000,
         "pid": pid, "tid": tid, "depth": 0, "args": {"ncycles": 100}},
        {"name": "simjit.compile", "ph": "X", "ts": 200_000_000,
         "dur": 500_000_000, "pid": pid, "tid": tid, "depth": 1,
         "args": None},
        {"name": "watchdog.fire", "ph": "i", "ts": 1_000_000_000,
         "pid": pid, "tid": tid, "depth": 1, "args": None},
    ]
    prof = SimProfiler().ingest_spans(records)
    assert prof.phase_time["sim.run"] == pytest.approx(1.5)
    assert prof.phase_time["simjit.compile"] == pytest.approx(0.5)
    assert prof.cycles == 100
    assert prof.total_time == pytest.approx(2.0)
    assert prof.cycles_per_sec == pytest.approx(50.0)


def test_profiler_from_tracer_roundtrip():
    tracer = Tracer()
    with tracer.span("sim.run", ncycles=7):
        with tracer.span("simjit.compile"):
            pass
    prof = SimProfiler.from_tracer(tracer)
    assert prof.cycles == 7
    assert prof.phase_time["sim.run"] >= 0.0
    assert "simjit.compile" in prof.phase_time
    assert "sim.run" in prof.summary()


# -- 4. fleet observability plane ---------------------------------------------


def _tiny_campaign():
    """One task of each kind, sized for test wall clock."""
    return Campaign("trace-tiny", 7, [
        VerifSweepTask("verif/cache", scenario="cache", ntxns=30),
        FaultSweepTask("fault/link", npackets=30),
        BenchPointTask("bench/mesh", design="mesh_traffic",
                       params={"nrouters": 4, "rate": 0.2,
                               "ncycles": 120}),
    ])


_RUNS = {}


def _run(nworkers, trace):
    """Campaign runs are expensive; share them across assertions."""
    key = (nworkers, trace)
    if key not in _RUNS:
        _RUNS[key] = run_campaign(_tiny_campaign(), nworkers=nworkers,
                                  trace=trace)
    return _RUNS[key]


def test_report_bytes_identical_with_tracing_on():
    """The observability plane is pure side-channel: the deterministic
    repro-fleet-v1 report bytes cannot change with tracing on at any
    worker count."""
    baseline = _run(1, trace=False).report_json()
    for nworkers in (1, 2, 4):
        assert _run(nworkers, trace=True).report_json() == baseline
    report = json.loads(baseline)
    assert report["schema"] == "repro-fleet-v1"
    assert report["status"] == "ok"


def test_merged_campaign_trace_validates():
    res = _run(2, trace=True)
    trace = res.chrome_trace()
    events = traceevent.validate(trace)
    span_pids = {e["pid"] for e in events if e["ph"] == "X"}
    assert span_pids, "campaign trace has no spans"
    assert 1 <= len(span_pids) <= 2    # one pid track per worker
    # Every contributing pid gets exactly one name + sort index track
    # header; all spans rebase onto one shared non-negative timeline.
    for pid in span_pids:
        names = [e for e in events if e["ph"] == "M"
                 and e["name"] == "process_name" and e["pid"] == pid]
        assert len(names) == 1
        assert names[0]["args"]["name"].startswith("worker ")
    assert all(e["ts"] >= 0.0 for e in events if e["ph"] != "M")
    assert trace["metadata"]["campaign"] == "trace-tiny"


def test_task_spans_nest_the_simulation_phases():
    """Every fleet.task span encloses the elaborate/schedule/compile/
    run spans of the simulation it drove, per (pid, tid) interval
    containment — the nesting Perfetto renders."""
    res = _run(2, trace=True)
    records = [r for pid_recs in res.trace.spans_by_pid.values()
               for r in pid_recs]
    tasks = [r for r in records
             if r["name"] == "fleet.task" and r["ph"] == "X"]
    assert {t["args"]["task"] for t in tasks} \
        == {"verif/cache", "fault/link", "bench/mesh"}
    for task in tasks:
        lo, hi = task["ts"], task["ts"] + task["dur"]
        inside = {r["name"] for r in records
                  if r is not task and r["ph"] == "X"
                  and r["pid"] == task["pid"]
                  and r["tid"] == task["tid"]
                  and lo <= r["ts"] and r["ts"] + r["dur"] <= hi}
        for required in ("sim.elaborate", "sim.schedule",
                         "sim.compile", "sim.run"):
            assert required in inside, \
                (task["args"]["task"], sorted(inside))
        assert task["args"]["status"] == "ok"


def test_fleet_stats_task_kind_percentiles():
    res = _run(2, trace=True)
    kinds = res.stats["task_kinds"]
    assert set(kinds) == {"verif", "fault", "bench"}
    for stats in kinds.values():
        assert stats["count"] >= 1
        assert 0.0 <= stats["p50"] <= stats["p95"] <= stats["max"]
        assert stats["total"] >= stats["max"]


def test_collector_metrics_and_counters():
    res = _run(2, trace=True)
    collector = res.trace
    assert collector.metrics_by_pid
    assert collector.cycles > 0
    for snap in collector.metrics_by_pid.values():
        assert snap["tasks_done"] >= 1
        assert snap["rss_bytes"] > 0
    # Telemetry counters crossed the side-channel too.
    assert collector.counter_totals()


def test_trace_flag_off_means_no_collector():
    assert _run(1, trace=False).trace is None
    with pytest.raises(ValueError):
        _run(1, trace=False).chrome_trace()


def test_collector_is_arrival_order_free():
    """The merged trace depends only on record content, never on the
    order side-channel messages happened to arrive."""
    def mk_records(pid):
        return [{"name": "fleet.task", "ph": "X", "ts": 1000 * pid,
                 "dur": 500, "pid": pid, "tid": 1, "depth": 0,
                 "args": None},
                {"name": "sim.run", "ph": "X", "ts": 1000 * pid + 100,
                 "dur": 200, "pid": pid, "tid": 1, "depth": 1,
                 "args": {"ncycles": 5}}]

    messages = [
        ("spans", 11, mk_records(11)),
        ("spans", 12, mk_records(12)),
        ("metrics", 11, worker_snapshot(1, 0, 5)),
        ("metrics", 12, worker_snapshot(1, 0, 5)),
        ("dropped", 11, 2),
    ]
    forward, backward = LiveCollector(), LiveCollector()
    for msg in messages:
        forward.on_message(msg)
    for msg in reversed(messages):
        backward.on_message(msg)
    assert forward.chrome_trace() == backward.chrome_trace()
    assert forward.dropped_spans == 2
    with pytest.raises(ValueError):
        forward.on_message(("bogus", 1, None))


def test_ticker_writes_progress_line():
    stream = io.StringIO()
    ticker = Ticker(stream=stream, interval=0.0)
    collector = LiveCollector(ntasks=3, progress=ticker)
    collector.on_message(("metrics", 11, worker_snapshot(1, 0, 1000)))
    collector.task_finished(
        type("R", (), {"status": "ok"})())
    ticker.close()
    out = stream.getvalue()
    assert "[fleet] 1/3 tasks" in out
    assert "fail=0" in out
    assert out.endswith("\n")
