"""The step contract of SimulationTool, stated once.

Every substrate advances through one ``step(n)`` function and one
driver (``cycle()``; ``run(n)`` is the same driver).  So for every
substrate and every attachment, ``run(n)``, ``n`` calls of ``cycle()``
and ``run(a); run(n - a)`` must be indistinguishable: same ports, same
``ncycles``, same VCD bytes, trace log, recorder window, watchpoint hit
cycle and hook stamps.  The design is test_observe's counter; the
SimJIT helpers are test_simjit_step's.
"""

import glob
import os
import random
import warnings

import pytest

from repro import SimulationTool, value_is
from repro.net import MeshNetworkStructural, RouterRTL
from repro.observe import WatchpointHit
from repro.resilience import ResilienceWarning
from repro.tools import VCDWriter
from tests.test_observe import _Counter
from tests.test_scheduling import all_sensitive
from tests.test_simjit_step import _jit_top

N, SPLIT = 12, 5
SHAPES = {"run": [N], "cycles": [1] * N, "split": [SPLIT, N - SPLIT]}

#: substrate -> (SimulationTool kwargs, SimJIT top?, step named by repr)
SUBSTRATES = {
    "event": ({"sched": "event"}, False, "python"),
    # Every block a reader of every net (test_scheduling.all_sensitive).
    "event-all-sensitive": ({"sched": "event"}, False, "python"),
    "static-stats": ({"sched": "static", "collect_stats": True}, False,
                     "python"),
    "static-profile": ({"sched": "static", "profile": True}, False,
                       "python"),
    "kernel": ({"sched": "static"}, False, "python"),
    "simjit": ({}, True, "simjit"),
    "simjit-recorder": ({}, True, "simjit"),
}
ATTACHMENTS = ("none", "vcd", "trace_depth", "recorder", "halt", "hook")


class _Fused(_Counter):
    """The counter plus a Python tick that fails once count is 6."""

    def __init__(s):
        super().__init__()

        @s.tick_fl
        def fuse():
            if int(s.count) == 6:
                raise RuntimeError("fuse blown")


def _build(substrate, factory=_Counter, **extra):
    kwargs, jit, _ = SUBSTRATES[substrate]
    model = factory().elaborate()
    if jit:
        model = _jit_top(model)
    sim = SimulationTool(model, **kwargs, **extra)
    if substrate == "event-all-sensitive":
        all_sensitive(sim)
    if substrate == "simjit-recorder":
        sim.flight_recorder(signals=["count"], depth=4)
        assert sim._jit_instr.active
    return model, sim


def _observe(substrate, attachment, chunks, tmp_path):
    """Drive one fresh simulator through ``chunks``; return everything
    the contract says must not depend on how the run was chunked."""
    extra = {}
    if attachment == "vcd":
        extra["vcd"] = VCDWriter(str(tmp_path / "dump.vcd"))
    model, sim = _build(substrate, **extra)
    if attachment == "trace_depth":
        sim.log_traces(8)
    seen = {}
    stamps = []
    with warnings.catch_warnings():
        # A Python attachment on a SimJIT top says so; not under test.
        warnings.simplefilter("ignore", ResilienceWarning)
        if attachment == "recorder":
            rec = sim.flight_recorder(signals=[model.out[0:2]], depth=64)
        elif attachment == "halt":
            wp = sim.watch(value_is("count", 9), halt=True)
        elif attachment == "hook":
            sim.add_cycle_hook(
                lambda cycle: stamps.append((cycle, sim.ncycles)))
    sim.reset()
    model.en.value = 1
    start = sim.ncycles
    try:
        for chunk in chunks:
            sim.run(chunk) if chunk > 1 else sim.cycle()
    except WatchpointHit as hit:
        seen["halted_at"] = (hit.diagnostic["cycle"], sim.ncycles)
    seen["out"] = int(model.out)
    seen["ncycles"] = sim.ncycles
    if not SUBSTRATES[substrate][1]:
        seen["num_events"] = sim.num_events
    if attachment == "trace_depth":
        seen["trace_log"] = list(sim.trace_log)
    elif attachment == "recorder":
        seen["window"] = rec.window().to_dict()
        seen["observe"] = sim.telemetry.report().observe
    elif attachment == "halt":
        seen["fires"] = wp.fire_cycles()
    elif attachment == "hook":
        # Hooks see the cycle about to end, and the clock agrees.
        assert stamps[-N:] == [(c, c) for c in range(start, start + N)]
    sim.close()
    if attachment == "vcd":
        seen["vcd"] = (tmp_path / "dump.vcd").read_bytes()
    return seen, repr(sim)


@pytest.mark.parametrize("attachment", ATTACHMENTS)
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_chunking_is_unobservable(substrate, attachment, tmp_path):
    results = {}
    for shape, chunks in SHAPES.items():
        results[shape], text = _observe(
            substrate, attachment, chunks, tmp_path)
        step = SUBSTRATES[substrate][2]
        if attachment == "hook" and step == "simjit":
            step = "python"             # hooks need Python in the cycle
        assert f"/{step} " in text, text
    assert results["cycles"] == results["run"] == results["split"]
    seen = results["run"]
    if attachment == "halt":
        # count reaches 9 nine enabled cycles after the two of reset.
        assert seen["halted_at"] == (11, 11) and seen["fires"] == [11]
    else:
        assert seen["ncycles"] == 2 + N and seen["out"] == N
    if attachment == "vcd":
        assert seen["vcd"].count(b"\n#") >= N


def test_recorder_report_agrees_across_substrates():
    """A recorder compiled into the SimJIT kernel reports what a
    Python-sampled one does: same window, summary and repr."""
    seen = {}
    for substrate in SUBSTRATES:
        model, sim = _build(substrate)
        if substrate != "simjit-recorder":      # which armed this one
            sim.flight_recorder(signals=["count"], depth=4)
        rec, = sim._recorders
        sim.reset()
        model.en.value = 1
        sim.run(N)
        seen[substrate] = (sim.telemetry.report().observe, repr(rec),
                           rec.window().to_dict())
    assert all(row == seen["event"] for row in seen.values())
    assert seen["event"][0]["recorders"][0]["window_cycles"] == 4


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_nonpositive_run_leaves_the_clock_alone(substrate):
    model, sim = _build(substrate)
    sim.reset()
    sim.run(0)
    sim.run(-3)
    assert sim.ncycles == 2


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_failing_step_mid_run_dumps_exactly_one_bundle(substrate,
                                                       tmp_path):
    jit = SUBSTRATES[substrate][1]
    for armed in (False, True):
        model, sim = _build(substrate, _Counter if jit else _Fused)
        if armed:
            sim.flight_recorder(signals=["out"], depth=8,
                                autodump=str(tmp_path))
        sim.reset()
        model.en.value = 1
        if jit:
            # No Python tick runs inside a SimJIT step: break its push.
            sim.run(6)

            def fuse():
                raise RuntimeError("fuse blown")
            model.jit_engine._push_inputs = fuse
        with pytest.raises(RuntimeError, match="fuse blown"):
            sim.run(20)
        # Six enabled cycles completed after reset; the seventh failed.
        assert sim.ncycles == 8
        bundles = glob.glob(os.path.join(str(tmp_path), "*.json"))
        assert len(bundles) == (1 if armed else 0)


def test_stats_and_profile_wrap_blocks_not_the_cycle(tmp_path):
    """``collect_stats`` and ``profile`` run the plain simulator's step
    on a static mesh4: for 50 driven cycles the three agree on every
    port, the clock, the event count and the VCD bytes, and the counts
    and the timed calls of each comb block are equal."""
    seen, calls = {}, {}
    for option in ("plain", "collect_stats", "profile"):
        net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
        path = tmp_path / f"{option}.vcd"
        sim = SimulationTool(net, sched="static", vcd=VCDWriter(str(path)),
                             **({} if option == "plain" else {option: True}))
        assert sim._step.__func__ is SimulationTool._step_python
        assert sim.sched_info()["kernel"]
        dest_shift = net.msg_type.field_slice("dest")[0]
        for port in net.out:
            port.rdy.value = 1
        sim.reset()
        rng = random.Random(3)
        ports = []
        for _ in range(50):
            for i, port in enumerate(net.in_):
                port.val.value = rng.random() < 0.4
                port.msg.value = (rng.randrange(4) << dest_shift) | i
            sim.cycle()
            ports.append([(int(p.val), int(p.msg)) for p in net.out]
                         + [int(p.rdy) for p in net.in_])
        sim.close()
        seen[option] = (ports, sim.ncycles, sim.num_events,
                        path.read_bytes())
        names = {blk.func: blk.name for m in net._all_models
                 for blk in m.get_comb_blocks()}
        if option == "collect_stats":
            counts = sim.block_calls.items()
        elif option == "profile":
            counts = [(func, n) for func, (n, _) in
                      sim.profiler.block_time.items() if func in names]
        else:
            continue
        calls[option] = {names[func]: n for func, n in counts if n}
    assert seen["plain"] == seen["collect_stats"] == seen["profile"]
    assert sum(calls["collect_stats"].values()) == seen["plain"][2]
    assert calls["collect_stats"] == calls["profile"]
