"""Compiled instrumentation (SimJIT obs runtime) tests.

The contract under test: observability attachments — flight
recorders, watchpoints, val/rdy transaction taps, signal-backed
histograms, telemetry counters — produce **bit-identical** results
whether they sample per cycle from Python (the hook path) or are
compiled into the SimJIT kernel and drained per batch.  The reference
for every equivalence test is the same DUT with the hook path forced
(a no-op Python cycle hook registered before any attachment makes the
sim ineligible for compiled instrumentation), and where the design
also runs interpreted, the interpreted static substrate as well.

Also covered: watchpoint halts stopping batches at the exact hit
cycle, mid-run dearming back to the hook path when a cycle hook is
registered late, the ``instrument-fallback`` warning taxonomy for
unlowerable constructs, and the content-addressed ``.so`` cache.
"""

import os
import random
import warnings

import pytest

from repro import set_telemetry_enabled
from repro.core import Model, SimulationTool
from repro.core.signals import InPort, OutPort
from repro.core.simjit import SimJITRTL
from repro.net import MeshNetworkStructural, RouterRTL
from repro.observe import (
    WatchpointHit,
    changed,
    implies_within,
    rose,
    stable_for,
    value_is,
    when,
)
from repro.resilience.warnings import ResilienceWarning

MESH_SIGNALS = ["routers[0].grant_val[0]", "routers[0].hold_val[0]",
                "routers[3].grant_val[0]", "routers[3].hold_val[0]"]


# -- DUT builders -------------------------------------------------------------


def _jit_mesh(nrouters=4, telemetry=True, force_hooks=False):
    """Whole-mesh single-engine SimJIT sim (compiled-instrumentation
    eligible unless ``force_hooks`` registers a hook first)."""
    prev = set_telemetry_enabled(telemetry)
    try:
        net = MeshNetworkStructural(
            RouterRTL, nrouters, 256, 32, 2).elaborate()
        wrapper = SimJITRTL(net).specialize().elaborate()
    finally:
        set_telemetry_enabled(prev)
    sim = SimulationTool(wrapper)
    if force_hooks:
        sim.add_cycle_hook(lambda cycle: None)
    return wrapper, sim


def _interp_mesh(nrouters=4, telemetry=True):
    prev = set_telemetry_enabled(telemetry)
    try:
        net = MeshNetworkStructural(
            RouterRTL, nrouters, 256, 32, 2).elaborate()
    finally:
        set_telemetry_enabled(prev)
    return net, SimulationTool(net, sched="static")


def _drive_mesh(model, sim, seed=42,
                chunks=(1, 3, 17, 200, 64, 150)):
    """Deterministic standing-traffic schedule: redraw all terminal
    inputs between run() batches (inputs are constant within a batch,
    so per-cycle and batched sampling see identical streams)."""
    rnd = random.Random(seed)
    for port in model.out:
        port.rdy.value = 1
    for chunk in chunks:
        for port in model.in_:
            port.val.value = rnd.randint(0, 1)
            port.msg.value = rnd.randrange(1 << port.msg.nbits)
        sim.run(chunk)


def _arm_mesh(model, sim):
    rec = sim.flight_recorder(signals=MESH_SIGNALS, depth=64)
    wps = [
        sim.watch(rose("routers[3].grant_val[0]")
                  & value_is("routers[3].hold_val[0]", 0, 1),
                  name="grant-and-hold"),
        sim.watch(changed("routers[0].grant_val[0]")
                  | ~changed("routers[3].grant_val[0]"),
                  name="or-not"),
        # A stretch that reaches 320 cycles across the late-hook
        # test's dearm at cycle 300, and a window that has 20
        # deadlines outstanding there.
        sim.watch(stable_for("routers[0].hold_val[0]", 320)
                  | (stable_for("routers[0].hold_val[0]", 6)
                     & ~stable_for("routers[3].grant_val[0]", 40)),
                  name="stable"),
        sim.watch(implies_within(value_is("routers[0].hold_val[0]", 0),
                                 changed("routers[0].grant_val[0]"), 20),
                  name="idle-grant-moves"),
    ]
    tracer = sim.telemetry.trace()
    tracer.tap_model(model)
    return rec, wps, tracer


def _collect(sim, rec, wps, tracer):
    return {
        "ncycles": sim.ncycles,
        "window": rec.window().to_dict(),
        "nsamples": rec.nsamples,
        "fires": [(wp.name, wp.fire_cycles(), wp.n_fires)
                  for wp in wps],
        "summary": tracer.summary(),
        "chrome": tracer.chrome_trace(),
        "counters": sim.telemetry.counters(),
    }


# -- full-stack equivalence ---------------------------------------------------


def test_mesh_compiled_matches_hook_path():
    """Every attachment kind at once: compiled sampling on a 4-router
    SimJIT mesh is bit-identical to the forced hook path on the same
    compiled design."""
    results = []
    for force in (False, True):
        model, sim = _jit_mesh(force_hooks=force)
        rec, wps, tracer = _arm_mesh(model, sim)
        if force:
            assert rec._cidx is None
            assert all(wp._cwp is None for wp in wps)
            assert tracer._instr is None
        else:
            assert sim._jit_instr is not None and sim._jit_instr.active
            assert rec._cidx is not None
            assert all(wp._cwp is not None for wp in wps)
            assert tracer._instr is not None
            assert all(t._cidx is not None for t in tracer.taps)
        _drive_mesh(model, sim)
        results.append(_collect(sim, rec, wps, tracer))
    compiled, hooks = results
    assert compiled == hooks
    assert compiled["window"]["changes"], "window should not be empty"
    assert any(n for _, _, n in compiled["fires"]), \
        "watchpoints should fire under traffic"
    assert compiled["summary"]["taps"], "tracer should have taps"


def test_mesh_compiled_matches_interpreted_substrate():
    """Recorder windows and counters agree between the compiled
    SimJIT mesh and the interpreted static-schedule mesh under the
    same stimulus."""
    model_j, sim_j = _jit_mesh()
    model_i, sim_i = _interp_mesh()
    rec_j = sim_j.flight_recorder(signals=MESH_SIGNALS, depth=64)
    rec_i = sim_i.flight_recorder(signals=MESH_SIGNALS, depth=64)
    assert rec_j._cidx is not None
    assert rec_i._cidx is None
    _drive_mesh(model_j, sim_j)
    _drive_mesh(model_i, sim_i)
    assert rec_j.window().to_dict() == rec_i.window().to_dict()
    assert sim_j.telemetry.counters() == sim_i.telemetry.counters()


def test_per_cycle_step_path_matches_hooks():
    """cycle()-driven sims share the compiled sampling path (one-cycle
    batches) and stay bit-identical under per-cycle varying inputs."""
    results = []
    for force in (False, True):
        model, sim = _jit_mesh(force_hooks=force)
        rec, wps, tracer = _arm_mesh(model, sim)
        rnd = random.Random(9)
        for port in model.out:
            port.rdy.value = 1
        for _ in range(120):
            for port in model.in_:
                port.val.value = rnd.randint(0, 1)
                port.msg.value = rnd.randrange(1 << port.msg.nbits)
            sim.cycle()
        results.append(_collect(sim, rec, wps, tracer))
    assert results[0] == results[1]


# -- watchpoint halts ---------------------------------------------------------


def test_halting_watchpoint_stops_batch_at_exact_cycle():
    outcomes = []
    for force in (False, True):
        model, sim = _jit_mesh(force_hooks=force)
        wp = sim.watch(rose("routers[0].grant_val[0]"), name="halt",
                       halt=True)
        assert (wp._cwp is None) == force
        rnd = random.Random(7)
        for port in model.out:
            port.rdy.value = 1
        for port in model.in_:
            port.val.value = rnd.randint(0, 1)
            port.msg.value = rnd.randrange(1 << port.msg.nbits)
        with pytest.raises(WatchpointHit) as excinfo:
            sim.run(10_000)
        outcomes.append(
            (excinfo.value.diagnostic["cycle"], sim.ncycles,
             excinfo.value.diagnostic["values"]))
    assert outcomes[0] == outcomes[1]
    # The sim stopped on the hit cycle, not at the end of the batch.
    assert outcomes[0][1] < 10_000


def test_once_watchpoint_detaches_after_compiled_hit():
    model, sim = _jit_mesh()
    wp = sim.watch(changed("routers[3].grant_val[0]"), name="once",
                   once=True)
    assert wp._cwp is not None
    _drive_mesh(model, sim)
    assert wp.n_fires == 1
    assert wp.sim is None and wp._cwp is None


# -- mid-run dearm ------------------------------------------------------------


def test_late_cycle_hook_dearms_and_preserves_state():
    """Registering a Python cycle hook after compiled attachments are
    armed converts them to the hook path with state intact; results
    match a run that used hooks throughout."""
    results = []
    for force in (False, True):
        model, sim = _jit_mesh(force_hooks=force)
        rec, wps, tracer = _arm_mesh(model, sim)
        rnd = random.Random(5)
        for port in model.out:
            port.rdy.value = 1
        for port in model.in_:
            port.val.value = rnd.randint(0, 1)
            port.msg.value = rnd.randrange(1 << port.msg.nbits)
        sim.run(300)
        seen = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sim.add_cycle_hook(seen.append)
        kinds = [getattr(w.message, "kind", "") for w in caught]
        if not force:
            assert "instrument-fallback" in kinds
            assert rec._cidx is None
            assert all(wp._cwp is None for wp in wps)
            assert tracer._instr is None
        sim.run(100)
        assert seen == list(range(300, 400))
        results.append(_collect(sim, rec, wps, tracer))
    assert results[0] == results[1]


# -- fallback warnings --------------------------------------------------------


def test_unlowerable_watchpoint_warns_and_uses_hooks():
    model, sim = _jit_mesh()
    with pytest.warns(ResilienceWarning) as record:
        wp = sim.watch(when(lambda v: v == 1, "routers[0].grant_val[0]"),
                       name="py-only")
    kinds = {getattr(w.message, "kind", "") for w in record}
    assert "instrument-fallback" in kinds
    assert wp._cwp is None and wp in sim._watchpoints
    assert wp.sample in sim._observers      # the Python forest
    _drive_mesh(model, sim, chunks=(50,))
    # The rest of the sim still runs compiled batches.
    assert sim.ncycles == 50


def test_slice_tap_recorder_falls_back_with_warning():
    model, sim = _jit_mesh()
    with pytest.warns(ResilienceWarning) as record:
        rec = sim.flight_recorder(
            signals=["routers[0].grant_val[0]",
                     model.in_[0].msg[0:4]],    # slices sample from Python
            depth=16)
    kinds = {getattr(w.message, "kind", "") for w in record}
    assert "instrument-fallback" in kinds
    assert rec._cidx is None       # all-or-nothing: whole recorder
    _drive_mesh(model, sim, chunks=(40,))
    assert rec.nsamples == 40


# -- signal-backed histograms -------------------------------------------------


class _HistDut(Model):
    """Counter whose value stream feeds a gated signal histogram."""

    def __init__(s):
        s.en = InPort(1)
        s.count = OutPort(4)
        s.hist = s.histogram("vals", "sampled count values",
                             sig=s.count, when=s.en)

        @s.tick_rtl
        def seq_logic():
            if s.reset:
                s.count.next = 0
            elif s.en:
                s.count.next = s.count + 1


def test_signal_histogram_compiled_matches_hooks():
    bins = []
    for force in (False, True):
        prev = set_telemetry_enabled(True)
        try:
            dut = SimJITRTL(
                _HistDut().elaborate()).specialize().elaborate()
        finally:
            set_telemetry_enabled(prev)
        sim = SimulationTool(dut)
        if force:
            sim.add_cycle_hook(lambda cycle: None)
        sim.reset()
        rnd = random.Random(1)
        for _ in range(10):
            dut.en.value = rnd.randint(0, 1)
            sim.run(rnd.randrange(1, 40))
        hists = sim.telemetry.histograms()
        assert set(hists) == {"top.vals"}
        hist = hists["top.vals"]
        bins.append((dict(hist.bins), hist.count, hist.mean))
    assert bins[0] == bins[1]
    assert bins[0][1] > 0, "gated histogram should observe samples"


# -- content-addressed .so cache ----------------------------------------------


def test_so_cache_hit_and_optout(tmp_path, monkeypatch):
    monkeypatch.setenv("SIMJIT_CACHE_DIR", str(tmp_path))
    net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    spec1 = SimJITRTL(net)
    spec1.specialize()
    assert spec1.overheads["cache_hit"] is False
    libs = [p for p in os.listdir(tmp_path) if p.endswith(".so")]
    assert len(libs) == 1
    assert not [p for p in os.listdir(tmp_path) if ".tmp" in p], \
        "temporary artifacts must not survive a build"

    net2 = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    spec2 = SimJITRTL(net2)
    spec2.specialize()
    assert spec2.overheads["cache_hit"] is True

    monkeypatch.setenv("REPRO_SIMJIT_CACHE", "0")
    net3 = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    spec3 = SimJITRTL(net3)
    spec3.specialize()
    assert spec3.overheads["cache_hit"] is False


def test_so_cache_key_tracks_generated_source(tmp_path, monkeypatch):
    monkeypatch.setenv("SIMJIT_CACHE_DIR", str(tmp_path))
    SimJITRTL(MeshNetworkStructural(
        RouterRTL, 4, 256, 32, 2).elaborate()).specialize()
    SimJITRTL(MeshNetworkStructural(
        RouterRTL, 4, 256, 16, 2).elaborate()).specialize()
    libs = [p for p in os.listdir(tmp_path) if p.endswith(".so")]
    assert len(libs) == 2, "different designs must get different keys"
