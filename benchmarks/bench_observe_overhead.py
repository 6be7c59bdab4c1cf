"""Waveform-observatory overhead: the price of the flight recorder.

The observatory's contract is that an armed flight recorder is cheap
enough to leave on for long runs: recorders (and watchpoints) sample
*after* the cycle, like the VCD writer, inside the same step: only
the per-cycle sample is added.  This bench quantifies that on an RTL mesh:

- ``off``        — ``sim.run()`` with nothing armed: the observatory
  adds one flag check per cycle to the Python step and nothing else.
- ``recorder``   — a :class:`~repro.observe.FlightRecorder` armed on
  a dozen router-internal signals at depth 512.  The **asserted**
  contract: within ``MAX_OVERHEAD`` (5% on the full 64-router mesh;
  quick mode asserts a scaled smoke ceiling) of ``off``.
- ``watchpoints``— the recorder plus three armed temporal watchpoints
  (edge, stability, implication).  Reported, not asserted — condition
  evaluation is the feature.
- ``jit_off`` / ``jit_recorder`` — the same contract on the compiled
  substrate: a whole-mesh single-engine SimJIT sim, uninstrumented vs
  the same 12-signal recorder *lowered into the C kernel* (in-kernel
  change detection, events drained lazily per ``run()`` batch).  The
  asserted budget is ``MAX_JIT_SLOWDOWN`` (2x full, 3x quick) — the
  pre-compiled hook path measured ~1000x here.

``recorder`` and ``watchpoints`` are each paired with alternating
reps against an ``off`` sim of their own (the honest way to resolve a
5% difference under host-frequency drift), and each slowdown is that
pair's ratio.
``BENCH_QUICK=1`` shrinks the mesh and rep lengths for CI smoke runs.
Results land in ``benchmarks/results/BENCH_observe.json``.
"""

from common import (QUICK, Pedantic, best_of_paired, build_jit_network,
                    format_table, write_json_result, write_result)
from repro import SimulationTool, set_telemetry_enabled
from repro.observe import implies_within, rose, stable_for

NROUTERS = 16 if QUICK else 64
MIN_REP_SECONDS = 0.1 if QUICK else 0.25
REPS = 3 if QUICK else 6
# The contract is 5% on the full 64-router mesh.  Sampling cost is
# fixed per signal per cycle, so on the 4x-smaller quick mesh the same
# 12 taps are ~4x larger relatively; the quick budget is a scaled
# smoke ceiling that still catches a sampler grown ~10x, not a
# precision measurement.
MAX_OVERHEAD = 0.25 if QUICK else 0.05
# Compiled-substrate budget: instrumented SimJIT vs uninstrumented.
MAX_JIT_SLOWDOWN = 3.0 if QUICK else 2.0
DEPTH = 512

# ~12 signals: FSM-adjacent arbiter state of the first few routers,
# the kind of window a post-mortem actually wants.
N_TAPPED_ROUTERS = 6


def _recorder_signals():
    signals = []
    for i in range(N_TAPPED_ROUTERS):
        signals.append(f"routers[{i}].grant_val[0]")
        signals.append(f"routers[{i}].hold_val[0]")
    return signals


def _build_sim():
    from repro.net import MeshNetworkStructural, RouterRTL

    prev = set_telemetry_enabled(False)
    try:
        net = MeshNetworkStructural(
            RouterRTL, NROUTERS, 256, 32, 2).elaborate()
    finally:
        set_telemetry_enabled(prev)
    sim = SimulationTool(net, sched="static")
    assert sim.sched_info()["kernel"]
    sim.reset()
    # Standing traffic: terminal 0 offers a packet for the last router
    # every cycle, so the mesh is never idle.  No tapped signal toggles
    # on it (port 0's grant and hold stay 0 in the first six routers):
    # the recorder and watchpoint rows measure the quiet path, one read
    # of the taps per cycle with nothing to record or evaluate.
    dest_shift = net.msg_type.field_slice("dest")[0]
    for port in net.out:
        port.rdy.value = 1
    net.in_[0].msg.value = (NROUTERS - 1) << dest_shift
    net.in_[0].val.value = 1
    return sim


def _inject(net):
    dest_shift = net.msg_type.field_slice("dest")[0]
    for port in net.out:
        port.rdy.value = 1
    net.in_[0].msg.value = (NROUTERS - 1) << dest_shift
    net.in_[0].val.value = 1


def _build_jit_sim():
    """Whole-mesh single-engine SimJIT sim with standing traffic."""
    prev = set_telemetry_enabled(False)
    try:
        wrapper, _spec = build_jit_network("rtl", NROUTERS)
    finally:
        set_telemetry_enabled(prev)
    sim = SimulationTool(wrapper)
    sim.reset()
    _inject(wrapper)
    return sim


def _paired(fn_a, fn_b):
    """Shared paired order-alternating harness at this bench's reps
    (idiom of bench_telemetry_overhead; see benchmarks/common.py)."""
    return best_of_paired(fn_a, fn_b, REPS, MIN_REP_SECONDS)


def test_observe_overhead(benchmark):
    entries = []
    paired_off = {}     # config -> the off rate it was paired against

    def run_all():
        sim_off = _build_sim()
        sim_rec = _build_sim()
        recorder = sim_rec.flight_recorder(
            signals=_recorder_signals(), depth=DEPTH)
        # Both sims keep a settle without the event fixpoint; only the
        # armed one samples per cycle.
        assert sim_rec.sched_info()["kernel"] is True

        pt = _paired(sim_off.run, sim_rec.run)
        ncycles, off_cps, rec_cps = pt.ncycles, pt.cps_a, pt.cps_b
        assert recorder.nsamples >= ncycles
        entries.append({"config": "off", "cycles": ncycles,
                        "cycles_per_sec": off_cps})
        entries.append({"config": "recorder", "cycles": ncycles,
                        "cycles_per_sec": rec_cps,
                        "signals": len(recorder.signal_names),
                        "pair_spread": pt.pair_spread,
                        "depth": DEPTH})

        sim_wp = _build_sim()
        sim_wp.flight_recorder(signals=_recorder_signals(), depth=DEPTH)
        sim_wp.watch(rose("routers[0].grant_val[0]"), name="grant")
        sim_wp.watch(stable_for("routers[1].hold_val[0]", 1 << 20),
                     name="stuck-hold")
        sim_wp.watch(
            implies_within(rose("routers[0].grant_val[0]"),
                           rose("routers[0].hold_val[0]"), 1 << 20),
            name="grant-held")
        # Paired like the recorder, against a fresh uninstrumented sim.
        wpt = _paired(_build_sim().run, sim_wp.run)
        paired_off["watchpoints"] = wpt.cps_a
        entries.append({"config": "watchpoints", "cycles": wpt.ncycles,
                        "cycles_per_sec": wpt.cps_b, "n_watchpoints": 3,
                        "pair_spread": wpt.pair_spread})

        # Compiled substrate: the identical recorder lowered into the
        # SimJIT kernel, paired against the uninstrumented C rate.
        sim_joff = _build_jit_sim()
        sim_jrec = _build_jit_sim()
        jit_rec = sim_jrec.flight_recorder(
            signals=_recorder_signals(), depth=DEPTH)
        assert jit_rec._cidx is not None, \
            "recorder did not compile into the SimJIT kernel"
        jpt = _paired(sim_joff.run, sim_jrec.run)
        jcycles, joff_cps, jrec_cps = jpt.ncycles, jpt.cps_a, jpt.cps_b
        assert jit_rec.nsamples >= jcycles
        entries.append({"config": "jit_off", "cycles": jcycles,
                        "cycles_per_sec": joff_cps})
        entries.append({"config": "jit_recorder", "cycles": jcycles,
                        "cycles_per_sec": jrec_cps,
                        "signals": len(jit_rec.signal_names),
                        "pair_spread": jpt.pair_spread,
                        "depth": DEPTH})

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    by_config = {e["config"]: e for e in entries}
    base = by_config["off"]["cycles_per_sec"]
    jit_base = by_config["jit_off"]["cycles_per_sec"]
    rows = []
    for entry in entries:
        # Each substrate compares against its own uninstrumented rate.
        if entry["config"].startswith("jit_"):
            slowdown = jit_base / entry["cycles_per_sec"]
            entry["slowdown_vs_jit_off"] = slowdown
        else:
            slowdown = (paired_off.get(entry["config"], base)
                        / entry["cycles_per_sec"])
            entry["slowdown_vs_off"] = slowdown
        rows.append([
            entry["config"], entry["cycles"],
            f"{entry['cycles_per_sec']:.0f}", f"{slowdown:.3f}x",
        ])

    text = format_table(
        f"Observe overhead ({NROUTERS}-router RTL mesh, "
        f"{2 * N_TAPPED_ROUTERS} signals, depth {DEPTH})",
        ["config", "cycles", "cyc/s", "slowdown"],
        rows,
    )
    write_result("observe_overhead.txt", text)
    write_json_result(
        "observe", entries, quick=QUICK, nrouters=NROUTERS,
        nsignals=2 * N_TAPPED_ROUTERS, depth=DEPTH,
        max_overhead=MAX_OVERHEAD, max_jit_slowdown=MAX_JIT_SLOWDOWN)

    # The asserted contract: an armed flight recorder costs under 5%
    # of the unarmed step's throughput.
    recorder = by_config["recorder"]["slowdown_vs_off"]
    assert recorder < 1.0 + MAX_OVERHEAD, (
        f"armed flight recorder costs {(recorder - 1) * 100:.1f}% "
        f"(budget {MAX_OVERHEAD * 100:.0f}%)")
    jit_rec = by_config["jit_recorder"]["slowdown_vs_jit_off"]
    assert jit_rec < MAX_JIT_SLOWDOWN, (
        f"compiled recorder runs {jit_rec:.2f}x slower than "
        f"uninstrumented SimJIT (budget {MAX_JIT_SLOWDOWN}x)")


if __name__ == "__main__":
    test_observe_overhead(Pedantic())
