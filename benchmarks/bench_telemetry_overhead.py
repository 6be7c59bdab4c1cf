"""Telemetry overhead: the observability tax at each opt-in level.

The telemetry subsystem's contract is *pay only for what you turn
on*.  This bench quantifies that on an RTL mesh, including the
compiled-instrumentation path (observability lowered into the SimJIT
kernel) that removes the old 850x cliff:

- ``baseline``  — raw step calls (``sim._step``) in a bare loop, on a
  design constructed with telemetry disabled.  This is the PR-1
  fast path: no telemetry objects exist anywhere.
- ``disabled``  — ``sim.run()`` on the same disabled-telemetry
  design.  The **asserted** contract: within ``MAX_OVERHEAD`` (2%)
  of baseline, i.e. constructing the telemetry machinery and leaving
  it off costs nothing measurable.
- ``jit_baseline`` — uninstrumented whole-mesh SimJIT: one compiled
  engine, ``sim.run()`` batches straight into C.  The reference rate
  for all compiled-instrumentation configs.
- ``counters``  — telemetry enabled on the SimJIT mesh.  Counters
  lower into the compiled instance and are read back in bulk after
  the run; the kernel loop itself is untouched.
- ``trace``     — counters plus a :class:`TxTracer` tapping every
  terminal port, *compiled*: the kernel writes change-compressed
  boundary events into a C ring drained per ``run()`` batch.
- ``recorder12`` — a 12-signal flight recorder (depth 512) compiled
  into the kernel the same way.
- ``profile``   — ``profile=True``: per-block and per-phase host-time
  attribution.  The same Python step with every block timed (it times
  Python blocks, so it cannot be SimJIT's), reported, not asserted, and runs its own cycle count
  (``equal_cycles: false``).

Every asserted comparison comes from *paired, order-alternating*
timings at *equal cycle counts* — the only honest way to resolve
small ratios under host frequency drift — and is the median of the
per-rep ratios (``common.paired_entry``), not a ratio of best-of
rates.  The compiled configs are asserted to stay under
``MAX_SLOWDOWN`` (2x full, 3x quick) of the jit baseline; the old hook
path measured 850-1350x.  ``BENCH_QUICK=1``
shrinks the mesh and budgets for CI smoke runs.  Results land in
``benchmarks/results/BENCH_telemetry.json``.
"""

from common import (QUICK, Pedantic, best_of, best_of_paired,
                    build_jit_network, format_table, paired_entry,
                    write_json_result, write_result)
from repro import SimulationTool, set_telemetry_enabled
from repro.net import MeshNetworkStructural, RouterRTL

NROUTERS = 16 if QUICK else 64
MIN_REP_SECONDS = 0.1 if QUICK else 0.25
REPS = 3 if QUICK else 6
# Quick mode runs few reps on shared CI hosts: give the noise-bound
# disabled-telemetry contract more headroom there.
MAX_OVERHEAD = 0.05 if QUICK else 0.02
MAX_SLOWDOWN = 3.0 if QUICK else 2.0


def _build(enabled):
    prev = set_telemetry_enabled(enabled)
    try:
        net = MeshNetworkStructural(
            RouterRTL, NROUTERS, 256, 32, 2).elaborate()
    finally:
        set_telemetry_enabled(prev)
    return net


def _build_jit(enabled):
    """Whole-mesh single-engine SimJIT wrapper + its specializer."""
    prev = set_telemetry_enabled(enabled)
    try:
        wrapper, spec = build_jit_network("rtl", NROUTERS)
    finally:
        set_telemetry_enabled(prev)
    return wrapper, spec


def _inject(net):
    """Light standing traffic so counters/taps have work to observe."""
    dest_shift = net.msg_type.field_slice("dest")[0]
    for port in net.out:
        port.rdy.value = 1
    net.in_[0].msg.value = (NROUTERS - 1) << dest_shift
    net.in_[0].val.value = 1


def _paired(fn_a, fn_b):
    """Shared paired order-alternating harness at this bench's reps;
    ``fn_b`` is warmed up once (transients, buffers) before timing."""
    return best_of_paired(fn_a, fn_b, REPS, MIN_REP_SECONDS,
                          warmup_b=True)


def _kernel_pair():
    """(baseline_fn, disabled_fn) over the same disabled-telemetry
    design: the bare step vs the full ``sim.run()`` entry point with
    telemetry machinery constructed but off."""
    sim = SimulationTool(_build(False), sched="static")
    assert sim.sched_info()["kernel"]
    sim.reset()
    return sim._step, sim.run


def _jit_runner(enabled, instrument=None):
    """``sim.run`` on a fresh whole-mesh SimJIT sim, optionally with
    compiled instrumentation armed by ``instrument(wrapper, sim)``.
    Returns (fn, cache_hit)."""
    wrapper, spec = _build_jit(enabled)
    sim = SimulationTool(wrapper)
    sim.reset()
    _inject(wrapper)
    if instrument is not None:
        instrument(wrapper, sim)
    return sim.run, bool(spec.overheads.get("cache_hit"))


def _arm_trace(wrapper, sim):
    tracer = sim.telemetry.trace()
    tracer.tap_model(wrapper)
    assert tracer._instr is not None, \
        "tx taps did not compile into the kernel"


def _arm_recorder(wrapper, sim):
    nper = max(1, 12 // 2)
    signals = []
    for i in range(nper):
        signals.append(f"routers[{i}].grant_val[0]")
        signals.append(f"routers[{i}].hold_val[0]")
    rec = sim.flight_recorder(signals=signals[:12], depth=512)
    assert rec._cidx is not None, \
        "flight recorder did not compile into the kernel"


def test_telemetry_overhead(benchmark):
    entries = []
    cache_hits = {}

    def run_all():
        # Interpreted pair: the disabled-telemetry contract.
        baseline_fn, disabled_fn = _kernel_pair()
        pt = _paired(baseline_fn, disabled_fn)
        entries.append({"config": "baseline", "cycles": pt.ncycles,
                        "cycles_per_sec": pt.cps_a, "equal_cycles": True})
        entries.append(paired_entry(
            "disabled", "baseline", pt, cycles=pt.ncycles,
            cycles_per_sec=pt.cps_b, equal_cycles=True))

        # Compiled pairs: each instrumented config against its own
        # freshly-timed uninstrumented SimJIT baseline, same cycles.
        jit_fn, hit = _jit_runner(False)
        cache_hits["jit_baseline"] = hit

        def counters_cfg():
            fn, hit = _jit_runner(True)
            cache_hits["counters"] = hit
            return fn

        def trace_cfg():
            fn, hit = _jit_runner(True, _arm_trace)
            cache_hits["trace"] = hit
            return fn

        def recorder_cfg():
            fn, hit = _jit_runner(False, _arm_recorder)
            cache_hits["recorder12"] = hit
            return fn

        first = True
        for config, make in (("counters", counters_cfg),
                             ("trace", trace_cfg),
                             ("recorder12", recorder_cfg)):
            pt = _paired(jit_fn, make())
            if first:
                entries.append({
                    "config": "jit_baseline", "cycles": pt.ncycles,
                    "cycles_per_sec": pt.cps_a, "equal_cycles": True})
                first = False
            entries.append(paired_entry(
                config, "jit_baseline", pt, cycles=pt.ncycles,
                cycles_per_sec=pt.cps_b, equal_cycles=True))

        # Profile runs the same step with every block timed; its own
        # cycle count.
        net = _build(True)
        sim = SimulationTool(net, sched="static", profile=True)
        assert sim.sched_info()["kernel"]
        sim.reset()
        _inject(net)
        ncycles, cps = best_of(sim.run, REPS, MIN_REP_SECONDS)
        entries.append({"config": "profile", "cycles": ncycles,
                        "cycles_per_sec": cps,
                        "equal_cycles": False})

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    by_config = {e["config"]: e for e in entries}
    rows = []
    for entry in entries:
        slow = entry.get(f"slowdown_vs_{entry.get('base')}",
                         1.0 if entry["equal_cycles"] else None)
        rows.append([
            entry["config"], entry["cycles"],
            f"{entry['cycles_per_sec']:.0f}",
            f"{slow:.3f}x" if slow else "(own cycles)",
        ])

    text = format_table(
        f"Telemetry overhead ({NROUTERS}-router RTL mesh)",
        ["config", "cycles", "cyc/s", "slowdown (paired)"],
        rows,
    )
    write_result("telemetry_overhead.txt", text)
    write_json_result(
        "telemetry", entries, quick=QUICK, nrouters=NROUTERS,
        max_overhead=MAX_OVERHEAD, max_slowdown=MAX_SLOWDOWN,
        cache_hits=cache_hits)

    # The asserted contracts: telemetry constructed but disabled is
    # indistinguishable from the bare kernel loop, and compiled
    # instrumentation stays within MAX_SLOWDOWN of uninstrumented
    # SimJIT (the hook path measured 850-1350x here).
    disabled = by_config["disabled"]["slowdown_vs_baseline"]
    assert disabled < 1.0 + MAX_OVERHEAD, (
        f"disabled telemetry costs {(disabled - 1) * 100:.1f}% "
        f"(budget {MAX_OVERHEAD * 100:.0f}%)")
    for config in ("counters", "trace", "recorder12"):
        slow = by_config[config]["slowdown_vs_jit_baseline"]
        assert slow < MAX_SLOWDOWN, (
            f"{config} runs {slow:.2f}x slower than uninstrumented "
            f"SimJIT (budget {MAX_SLOWDOWN}x)")


if __name__ == "__main__":
    test_telemetry_overhead(Pedantic())
