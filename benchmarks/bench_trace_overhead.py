"""Host-span tracing overhead: the price of the observability spine.

The tracer's contract (:mod:`repro.telemetry.tracing`) is two-sided:

- **disarmed** — instrumented code paths cost near nothing when no
  tracer is armed: ``sim.run()`` adds one module-global load and a
  ``None`` check per call.  Asserted: ≤ ``MAX_DISARMED`` (1% on the
  full 64-router mesh) vs the identical batched run on a build
  without the check — approximated here by the same batched run
  (the check is unremovable), paired against the single-call
  baseline, so the budget also covers the batching loop itself.
- **armed** — span recording happens at *batch* granularity (one
  ``sim.run`` span per call, never per cycle), so even with a tracer
  armed the Python step keeps its rate.  Asserted:
  ≤ ``MAX_ARMED`` (5% full) vs the same baseline.

Both comparisons use paired order-alternating reps (the idiom of
``bench_observe_overhead``) against a plain one-``run()``-call
baseline on the same mesh; the armed/disarmed workloads split the
run into ``BATCH``-cycle ``run()`` calls — the worst realistic case
for per-call overhead (a fleet task calls ``run`` in far larger
batches).  ``BENCH_QUICK=1`` shrinks the mesh and budgets for CI
smoke runs.  Results land in ``benchmarks/results/BENCH_trace.json``.
"""

from common import (QUICK, Pedantic, best_of_paired, format_table,
                    write_json_result, write_result)
from repro import SimulationTool, set_telemetry_enabled
from repro.telemetry import tracing

NROUTERS = 16 if QUICK else 64
MIN_REP_SECONDS = 0.1 if QUICK else 0.25
REPS = 3 if QUICK else 6
BATCH = 256
# The contract is 1% / 5% on the full 64-router mesh; the quick mesh
# is ~4x faster per cycle, so fixed per-batch costs are relatively
# larger and the rep windows 2.5x shorter (noisier) — the quick
# budgets are smoke ceilings, not precision measurements.
MAX_DISARMED = 0.10 if QUICK else 0.01
MAX_ARMED = 0.25 if QUICK else 0.05


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
    # Standing traffic so the mesh does representative per-cycle work.
    dest_shift = net.msg_type.field_slice("dest")[0]
    for port in net.out:
        port.rdy.value = 1
    net.in_[0].msg.value = (NROUTERS - 1) << dest_shift
    net.in_[0].val.value = 1
    return sim


def _batched(sim):
    """Run ``ncycles`` as BATCH-cycle ``run()`` calls — one disarmed
    check (or one span) per batch."""
    def fn(ncycles):
        full, rem = divmod(ncycles, BATCH)
        for _ in range(full):
            sim.run(BATCH)
        if rem:
            sim.run(rem)
    return fn


def _paired(fn_a, fn_b):
    """Shared paired order-alternating harness at this bench's reps
    (see benchmarks/common.py)."""
    return best_of_paired(fn_a, fn_b, REPS, MIN_REP_SECONDS)


def test_trace_overhead(benchmark):
    entries = []

    def run_all():
        assert tracing.active() is None

        # Disarmed: batched run()s against the single-call baseline.
        sim_base = _build_sim()
        sim_dis = _build_sim()
        pt = _paired(sim_base.run, _batched(sim_dis))
        ncycles, base_cps, dis_cps = pt.ncycles, pt.cps_a, pt.cps_b
        entries.append({"config": "baseline", "cycles": ncycles,
                        "cycles_per_sec": base_cps})
        entries.append({"config": "disarmed", "cycles": ncycles,
                        "cycles_per_sec": dis_cps, "batch": BATCH,
                        "pair_spread": pt.pair_spread,
                        "slowdown": base_cps / dis_cps})

        # Armed: same batched shape with a live tracer recording one
        # sim.run span per batch into the ring buffer.
        sim_base2 = _build_sim()
        sim_arm = _build_sim()
        tracer = tracing.arm()
        try:
            pt2 = _paired(sim_base2.run, _batched(sim_arm))
        finally:
            tracing.disarm()
        ncycles2, base2_cps, arm_cps = pt2.ncycles, pt2.cps_a, pt2.cps_b
        # The armed run really recorded (ring may have evicted the
        # oldest, hence >= via dropped + retained).
        nspans = len(tracer) + tracer.dropped
        assert nspans >= ncycles2 // BATCH, \
            f"armed tracer recorded {nspans} spans"
        entries.append({"config": "armed", "cycles": ncycles2,
                        "cycles_per_sec": arm_cps, "batch": BATCH,
                        "nspans": nspans,
                        "pair_spread": pt2.pair_spread,
                        "slowdown": base2_cps / arm_cps})
        entries.append({"config": "baseline2", "cycles": ncycles2,
                        "cycles_per_sec": base2_cps})

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    by_config = {e["config"]: e for e in entries}
    rows = [[e["config"], e["cycles"], f"{e['cycles_per_sec']:.0f}",
             f"{e.get('slowdown', 1.0):.4f}x"] for e in entries]
    text = format_table(
        f"Host-span tracing overhead ({NROUTERS}-router RTL mesh, "
        f"batch {BATCH})",
        ["config", "cycles", "cyc/s", "slowdown"],
        rows,
    )
    write_result("trace_overhead.txt", text)
    write_json_result(
        "trace", entries, quick=QUICK, nrouters=NROUTERS, batch=BATCH,
        max_disarmed=MAX_DISARMED, max_armed=MAX_ARMED)

    disarmed = by_config["disarmed"]["slowdown"]
    assert disarmed < 1.0 + MAX_DISARMED, (
        f"disarmed tracing costs {(disarmed - 1) * 100:.2f}% "
        f"(budget {MAX_DISARMED * 100:.0f}%)")
    armed = by_config["armed"]["slowdown"]
    assert armed < 1.0 + MAX_ARMED, (
        f"armed host-span tracing costs {(armed - 1) * 100:.2f}% "
        f"(budget {MAX_ARMED * 100:.0f}%)")


if __name__ == "__main__":
    test_trace_overhead(Pedantic())
