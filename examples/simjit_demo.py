#!/usr/bin/env python
"""SimJIT demonstration (paper Section IV).

Specializes a 16-node RTL mesh to C, shows cycle-exactness against the
interpreted simulation, the specialization overhead breakdown
(Figure 16's phases), and the resulting speedup — against the paper's
CPython substrate (event-driven, the user's block closures) and against
the default CPython simulator, whose static schedule runs lowered
blocks.

Run:  python examples/simjit_demo.py
"""

import time

from repro import SimulationTool
from repro.core.simjit import SimJITRTL
from repro.net import (
    MeshNetworkStructural,
    NetworkTrafficHarness,
    RouterRTL,
)


def build():
    return MeshNetworkStructural(RouterRTL, 16, 256, 32, 2).elaborate()


def main():
    # --- specialize -----------------------------------------------------
    spec = SimJITRTL(build(), cache=False)
    jit = spec.specialize().elaborate()
    print("== specialization overheads (Figure 16 phases) ==")
    for phase in ("elab", "veri", "cgen", "comp", "wrap", "simc"):
        print(f"  {phase:5} {spec.overheads.get(phase, 0.0):7.3f} s")
    print(f"  generated C: {len(spec.c_source.splitlines())} lines "
          f"-> {spec.lib_path}")

    # --- cycle-exactness -------------------------------------------------
    interp_stats = NetworkTrafficHarness(build(), seed=7) \
        .run_uniform_random(0.25, 300)
    jit_stats = NetworkTrafficHarness(jit, seed=7) \
        .run_uniform_random(0.25, 300)
    assert interp_stats.latencies == jit_stats.latencies
    print("\n== cycle-exactness ==")
    print(f"  interp: {interp_stats.ejected} packets, "
          f"avg latency {interp_stats.avg_latency:.3f}")
    print(f"  simjit: {jit_stats.ejected} packets, "
          f"avg latency {jit_stats.avg_latency:.3f}  (identical)")
    # Which test bench drove each run, and why not the compiled one.
    for name, stats in (("interp", interp_stats), ("simjit", jit_stats)):
        print(f"  {name}: driver={stats.driver}"
              + (f"  ({stats.refused})" if stats.refused else ""))

    # --- what the CPython rung runs ----------------------------------------
    net = build()
    kernel = SimulationTool(net)
    lowered = kernel.sched_info()["lowered"]
    print("\n== lowered blocks (default SimulationTool) ==")
    print(f"  {kernel!r}")
    print(f"  {lowered['blocks']} blocks run as plain-int functions printed "
          f"from {lowered['bodies']} bodies; kept as closures: "
          f"{lowered['kept'] or 'none'}")

    # --- speedup -----------------------------------------------------------
    ncycles = 2000

    def rate(top, sim=None):
        start = time.perf_counter()
        NetworkTrafficHarness(top, sim=sim, seed=1) \
            .run_uniform_random(0.25, ncycles, drain=0)
        return ncycles / (time.perf_counter() - start)

    event = build()
    event_rate = rate(event, SimulationTool(event, sched="event"))
    kernel_rate = rate(net, kernel)
    jit_rate = rate(jit)

    print("\n== performance ==")
    print(f"  event-driven closures : {event_rate:8.0f} cycles/s   1.0x "
          "(the paper's CPython)")
    print(f"  lowered kernel        : {kernel_rate:8.0f} cycles/s "
          f"{kernel_rate / event_rate:5.1f}x")
    print(f"  SimJIT                : {jit_rate:8.0f} cycles/s "
          f"{jit_rate / event_rate:5.1f}x")


if __name__ == "__main__":
    main()
