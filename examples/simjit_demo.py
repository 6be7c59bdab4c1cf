#!/usr/bin/env python
"""SimJIT demonstration (paper Section IV).

Specializes a 16-node RTL mesh to C, shows cycle-exactness against the
interpreted simulation, the specialization overhead breakdown
(Figure 16's phases), and the resulting speedup.

Run:  python examples/simjit_demo.py
"""

import time

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

    # --- speedup -----------------------------------------------------------
    ncycles = 2000
    start = time.perf_counter()
    NetworkTrafficHarness(build(), seed=1) \
        .run_uniform_random(0.25, ncycles, drain=0)
    interp_time = time.perf_counter() - start

    start = time.perf_counter()
    NetworkTrafficHarness(jit, seed=1) \
        .run_uniform_random(0.25, ncycles, drain=0)
    jit_time = time.perf_counter() - start

    print("\n== performance ==")
    print(f"  interpreted : {ncycles / interp_time:8.0f} cycles/s")
    print(f"  SimJIT      : {ncycles / jit_time:8.0f} cycles/s")
    print(f"  speedup     : {interp_time / jit_time:8.1f}x")


if __name__ == "__main__":
    main()
