"""Figure 15: SimJIT performance versus network load.

The paper varies the injection rate of 64-node CL and RTL mesh
simulations (100K cycles) and shows SimJIT speedups *rising* with load:
heavier traffic puts more work inside the specialized C code relative
to the fixed per-cycle Python overhead, and both curves flatten near
the network's saturation point (~30% injection).

Speedups are over the paper's CPython substrate — the event-driven
simulator running the user's block closures (``sched="event"``); the
default ``SimulationTool`` (static schedule, lowered blocks) is its own
column.
"""

import time

import pytest

from common import (
    build_jit_network,
    build_network,
    format_table,
    write_result,
)
from repro import SimulationTool
from repro.net import NetworkTrafficHarness

NROUTERS = 64
RATES = [0.02, 0.05, 0.10, 0.20, 0.30, 0.40]
INTERP_CYCLES = {"cl": 600, "rtl": 200}
JIT_CYCLES = 4_000


def _throughput(net, rate, ncycles, seed=1, sched="auto"):
    harness = NetworkTrafficHarness(
        net, sim=SimulationTool(net, sched=sched), seed=seed)
    start = time.perf_counter()
    harness.run_uniform_random(rate, ncycles, drain=0)
    return ncycles / (time.perf_counter() - start)


@pytest.mark.parametrize("level", ["cl", "rtl"])
def test_fig15_speedup_vs_injection_rate(benchmark, level):
    wrapper, _ = build_jit_network(level, NROUTERS)
    rows = []
    speedups = []
    for rate in RATES:
        interp = _throughput(build_network(level, NROUTERS), rate,
                             INTERP_CYCLES[level], sched="event")
        default = _throughput(build_network(level, NROUTERS), rate,
                              INTERP_CYCLES[level])
        jit = _throughput(wrapper, rate, JIT_CYCLES)
        speedup = jit / interp
        speedups.append(speedup)
        rows.append([f"{rate:.2f}", f"{interp:.0f}", f"{default:.0f}",
                     f"{default / interp:.1f}x", f"{jit:.0f}",
                     f"{speedup:.1f}x"])

    text = format_table(
        f"Figure 15({level}): 64-node mesh, speedup over cpython "
        f"(sched=\"event\") vs injection rate",
        ["inj rate", "cpython cyc/s", "default cyc/s", "default speedup",
         "simjit cyc/s", "simjit speedup"],
        rows,
    )
    write_result(f"fig15_{level}.txt", text)

    # Paper shape: RTL speedup grows with load (more time inside
    # compiled code per cycle).  For CL our per-cycle Python harness
    # cost tracks the model cost, so the curve is flat — the paper's
    # CL rise came from PyPy shrinking that constant; we only require
    # that specialization keeps winning across the sweep.
    if level == "rtl":
        assert max(speedups[-2:]) > min(speedups[:2])
    assert all(s > 1.5 for s in speedups)

    benchmark.pedantic(
        lambda: _throughput(wrapper, 0.3, 1000),
        rounds=1, iterations=1,
    )
