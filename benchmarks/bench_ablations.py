"""Ablations of the framework's design choices (DESIGN.md §4).

Not a paper figure — these quantify the implementation decisions the
reproduction made, so downstream users can see what each buys:

1. **Static comb scheduling** (SimJIT): topologically ordering the
   combinational blocks vs. relying on the fixpoint loop alone.
2. **gcc optimization level**: compile-time vs simulation-speed
   tradeoff (-O0 / -O1 / -O2), the knob the paper discusses for
   Verilator (-O1 "relatively fast").
3. **Sensitivity from block bodies** (event-driven interpreter): each
   comb block reacts to what its body reads vs. the conservative
   sensitivity of a block without a body.
"""

import time

import pytest

from common import build_network, format_table, specializer_for, write_result
from repro.net import NetworkTrafficHarness

NROUTERS = 16
NCYCLES = 3000


def _jit_throughput(schedule=True, opt="-O2"):
    net = build_network("rtl", NROUTERS)
    spec = specializer_for("rtl")(net, opt=opt, schedule=schedule,
                                  cache=False)
    wrapper = spec.specialize().elaborate()
    harness = NetworkTrafficHarness(wrapper, seed=1)
    start = time.perf_counter()
    harness.run_uniform_random(0.25, NCYCLES, drain=0)
    rate = NCYCLES / (time.perf_counter() - start)
    return rate, spec.overheads["comp"]


def test_ablation_static_scheduling(benchmark):
    results = {}

    def run():
        results["scheduled"], _ = _jit_throughput(schedule=True)
        results["unscheduled"], _ = _jit_throughput(schedule=False)

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["topological order", f"{results['scheduled']:.0f}"],
        ["declaration order (fixpoint only)",
         f"{results['unscheduled']:.0f}"],
    ]
    text = format_table(
        "Ablation: static comb scheduling (16-node RTL mesh, SimJIT)",
        ["comb ordering", "cycles/s"], rows)
    write_result("ablation_scheduling.txt", text)
    # Both must be correct; scheduling should not hurt.
    assert results["scheduled"] >= 0.7 * results["unscheduled"]


def test_ablation_gcc_opt_level(benchmark):
    results = {}

    def run():
        for opt in ("-O0", "-O1", "-O2"):
            results[opt] = _jit_throughput(opt=opt)

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [opt, f"{rate:.0f}", f"{comp:.2f}s"]
        for opt, (rate, comp) in results.items()
    ]
    text = format_table(
        "Ablation: gcc optimization level (16-node RTL mesh, SimJIT)",
        ["opt", "cycles/s", "compile time"], rows)
    write_result("ablation_gcc_opt.txt", text)
    # -O0 must compile faster; higher opts must not simulate slower by
    # a large margin (wrapped harness caps the visible difference).
    assert results["-O0"][1] < results["-O2"][1] * 1.5


def test_ablation_sensitivity_inference(benchmark):
    """The event-driven interpreter with every comb block sensitive to
    what its block body reads, vs. the conservative sensitivity of a
    block without a body (every signal of its model and its children's
    output ports) — patched in here by refusing every comb block its
    body."""
    from repro.core import SimulationTool, simulation

    def throughput(conservative):
        net = build_network("rtl", NROUTERS)
        with pytest.MonkeyPatch.context() as patch:
            if conservative:
                patch.setattr(simulation, "_body_of",
                              lambda blk: "no body (ablation)")
            sim = SimulationTool(net, sched="event")
        harness = NetworkTrafficHarness(net, sim=sim, seed=1)
        ncycles = 400
        start = time.perf_counter()
        harness.run_uniform_random(0.25, ncycles, drain=0)
        return ncycles / (time.perf_counter() - start)

    results = {}

    def run():
        results["inferred"] = throughput(False)
        results["fallback"] = throughput(True)

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["block bodies' reads", f"{results['inferred']:.0f}"],
        ["conservative fallback", f"{results['fallback']:.0f}"],
    ]
    text = format_table(
        "Ablation: sensitivity from block bodies (16-node RTL mesh, "
        "event-driven)",
        ["sensitivity", "cycles/s"], rows)
    write_result("ablation_sensitivity.txt", text)
    assert results["inferred"] > 0
    assert results["fallback"] > 0
