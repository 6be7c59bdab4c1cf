"""Figure 14: SimJIT mesh-network performance.

The paper simulates 64-node FL/CL/RTL meshes near saturation and plots
speedup over CPython versus simulated cycles, for PyPy / SimJIT /
SimJIT+PyPy / hand-written C++(verilated) configurations.

Our reproduction (substitutions documented in DESIGN.md): every
column is one ``NetworkTrafficHarness`` run of uniform-random traffic,
on its own simulator and driver (``TrafficStats.driver``, recorded per
row and asserted).  PyPy rows are not reproducible offline.

- ``interp`` — the event-driven simulator over the user's block
  closures (``sched="event"``), the paper's CPython and the 1x here;
- ``default`` — ``SimulationTool(model)``: the static schedule over
  lowered blocks for RTL.  Still CPython, its own column so that no
  speedup quietly changes its base;
- ``simjit`` — the compiled model under the harness's Python loop
  (``"python"``, kept by a ``cycle`` wrapped on the simulator
  instance, as ``net/traffic.py`` documents): the paper's SimJIT under
  a Python test bench;
- ``c-ref`` — the same model under the compiled bench (``"compiled"``,
  ``tb_uniform``): no Python in the loop, the role of the paper's
  hand-coded C++ / verilated simulators.

``common.best_of_paired`` times ``default`` against ``interp``,
``simjit`` against ``default`` and ``c-ref`` against ``simjit`` in one
process.  The entries carry those ratios (``slowdown_vs_<base>``,
lower is better) for the insight gate; speedups over ``interp`` are
their products.

Expected shape: speedups grow with simulated cycles as one-time
overheads amortize; RTL gains exceed CL gains; the compiled bench is
faster than the Python one by the harness's per-cycle cost.

``BENCH_QUICK=1`` runs a 16-node mesh with shorter reps for CI.
"""

import pytest

from common import (QUICK, Pedantic, best_of_paired, build_jit_network,
                    build_network, format_table, paired_entry,
                    write_json_result, write_result)
from repro import SimulationTool
from repro.net import NetworkTrafficHarness

NROUTERS = 16 if QUICK else 64
RATE = 0.30                     # near saturation (paper Section III-D)
# Many short alternating reps: a shared host's speed drifts in bursts
# of a tenth of a second and more, which then hit both sides of a rep
# alike.  A rep is at least START_CYCLES, to keep the traffic's ramp-up
# from an empty mesh a small part of it.
REPS = 10
MIN_REP_SECONDS = 0.05 if QUICK else 0.1
START_CYCLES = 256

#: each column, the column it is paired against, and the driver the
#: harness must have taken for it
PAIRS = (("default", "interp"), ("simjit", "default"),
         ("c-ref", "simjit"))
DRIVERS = {"interp": "python", "default": "python", "simjit": "python",
           "c-ref": "compiled"}


class _Column:
    """One column: the traffic harness on its own simulator, callable
    as a ``best_of_paired`` workload; ``driver`` is the one its last
    run took."""

    def __init__(self, model, sched="auto", python_loop=False):
        sim = SimulationTool(model, sched=sched)
        if python_loop:
            # A ``cycle`` of the instance's own keeps the harness's
            # Python loop over the compiled model.
            sim.cycle = sim.cycle
        self.harness = NetworkTrafficHarness(model, sim=sim, seed=1)
        self.driver = None

    def __call__(self, ncycles):
        stats = self.harness.run_uniform_random(RATE, ncycles, drain=0)
        self.driver = stats.driver


def _columns(level):
    """The level's columns, and the cold specialization's overhead
    (None for FL, which no specializer takes: the paper's PyPy-only
    row)."""
    cols = {"interp": _Column(build_network(level, NROUTERS), "event"),
            "default": _Column(build_network(level, NROUTERS))}
    if level == "fl":
        return cols, None
    # Always a cold compile, so that the "+overheads" series does not
    # depend on what an earlier run left in the cache.
    wrapper, spec = build_jit_network(level, NROUTERS, cache=False)
    cols["simjit"] = _Column(wrapper, python_loop=True)
    cols["c-ref"] = _Column(build_jit_network(level, NROUTERS)[0])
    overhead = sum(v for v in spec.overheads.values()
                   if isinstance(v, float))
    return cols, overhead


def _paired(cols, col, base):
    timing = best_of_paired(cols[base], cols[col], REPS, MIN_REP_SECONDS,
                            warmup_b=True, start_cycles=START_CYCLES)
    for name in (base, col):
        assert cols[name].driver == DRIVERS[name], (
            name, cols[name].driver, cols[name].harness.sim.model)
    return timing


def measure_level(level):
    """The level's gated entries, one per paired column."""
    cols, overhead = _columns(level)
    entries = []
    for col, base in PAIRS:
        if col not in cols:
            continue
        timing = _paired(cols, col, base)
        entry = paired_entry(
            f"mesh{NROUTERS}-{level}/{col}", base, timing,
            driver=cols[col].driver, cycles=timing.ncycles,
            cycles_per_sec=round(timing.cps_b, 1),
            base_cycles_per_sec=round(timing.cps_a, 1))
        if col == "simjit":
            entry["overhead_s"] = round(overhead, 3)
        entries.append(entry)
    return entries


def _table(level, entries):
    # Speedup over ``interp``: the product of the paired ratios down
    # the chain.
    by_col = {e["config"].rsplit("/", 1)[1]: e for e in entries}
    speedup = {"interp": 1.0}
    for col, entry in by_col.items():
        base = entry["base"]
        speedup[col] = speedup[base] / entry[f"slowdown_vs_{base}"]
    interp_cps = by_col["default"]["base_cycles_per_sec"]
    rows = [["interp", "python", f"{interp_cps:.0f}", "-", "-", "1.0x"]]
    for col, entry in by_col.items():
        base = entry["base"]
        rows.append([
            col, entry["driver"], f"{entry['cycles_per_sec']:.0f}", base,
            f"{1 / entry[f'slowdown_vs_{base}']:.2f}x",
            f"{speedup[col]:.1f}x"])
    tables = [format_table(
        f"Figure 14({level}): {NROUTERS}-node mesh simulator throughput "
        f"(rate={RATE}; paired ratios; speedups over cpython = "
        f"sched=\"event\")",
        ["column", "driver", "cyc/s", "paired vs", "ratio",
         "speedup"], rows)]
    if "simjit" in speedup:
        # Speedup-vs-cycles series (solid line: overheads amortized via
        # cache; dotted: include one-time specialization overheads).
        overhead = by_col["simjit"]["overhead_s"]
        series = []
        for target in (1_000, 10_000, 100_000, 1_000_000, 10_000_000):
            interp_time = target / interp_cps
            jit_time = interp_time / speedup["simjit"]
            series.append([
                f"{target:,}", f"{speedup['default']:.1f}x",
                f"{speedup['simjit']:.1f}x",
                f"{interp_time / (jit_time + overhead):.1f}x",
                f"{speedup['c-ref']:.1f}x"])
        tables.append(format_table(
            f"Figure 14({level}): speedup vs simulated cycles "
            f"(jit overhead {overhead:.1f}s)",
            ["target cycles", "default", "simjit (cached)",
             "simjit (+overheads)", "c reference"], series))
    return "\n\n".join(tables)


# One ``BENCH_fig14.json`` for the three levels: each parametrized test
# adds its rows and rewrites the file.
_ENTRIES = []


@pytest.mark.parametrize("level", ["fl", "cl", "rtl"])
def test_fig14_mesh_speedup(benchmark, level):
    entries = []
    benchmark.pedantic(lambda: entries.extend(measure_level(level)),
                       rounds=1, iterations=1)
    _ENTRIES.extend(entries)
    write_json_result("fig14", _ENTRIES, quick=QUICK, nrouters=NROUTERS,
                      rate=RATE)
    write_result(f"fig14_{level}.txt", _table(level, entries))


def test_fig14_shape_rtl_gains_exceed_cl(benchmark):
    """Paper claim: SimJIT speedups are larger for RTL than CL (more
    detail -> more work moved into compiled code)."""
    gains = {}

    def measure():
        for level in ("cl", "rtl"):
            cols, _ = _columns(level)
            gains[level] = 1 / _paired(cols, "simjit", "interp").slowdown

    benchmark.pedantic(measure, rounds=1, iterations=1)
    assert gains["rtl"] > gains["cl"], gains


if __name__ == "__main__":
    for level in ("fl", "cl", "rtl"):
        test_fig14_mesh_speedup(Pedantic(), level)
