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
baseline does.  The JIT runs are ``Tile(levels, jit=True)`` on the
default schedule: SimJIT-RTL would compile the RTL components the
CPython rung runs as closures, and in a tile there are none (the
accelerator's control and the arbiter are a cycle of blocks, not of
signals, which the scheduler splits by output), so every RTL component
runs lowered and statically scheduled and the column is the lowered
default.  The paper applied SimJIT-RTL to every RTL component, and
likewise specialized only a subset of CL components in this
experiment.

Expected shape: performance trends *down* as LOD rises; a visible gap
separates the bare ISA simulator from the port-based <FL,FL,FL> tile
(the cost of modular modeling); specialization shifts detailed
configurations up.

Every tile with an RTL component times its ``jit=True`` run against
its event-driven twin in one process (``common.best_of_paired``), and
the envelope's entry for it carries that paired ratio
(``slowdown_vs_interp``, lower is better) for the insight gate.  A
tile without one has no SimJIT column (the paper's pure-CL tiles) and
its event-driven time is informational.  ``BENCH_QUICK=1`` runs the
eight corners of the LOD cube, <FL|RTL, FL|RTL, FL|RTL>, for CI.
"""

import itertools
import time

from common import (QUICK, Pedantic, best_of, best_of_paired, format_table,
                    paired_entry, write_json_result, write_result)
from repro.accel import mvmult_data, mvmult_xcel, run_tile
from repro.proc import IsaSim, assemble

ROWS, COLS = 4, 8
LEVELS = ("fl", "cl", "rtl")
LOD = {"fl": 1, "cl": 2, "rtl": 3}
CONFIGS = list(itertools.product(("fl", "rtl") if QUICK else LEVELS,
                                 repeat=3))
# Many short alternating reps, as in Figure 14: a burst of host load
# then hits both sides of a rep alike.
REPS = 10
MIN_REP_SECONDS = 0.05


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


def _name(levels):
    return "<" + ",".join(x.upper() for x in levels) + ">"


class _TileRuns:
    """One built tile, callable as a ``best_of_paired`` workload whose
    unit is one run of the program from reset.  Only simulation is
    timed: construction and specialization happen before (the paper's
    Figure 13 likewise measures simulation time, with SimJIT-RTL
    caching enabled).  Without ``jit`` the tile runs event-driven."""

    def __init__(self, levels, words, data, jit):
        from repro.accel.tile import Tile
        from repro.core import SimulationTool

        self.tile = Tile(levels, jit=jit).elaborate()
        self.tile.mem.load(0, words)
        for addr, value in data.items():
            self.tile.mem.write_word(addr, value)
        self.sim = SimulationTool(self.tile) if jit else SimulationTool(
            self.tile, sched="event")
        self.cycles = self._run()

    def _run(self):
        sim, start = self.sim, self.sim.ncycles
        sim.reset()
        while not int(self.tile.proc.done):
            sim.cycle()
            if sim.ncycles - start > 2_000_000:
                raise AssertionError(
                    f"tile {_name(self.tile.levels)} did not halt")
        return sim.ncycles - start

    def __call__(self, nruns):
        for _ in range(nruns):
            self._run()


def _paired(runs_a, runs_b):
    return best_of_paired(runs_a, runs_b, REPS, MIN_REP_SECONDS,
                          warmup_b=True, start_cycles=1)


def measure(levels, words, data):
    """The tile's entry: the paired ratio of its ``jit=True`` run where
    it has an RTL component, else its event-driven time alone."""
    interp = _TileRuns(levels, words, data, jit=False)
    shape = {"lod": sum(LOD[x] for x in levels), "cycles": interp.cycles}
    if "rtl" not in levels:
        _, rate = best_of(interp, REPS, MIN_REP_SECONDS, start_cycles=1)
        return {"config": _name(levels), **shape,
                "interp_s": round(1 / rate, 6)}
    jit = _TileRuns(levels, words, data, jit=True)
    assert jit.cycles == interp.cycles, (levels, jit.cycles, interp.cycles)
    timing = _paired(interp, jit)
    return paired_entry(_name(levels), "interp", timing, **shape,
                        interp_s=round(timing.best_a / timing.ncycles, 6))


def test_fig13_lod_sweep(benchmark):
    words, data, expected = _workload()
    results = {}

    def sweep():
        results["isa"] = _isa_baseline_time(words, data)
        for levels in CONFIGS:
            results[levels] = measure(levels, words, data)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    isa_time = results["isa"]
    entries = [results[levels] for levels in CONFIGS]
    write_json_result("fig13", entries, quick=QUICK,
                      isa_run_s=round(isa_time, 6))
    rows = []
    for entry in sorted(entries, key=lambda e: e["lod"]):
        interp_time = entry["interp_s"]
        jit_cell = "-"
        if "slowdown_vs_interp" in entry:
            jit_time = interp_time * entry["slowdown_vs_interp"]
            jit_cell = f"{isa_time / jit_time:.4f}"
        rows.append([entry["config"], entry["lod"], entry["cycles"],
                     f"{interp_time:.3f}s", f"{isa_time / interp_time:.4f}",
                     jit_cell])
    text = format_table(
        "Figure 13: tile simulator performance vs level of detail "
        f"(mvmult {ROWS}x{COLS}; performance normalized to bare "
        f"IsaSim = 1.0, baseline {isa_time * 1e3:.2f} ms; "
        f"interp = sched=\"event\"; simjit from the paired ratio)",
        ["config", "LOD", "cycles", "interp time", "interp perf",
         "simjit perf"],
        rows,
    )
    write_result("fig13_lod.txt", text)

    fff, rrr = ("fl", "fl", "fl"), ("rtl", "rtl", "rtl")

    # Shape 1: the all-FL tile is far slower than the bare ISA sim
    # (the paper's "cost of modular modeling" gap).
    assert results[fff]["interp_s"] > 3 * isa_time

    # Shape 2: the all-RTL tile is the slowest interpreted config
    # among the corner cases (event-driven: the lowered blocks of the
    # default schedule make RTL nearly as cheap as FL).  Timed as a
    # pair of its own, so that the host's speed drifting between the
    # two tiles' entries cannot flip it.
    corners = _paired(_TileRuns(fff, words, data, jit=False),
                      _TileRuns(rrr, words, data, jit=False))
    assert corners.slowdown > 1.0, corners.slowdown

    # Shape 3: specialization makes the all-RTL tile dramatically
    # faster than its interpreted self.
    assert results[rrr]["slowdown_vs_interp"] < 1.0


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


if __name__ == "__main__":
    test_fig13_lod_sweep(Pedantic())
