#!/usr/bin/env python
"""Automatic hierarchy specialization (extension of paper Section IV).

The paper leaves "automatically traverse the model hierarchy to find
and specialize appropriate CL and RTL models" as future work; this
example shows the implemented extension: one call compiles every
SimJIT-compatible subtree of the RTL compute tile, leaves the FL magic
memory interpreted, and the mixed compiled/interpreted design runs the
accelerated matrix-vector kernel cycle-exactly.

Run:  python examples/auto_specialize_tile.py
"""

import time

from repro.accel import Tile, mvmult_data, mvmult_xcel
from repro.accel.kernels import Y_BASE
from repro.core import SimulationTool
from repro.core.simjit import auto_specialize
from repro.proc import assemble

ROWS, COLS = 4, 16


def run(tile, words, data):
    tile.elaborate()
    tile.mem.load(0, words)
    for addr, value in data.items():
        tile.mem.write_word(addr, value)
    sim = SimulationTool(tile)
    start = time.perf_counter()
    sim.reset()
    while not int(tile.proc.done):
        sim.cycle()
    elapsed = time.perf_counter() - start
    result = [tile.mem.read_word(Y_BASE + 4 * i) for i in range(ROWS)]
    return sim, elapsed, result


def main():
    words = assemble(mvmult_xcel(ROWS, COLS))
    data, expected = mvmult_data(ROWS, COLS)

    interp_sim, interp_time, interp_result = run(
        Tile(("rtl", "rtl", "rtl")), words, data)

    # Always the return value: a design that is translatable from the
    # top down comes back as its one wrapper (this one holds the FL
    # memory, so it comes back as itself with five wrappers inside).
    tile = auto_specialize(Tile(("rtl", "rtl", "rtl")))
    jit_sim, jit_time, jit_result = run(tile, words, data)

    info = jit_sim.sched_info()["simjit"]
    print("== auto_specialize decisions ==")
    for engine in info["engines"]:
        print(f"  compiled    : {engine['model']} ({engine['class']}, "
              f"{engine['blocks']} blocks)")
    for name, why in info["interpreted"].items():
        print(f"  interpreted : {name} ({why})")

    print("\n== results ==")
    assert interp_result == jit_result == expected
    assert interp_sim.ncycles == jit_sim.ncycles
    print(f"  result correct, cycle-exact ({jit_sim.ncycles} cycles)")
    print(f"  interpreted : {interp_time:.2f}s")
    print(f"  specialized : {jit_time:.2f}s  "
          f"({interp_time / jit_time:.1f}x faster)")


if __name__ == "__main__":
    main()
