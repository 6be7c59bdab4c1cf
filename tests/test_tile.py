"""Integration tests: the full compute tile across abstraction levels.

These exercise the paper's headline capability — mixed FL/CL/RTL
simulation of a processor + caches + accelerator tile (Figure 5a /
Figure 13's <P, C, A> configurations) under one test bench.
"""

import itertools

import pytest

from repro import SimulationTool
from repro.accel import (
    Tile,
    mvmult_data,
    mvmult_scalar,
    mvmult_unrolled,
    mvmult_xcel,
    run_tile,
)
from repro.accel.kernels import Y_BASE
from repro.proc import assemble

ROWS, COLS = 4, 8

LEVELS = ("fl", "cl", "rtl")
ALL_CONFIGS = list(itertools.product(LEVELS, repeat=3))
# A representative subset for the heavier kernels (all 27 appear in
# the Figure 13 benchmark; tests keep runtime bounded).
SMOKE_CONFIGS = [
    ("fl", "fl", "fl"),
    ("cl", "cl", "cl"),
    ("rtl", "rtl", "rtl"),
    ("fl", "cl", "rtl"),
    ("rtl", "fl", "cl"),
    ("cl", "rtl", "fl"),
]


def _check_result(tile, expected):
    for i, value in enumerate(expected):
        assert tile.mem.read_word(Y_BASE + 4 * i) == value


@pytest.mark.parametrize("levels", SMOKE_CONFIGS,
                         ids=["-".join(c) for c in SMOKE_CONFIGS])
def test_tile_scalar_mvmult(levels):
    words = assemble(mvmult_scalar(ROWS, COLS))
    data, expected = mvmult_data(ROWS, COLS)
    tile, _ = run_tile(levels, words, data)
    _check_result(tile, expected)


@pytest.mark.parametrize("levels", SMOKE_CONFIGS,
                         ids=["-".join(c) for c in SMOKE_CONFIGS])
def test_tile_xcel_mvmult(levels):
    words = assemble(mvmult_xcel(ROWS, COLS))
    data, expected = mvmult_data(ROWS, COLS)
    tile, _ = run_tile(levels, words, data)
    _check_result(tile, expected)


@pytest.mark.parametrize("accel_level", LEVELS)
def test_tile_every_accel_level_with_cl_rest(accel_level):
    levels = ("cl", "cl", accel_level)
    words = assemble(mvmult_xcel(ROWS, COLS))
    data, expected = mvmult_data(ROWS, COLS)
    tile, _ = run_tile(levels, words, data)
    _check_result(tile, expected)


@pytest.mark.parametrize("proc_level", LEVELS)
def test_tile_every_proc_level_with_cl_rest(proc_level):
    levels = (proc_level, "cl", "cl")
    words = assemble(mvmult_unrolled(ROWS, COLS))
    data, expected = mvmult_data(ROWS, COLS)
    tile, _ = run_tile(levels, words, data)
    _check_result(tile, expected)


@pytest.mark.parametrize("cache_level", LEVELS)
def test_tile_every_cache_level_with_cl_rest(cache_level):
    levels = ("cl", cache_level, "cl")
    words = assemble(mvmult_scalar(ROWS, COLS))
    data, expected = mvmult_data(ROWS, COLS)
    tile, _ = run_tile(levels, words, data)
    _check_result(tile, expected)


def test_all_27_configs_agree_on_unrolled_result():
    """Every <P, C, A> configuration computes the same answer (small
    workload to keep runtime manageable)."""
    words = assemble(mvmult_unrolled(2, 4))
    data, expected = mvmult_data(2, 4)
    for levels in ALL_CONFIGS:
        tile, _ = run_tile(levels, words, data)
        _check_result(tile, expected)


def test_accelerator_beats_scalar_on_cl_tile():
    """Paper Section III-C: the CL tile estimates a ~2.9x speedup of
    the accelerated kernel over the unrolled scalar baseline.  Check
    the direction (accelerated runs in fewer cycles)."""
    rows, cols = 4, 16
    data, expected = mvmult_data(rows, cols)
    _, scalar_cycles = run_tile(
        ("cl", "cl", "cl"), assemble(mvmult_unrolled(rows, cols)), data)
    tile, xcel_cycles = run_tile(
        ("cl", "cl", "cl"), assemble(mvmult_xcel(rows, cols)), data)
    _check_result(tile, expected)
    assert xcel_cycles < scalar_cycles


def test_lod_scores():
    assert Tile(("fl", "fl", "fl")).lod() == 3
    assert Tile(("fl", "cl", "rtl")).lod() == 6
    assert Tile(("rtl", "rtl", "rtl")).lod() == 9


def test_caches_help_at_cl_level():
    """Second run over the same data should be faster than cold;
    verified indirectly via cache hit statistics."""
    words = assemble(mvmult_scalar(ROWS, COLS))
    data, _ = mvmult_data(ROWS, COLS)
    tile, _ = run_tile(("cl", "cl", "cl"), words, data)
    assert tile.icache.num_accesses > 0
    assert tile.icache.miss_rate() < 0.2    # tight loop: mostly hits
    assert tile.dcache.num_accesses > 0


CL_PROC_CONFIGS = [c for c in ALL_CONFIGS if c[0] == "cl"]


@pytest.mark.parametrize("levels", CL_PROC_CONFIGS,
                         ids=["-".join(c) for c in CL_PROC_CONFIGS])
def test_cl_proc_tile_runs_again_after_reset(levels):
    """reset() returns a CL-processor tile to its power-on state.  The
    processor halts with speculative fetches still in flight; their
    responses used to come back after the reset and were taken for the
    answers to the new run's fetches (or popped an empty FIFO)."""
    data, expected = mvmult_data(ROWS, COLS)
    tile = Tile(levels).elaborate()
    tile.mem.load(0, assemble(mvmult_xcel(ROWS, COLS)))
    for addr, value in data.items():
        tile.mem.write_word(addr, value)
    sim = SimulationTool(tile)
    runs = []
    for _ in range(3):
        for i in range(ROWS):
            tile.mem.write_word(Y_BASE + 4 * i, 0)
        start = sim.ncycles
        sim.reset()
        while not int(tile.proc.done):
            sim.cycle()
            assert sim.ncycles - start < 10_000
        _check_result(tile, expected)
        runs.append(sim.ncycles - start)
    assert runs[1:] == runs[:1] * 2
