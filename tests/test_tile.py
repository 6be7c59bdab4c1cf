"""Integration tests: the full compute tile across abstraction levels.

These exercise the paper's headline capability — mixed FL/CL/RTL
simulation of a processor + caches + accelerator tile (Figure 5a /
Figure 13's <P, C, A> configurations) under one test bench.
"""

import itertools

import pytest

from repro import SimulationTool
from repro.resilience import CheckpointError
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


def _run_after_resets(levels, jit, pre_cycles):
    """``(cycles, Y)`` of a tile reset, run ``pre_cycles`` cycles and
    reset again (once only when ``pre_cycles`` is 0), then run to
    ``done``; cycles count from the last reset."""
    data, _ = mvmult_data(ROWS, COLS)
    tile = Tile(levels, jit=jit).elaborate()
    tile.mem.load(0, assemble(mvmult_xcel(ROWS, COLS)))
    for addr, value in data.items():
        tile.mem.write_word(addr, value)
    sim = SimulationTool(tile)
    sim.reset()
    if pre_cycles:
        sim.run(pre_cycles)
        sim.reset()
    start = sim.ncycles
    while not int(tile.proc.done):
        sim.cycle()
        assert sim.ncycles - start < 10_000
    return (sim.ncycles - start,
            [tile.mem.read_word(Y_BASE + 4 * i) for i in range(ROWS)])


@pytest.mark.parametrize("levels", ALL_CONFIGS,
                         ids=["-".join(c) for c in ALL_CONFIGS])
def test_a_reset_after_the_first_cycles_is_a_power_on(levels):
    """``reset(); cycle() ...; reset()`` runs as one ``reset()`` does,
    interpreted and ``jit=True``.  ``ProcFL``'s reset branch kept its
    adapters' queues, ``pc`` and registers: the fetch it issued in the
    first cycle was answered after the second reset, and the
    ``<FL,RTL,*>`` tiles halted after 143-205 cycles with a wrong
    ``Y``."""
    _, expected = mvmult_data(ROWS, COLS)
    for jit in (False, True):
        want = _run_after_resets(levels, jit, 0)
        assert want[1] == expected, jit
        for pre_cycles in (1, 2, 5):
            assert _run_after_resets(levels, jit, pre_cycles) == want, (
                jit, pre_cycles)


# -- queue adapters: nets bound at the first xtick ---------------------------------


def _loaded_tile(levels, jit=False):
    data, _ = mvmult_data(ROWS, COLS)
    tile = Tile(levels, jit=jit).elaborate()
    tile.mem.load(0, assemble(mvmult_xcel(ROWS, COLS)))
    for addr, value in data.items():
        tile.mem.write_word(addr, value)
    return tile


def _finish(tile, sim, start):
    """``(cycles, Y)`` of running ``sim`` from where it is to ``done``;
    cycles count from cycle ``start``."""
    while not int(tile.proc.done):
        sim.cycle()
        assert sim.ncycles - start < 10_000
    return (sim.ncycles - start,
            [tile.mem.read_word(Y_BASE + 4 * i) for i in range(ROWS)])


def _rerun(tile, sim):
    for i in range(ROWS):
        tile.mem.write_word(Y_BASE + 4 * i, 0)
    sim.reset()
    return _finish(tile, sim, sim.ncycles)


ADAPTER_CONFIGS = [("cl", "cl", "cl"), ("fl", "rtl", "fl")]


@pytest.mark.parametrize("jit", (False, True), ids=("interp", "jit"))
@pytest.mark.parametrize("levels", ADAPTER_CONFIGS,
                         ids=["-".join(c) for c in ADAPTER_CONFIGS])
def test_adapter_tiles_rerun_and_resimulate_alike(levels, jit):
    """A queue adapter binds its bundle's nets at the first ``xtick``
    and keeps them: run, ``reset()``, run again, and a second
    ``SimulationTool`` on the same elaborated tile, give one ``Y``
    and one cycle count."""
    _, expected = mvmult_data(ROWS, COLS)
    tile = _loaded_tile(levels, jit)
    sim = SimulationTool(tile)
    first = _rerun(tile, sim)
    assert first[1] == expected
    assert _rerun(tile, sim) == first
    assert _rerun(tile, SimulationTool(tile)) == first


def test_adapter_tile_restored_mid_run_finishes_alike():
    """``<CL,CL,CL>`` restored from a checkpoint taken mid-run (queue
    adapters holding messages) finishes as the uninterrupted run."""
    tile = _loaded_tile(("cl", "cl", "cl"))
    sim = SimulationTool(tile)
    whole = _rerun(tile, sim)
    sim.reset()
    start = sim.ncycles
    sim.run(whole[0] // 2)
    cp = sim.save_checkpoint()
    assert _finish(tile, sim, start) == whole
    sim.restore_checkpoint(cp)
    assert _finish(tile, sim, start) == whole


def test_fl_accel_tile_refuses_a_checkpoint():
    """``<FL,RTL,FL>`` cannot be restored mid-run: its FL accelerator
    blocks in a ``ListMemPortAdapter``, and a checkpoint says so."""
    tile = _loaded_tile(("fl", "rtl", "fl"))
    sim = SimulationTool(tile)
    sim.reset()
    sim.run(100)
    with pytest.raises(CheckpointError, match="blocking FL"):
        sim.save_checkpoint()


# -- memory: pages a run touches; numpy at the first dot product ----------------

PAGE_CONFIGS = [("cl", "cl", "cl"), ("rtl", "rtl", "rtl"), ("fl", "rtl", "cl")]


@pytest.mark.parametrize("levels", PAGE_CONFIGS,
                         ids=["-".join(c) for c in PAGE_CONFIGS])
def test_tile_holds_only_the_pages_it_wrote(levels):
    """After mvmult(16, 16) a tile's 1 MiB ``TestMemory`` holds the four
    pages written: 0 (program), 2 (A) and 8 (x) from the loader, 10
    from the ``Y`` stores; its checkpoint carries those four."""
    data, expected = mvmult_data(16, 16)
    tile, _ = run_tile(levels, assemble(mvmult_xcel(16, 16)), data)
    _check_result(tile, expected)
    assert sorted(tile.mem.pages) == [0, 2, 8, 10]
    cp = SimulationTool(tile).save_checkpoint()
    idx = tile._all_models.index(tile.mem)
    kind, image = cp.py_state[idx]["pages"]
    assert kind == "pages" and sorted(image) == [0, 2, 8, 10]
    assert sum(map(len, image.values())) == 4 * 4096


_NUMPY_ON_FIRST_USE = """
import sys
import repro, repro.accel, repro.net, repro.verif, repro.fleet
assert "numpy" not in sys.modules, "numpy loaded at import"
from repro.accel import mvmult_data, mvmult_xcel, run_tile
from repro.accel.kernels import Y_BASE
from repro.proc import assemble
data, expected = mvmult_data(4, 8)
for levels in (("cl", "cl", "fl"), ("cl", "cl", "cl")):
    tile, _ = run_tile(levels, assemble(mvmult_xcel(4, 8)), data)
    y = [tile.mem.read_word(Y_BASE + 4 * i) for i in range(4)]
    assert y == expected, (levels, y)
assert "numpy" in sys.modules
"""


def test_numpy_loads_at_the_first_dot_product():
    """``import repro`` and its packages load no numpy (about 12 MiB of
    every process); the FL and CL dot-product accelerators import it
    at their first ``numpy.dot`` and compute ``Y`` right."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _NUMPY_ON_FIRST_USE],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
