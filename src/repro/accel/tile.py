"""Compute tile: processor + L1 caches + accelerator (paper Figure 5a).

The tile composes a MinRISC processor, an instruction cache, a data
cache shared between the processor and the dot-product accelerator
through a :class:`MemArbiter`, and a backing magic memory.  Each of the
three major components is independently selectable as FL, CL, or RTL —
the 27 ⟨P, C, A⟩ configurations of the paper's Figure 13 experiment.
"""

from __future__ import annotations

from ..core import Model, SimulationTool
from ..core.simjit import auto_specialize
from ..mem.cache_cl import CacheCL
from ..mem.cache_fl import CacheFL
from ..mem.cache_rtl import CacheRTL
from ..mem.msgs import MemMsg
from ..mem.test_memory import TestMemory
from ..proc.proc_cl import ProcCL
from ..proc.proc_fl import ProcFL
from ..proc.proc_rtl import ProcRTL
from .arbiter import MemArbiter
from .dotprod_cl import DotProductCL
from .dotprod_fl import DotProductFL
from .dotprod_rtl import DotProductRTL
from .msgs import XcelMsg

PROC_IMPLS = {"fl": ProcFL, "cl": ProcCL, "rtl": ProcRTL}
CACHE_IMPLS = {"fl": CacheFL, "cl": CacheCL, "rtl": CacheRTL}
ACCEL_IMPLS = {"fl": DotProductFL, "cl": DotProductCL, "rtl": DotProductRTL}

# Level-of-detail score per abstraction level (paper Figure 13).
LOD_SCORE = {"fl": 1, "cl": 2, "rtl": 3}


class Tile(Model):
    """Accelerator-augmented compute tile (paper Figure 5a).

    ``levels`` is a ⟨P, C, A⟩ tuple of 'fl' | 'cl' | 'rtl' choosing the
    abstraction level of the processor, caches, and accelerator.
    """

    def __init__(s, levels=("fl", "fl", "fl"), mem_latency=2,
                 cache_nlines=64, cache_assoc=1, mem_size=1 << 20,
                 jit=False, accel_impls=None):
        proc_level, cache_level, accel_level = levels
        s.levels = tuple(levels)
        accel_impls = accel_impls or ACCEL_IMPLS
        mem_msg = MemMsg()
        xcel_msg = XcelMsg()

        s.proc = PROC_IMPLS[proc_level](mem_msg, xcel_msg)
        s.icache = CACHE_IMPLS[cache_level](*_cache_args(
            cache_level, mem_msg, cache_nlines, cache_assoc))
        s.dcache = CACHE_IMPLS[cache_level](*_cache_args(
            cache_level, mem_msg, cache_nlines, cache_assoc))
        s.accel = accel_impls[accel_level](mem_msg, xcel_msg)
        s.arbiter = MemArbiter(mem_msg)
        s.mem = TestMemory(nports=2, latency=mem_latency, size=mem_size)

        # Processor <-> instruction cache.
        s.connect(s.proc.imem_ifc.req, s.icache.cpu_ifc.req)
        s.connect(s.proc.imem_ifc.resp, s.icache.cpu_ifc.resp)
        # Processor + accelerator <-> arbiter <-> data cache.
        s.connect(s.proc.dmem_ifc.req, s.arbiter.clients[0].req)
        s.connect(s.proc.dmem_ifc.resp, s.arbiter.clients[0].resp)
        s.connect(s.accel.mem_ifc.req, s.arbiter.clients[1].req)
        s.connect(s.accel.mem_ifc.resp, s.arbiter.clients[1].resp)
        s.connect(s.arbiter.mem_ifc.req, s.dcache.cpu_ifc.req)
        s.connect(s.arbiter.mem_ifc.resp, s.dcache.cpu_ifc.resp)
        # Processor <-> accelerator control interface.
        s.connect(s.proc.xcel_ifc.req, s.accel.cpu_ifc.req)
        s.connect(s.proc.xcel_ifc.resp, s.accel.cpu_ifc.resp)
        # Caches <-> backing memory.
        s.connect(s.icache.mem_ifc.req, s.mem.ports[0].req)
        s.connect(s.icache.mem_ifc.resp, s.mem.ports[0].resp)
        s.connect(s.dcache.mem_ifc.req, s.mem.ports[1].req)
        s.connect(s.dcache.mem_ifc.resp, s.mem.ports[1].resp)

        if jit:
            # Paper Figure 13: "SimJIT-RTL specialization applied to
            # all RTL components"; CL ones stay in Python.  The FL memory
            # keeps the tile itself interpreted: nothing to rebind.
            auto_specialize(s, ("rtl",))

    def lod(s):
        """Level-of-detail score: LOD = p + c + a (paper Figure 13)."""
        return sum(LOD_SCORE[level] for level in s.levels)

    def line_trace(s):
        return f"{s.proc.line_trace()} {s.arbiter.line_trace()}"


def _cache_args(level, mem_msg, nlines, assoc=1):
    if level == "fl":
        return (mem_msg, mem_msg)
    return (mem_msg, mem_msg, nlines, assoc)


def run_tile(levels, words, data=None, max_cycles=2_000_000,
             mem_latency=2, progress=None, jit=False, sched="auto"):
    """Build a tile, load a program + data, run to completion.

    ``sched`` selects the simulator's scheduling mode (see
    :class:`SimulationTool`).  Returns ``(tile, ncycles)``.
    """
    tile = Tile(levels, mem_latency=mem_latency, jit=jit).elaborate()
    tile.mem.load(0, words)
    for addr, value in (data or {}).items():
        tile.mem.write_word(addr, value)
    sim = SimulationTool(tile, sched=sched)
    sim.reset()
    while not int(tile.proc.done):
        sim.cycle()
        if progress is not None and sim.ncycles % 10000 == 0:
            progress(sim.ncycles)
        if sim.ncycles > max_cycles:
            raise AssertionError(
                f"tile {levels} did not halt within {max_cycles} cycles"
            )
    return tile, sim.ncycles
