"""Ready-made :class:`~.cosim.DutAdapter` factories for the case-study
designs: caches, networks, processors, and the accelerator tile.

Each factory names an implementation point in the two-dimensional
verification space the harness sweeps:

- **abstraction level** — ``fl`` / ``cl`` / ``rtl`` models of the same
  interface (compared cycle-tolerant);
- **execution substrate** — ``sched="event"`` / ``"static"`` (which
  includes the mega-cycle kernel when the design allows it) and SimJIT
  compilation of the same model (compared cycle-exact).

The factories build the standard composition around the component (a
cache gets a backing ``TestMemory``, a processor gets its harness, …)
and declare which channels the cosim harness drives, captures, and
taps.
"""

from __future__ import annotations

from ..core import Model
from .cosim import DutAdapter
from .coverage import classify_mem_request, classify_net_message

__all__ = [
    "make_cache_dut",
    "make_mesh_dut",
    "make_proc_dut",
    "make_tile_dut",
    "random_minrisc_program",
    "CACHE_WINDOW_WORDS",
    "PROC_STATE_BASE",
]

# Cache stimulus lives in this many words so random traffic exercises
# hits, refills, and evictions (see mem_request_strategy).
CACHE_WINDOW_WORDS = 256

# Scratch region random MinRISC programs load/store through; the final
# architectural checksum lands here too.
PROC_STATE_BASE = 0x4000

_ALU_R = ["add", "sub", "and", "or", "xor", "slt", "sltu", "mul"]
_ALU_I = ["addi", "andi", "ori", "xori", "slti"]
_BRANCHES = ["beq", "bne", "blt", "bge"]


def random_minrisc_program(rng, length=30, scratch=PROC_STATE_BASE,
                           store_frac=0.10, load_frac=0.10,
                           branch_frac=0.15):
    """Random guaranteed-terminating MinRISC program text.

    Straight-line ALU ops, loads/stores to a small scratch window, and
    forward-only branches (no loops, so every program halts), ending
    with a checksum of r1-r7 stored into the scratch window — the same
    shape as the golden-model property tests, reusable as cosim
    stimulus for processor and tile DUTs.  The instruction-mix
    fractions are tunable: differential sweeps raise ``store_frac`` so
    each program produces a long tapped-store stream to compare.
    """
    alu_frac = 1.0 - store_frac - load_frac - branch_frac
    t_alu_r = alu_frac * 0.7
    t_alu_i = alu_frac
    t_store = alu_frac + store_frac
    t_load = t_store + load_frac
    lines = [f"li r{i}, {rng.randint(-100, 100)}" for i in range(1, 8)]
    lines.append(f"li r9, {scratch}")
    for _ in range(length):
        kind = rng.random()
        rd = rng.randint(1, 7)
        rs1 = rng.randint(1, 7)
        rs2 = rng.randint(1, 7)
        if kind < t_alu_r:
            lines.append(f"{rng.choice(_ALU_R)} r{rd}, r{rs1}, r{rs2}")
        elif kind < t_alu_i:
            imm = rng.randint(-64, 63)
            lines.append(f"{rng.choice(_ALU_I)} r{rd}, r{rs1}, {imm}")
        elif kind < t_store:
            offset = 4 * rng.randint(0, 15)
            lines.append(f"sw r{rd}, {offset}(r9)")
        elif kind < t_load:
            offset = 4 * rng.randint(0, 15)
            lines.append(f"lw r{rd}, {offset}(r9)")
        else:
            skip = rng.randint(1, 3)
            lines.append(
                f"{rng.choice(_BRANCHES)} r{rs1}, r{rs2}, {skip}")
    lines.extend(["nop"] * 3)       # landing pad for trailing branches
    for i in range(1, 8):
        lines.append(f"sw r{i}, {4 * (16 + i)}(r9)")
    lines.append("halt")
    return "\n".join(lines)


def _specialized(component, jit, level):
    """``component`` as the SimJIT point of a sweep (``jit``) builds
    it: compiled as its own top, so the harness built around it holds
    exactly that one engine, whatever else the harness holds.  That
    point compares cycle-exact against the same RTL interpreted, so no
    other level has one."""
    if not jit:
        return component
    if level != "rtl":
        raise ValueError("SimJIT cosim points require level='rtl'")
    from ..core.simjit import auto_specialize
    return auto_specialize(component, ("rtl",))


def make_cache_dut(name, level="rtl", sched="auto", jit=False,
                   nlines=16, assoc=1, mem_latency=2,
                   window_words=CACHE_WINDOW_WORDS):
    """Cache + backing TestMemory.  Drive ``req``, capture ``resp``;
    final state is the backing memory's stimulus window (write-through
    caches must leave identical memory images)."""
    from ..mem import CacheCL, CacheFL, CacheRTL, MemMsg, TestMemory

    mem_msg = MemMsg()
    if level == "fl":
        cache = CacheFL(mem_msg, mem_msg)
    else:
        cls = {"cl": CacheCL, "rtl": CacheRTL}[level]
        cache = cls(mem_msg, mem_msg, nlines=nlines, assoc=assoc)
    cache = _specialized(cache, jit, level)

    class _CacheHarness(Model):
        def __init__(s):
            s.cache = cache
            s.mem = TestMemory(nports=1, latency=mem_latency,
                               size=1 << 16)
            s.connect(s.cache.mem_ifc.req, s.mem.ports[0].req)
            s.connect(s.cache.mem_ifc.resp, s.mem.ports[0].resp)

        def line_trace(s):
            return (f"{s.cache.cpu_ifc.req.to_str()}>"
                    f"{s.cache.cpu_ifc.resp.to_str()}")

    harness = _CacheHarness().elaborate()
    return DutAdapter(
        name, harness,
        drives={"req": harness.cache.cpu_ifc.req},
        captures={"resp": harness.cache.cpu_ifc.resp},
        sched=sched,
        final_state=lambda m: tuple(
            m.mem.read_word(4 * i) for i in range(window_words)),
        classify=lambda cov, ch, msg: classify_mem_request(cov, msg),
    )


def make_mesh_dut(name, router="rtl", nrouters=4, sched="auto",
                  jit=False, nmsgs=256, data_nbits=16, nentries=2):
    """Network DUT: drive every terminal input, capture every terminal
    output.  ``router`` selects ``fl`` (ideal-crossbar NetworkFL),
    ``cl``, or ``rtl`` mesh routers."""
    from ..net import (
        MeshNetworkStructural,
        NetworkFL,
        RouterCL,
        RouterRTL,
    )

    if router == "fl":
        net = NetworkFL(nrouters, nmsgs, data_nbits, nentries)
    else:
        cls = {"cl": RouterCL, "rtl": RouterRTL}[router]
        net = MeshNetworkStructural(
            cls, nrouters, nmsgs, data_nbits, nentries)
    net = _specialized(net, jit, router).elaborate()

    msg_type = net.msg_type
    return DutAdapter(
        name, net,
        drives={f"in{i}": net.in_[i] for i in range(nrouters)},
        captures={f"out{i}": net.out[i] for i in range(nrouters)},
        sched=sched,
        classify=lambda cov, ch, msg:
            classify_net_message(cov, msg_type, msg),
    )


def _load_words(mem, words, data):
    mem.load(0, words)
    for addr, value in (data or {}).items():
        mem.write_word(addr, value)


def _mem_window(mem, base, nwords):
    return tuple(mem.read_word(base + 4 * i) for i in range(nwords))


def make_proc_dut(name, level, words, data=None, sched="auto", jit=False,
                  mem_latency=1, state_base=0x4000, state_words=64):
    """Self-running processor DUT executing an assembled program.

    No channels are driven; the architectural output is (a) a passive
    tap on the data-memory *write* stream — every FL/CL/RTL refinement
    must issue the same stores in the same order — and (b) the final
    contents of the ``state_base`` scratch window.
    """
    from ..mem import MEM_REQ_WRITE, MemReqMsg
    from ..proc import ProcCL, ProcFL, ProcRTL
    from ..proc.harness import ProcHarness

    proc = _specialized(
        {"fl": ProcFL, "cl": ProcCL, "rtl": ProcRTL}[level](), jit, level)
    harness = ProcHarness(proc, mem_latency=mem_latency).elaborate()
    _load_words(harness.mem, words, data)

    type_lo, _ = MemReqMsg.field_slice("type_")
    is_write = lambda msg: (msg >> type_lo) & 1 == MEM_REQ_WRITE

    return DutAdapter(
        name, harness,
        taps={"stores": harness.proc.dmem_ifc.req},
        sched=sched,
        done=lambda m: bool(int(m.proc.done)),
        final_state=lambda m: _mem_window(m.mem, state_base, state_words),
    )._with_tap_filter("stores", is_write)


def make_tile_dut(name, levels=("cl", "cl", "cl"), words=(), data=None,
                  sched="auto", jit=False, mem_latency=2,
                  state_base=0x4000, state_words=64):
    """Full compute tile (processor + caches + accelerator) running an
    assembled program; taps the processor's store stream and compares
    the final data-memory window."""
    from ..accel import Tile
    from ..mem import MEM_REQ_WRITE, MemReqMsg

    tile = Tile(levels, mem_latency=mem_latency, jit=jit).elaborate()
    _load_words(tile.mem, words, data)

    type_lo, _ = MemReqMsg.field_slice("type_")
    is_write = lambda msg: (msg >> type_lo) & 1 == MEM_REQ_WRITE

    return DutAdapter(
        name, tile,
        taps={"stores": tile.proc.dmem_ifc.req},
        sched=sched,
        done=lambda m: bool(int(m.proc.done)),
        final_state=lambda m: _mem_window(m.mem, state_base, state_words),
    )._with_tap_filter("stores", is_write)
