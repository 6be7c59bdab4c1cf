"""Static-schedule speedup: cycles/sec, event vs static scheduling.

The static scheduler (``SimulationTool(model, sched="static")``)
replaces the event-driven settle loop with one levelized sweep and
activity-gates pure RTL tick blocks, so a design pays only for the
logic that actually toggles; and what it sweeps are *lowered* blocks
(``core/pygen.py``: plain-int functions over the nets) instead of the
user's closures.  This bench measures CPython cycles/sec in two
modes — ``event`` (the user's closures on the event fixpoint: the
paper's CPython substrate, the 1x) and ``static`` (the default
simulator: static schedule, lowered blocks) — on three designs with
realistic activity profiles:

- ``mesh``    — 8x8 RTL mesh under uniform-random traffic in the
  zero-load regime (and one loaded point for contrast): most routers
  are idle on any cycle, the classic NoC operating point.
- ``cache``   — a 32-bank :class:`BankedCacheRTL` serving one blocking
  requester: one bank active at a time, the rest idle.
- ``accel``   — the RTL accelerator tile running the mvmult xcel
  kernel to completion: always busy, and partially event-scheduled
  (the processor's val/rdy handshake is a genuine comb SCC), so it
  bounds the speedup from below.

Wall time uses ``time.process_time()`` (best of N) — the event
runs are seconds long and CPU-bound, so process time is the stable
metric on shared machines.  Every mode pair is checked for identical
architectural results before its timing is reported.

``BENCH_QUICK=1`` shrinks every design/workload for CI smoke runs.

Results land in ``benchmarks/results/BENCH_sched.json``.
"""

import random
import time

from common import (QUICK, Pedantic, format_table, write_json_result,
                    write_result)
from repro import SimulationTool
from repro.accel import mvmult_data, mvmult_xcel
from repro.accel.kernels import Y_BASE
from repro.accel.tile import Tile
from repro.mem import BankedCacheRTL, MemReqMsg
from repro.net import MeshNetworkStructural, RouterRTL
from repro.proc import assemble

REPS = 2 if QUICK else 6

MESH_NROUTERS = 16 if QUICK else 64
MESH_NCYCLES = 200 if QUICK else 600
MESH_RATES = (0.02,) if QUICK else (0.01, 0.08)

CACHE_NBANKS = 8 if QUICK else 32
CACHE_NTRANS = 100 if QUICK else 400

ACCEL_ROWS, ACCEL_COLS = (4, 16) if QUICK else (8, 32)


# -- mesh ---------------------------------------------------------------------------


def _mesh_workload(nterminals, rate, ncycles, seed=0):
    """Precomputed injection schedule: (port, dest) events per cycle.

    Keeping the Bernoulli draws out of the timed loop means the
    measurement is the simulator, not the test bench."""
    rng = random.Random(seed)
    return [
        [(i, rng.randrange(nterminals)) for i in range(nterminals)
         if rng.random() < rate]
        for _ in range(ncycles)
    ]


def _run_mesh(sched, nrouters, workload):
    net = MeshNetworkStructural(RouterRTL, nrouters, 256, 32, 2).elaborate()
    sim = SimulationTool(net, sched=sched)
    sim.reset()
    mt = net.msg_type
    dest_shift = mt.field_slice("dest")[0]
    src_shift = mt.field_slice("src")[0]
    in_val = [p.val for p in net.in_]
    in_msg = [p.msg for p in net.in_]
    in_rdy = [p.rdy for p in net.in_]
    out_val = [p.val for p in net.out]
    for p in net.out:
        p.rdy.value = 1
    pending = {}
    ejected = 0
    seq = 0

    def step():
        nonlocal ejected
        accepted = [i for i in pending if in_rdy[i].uint()]
        sim.cycle()
        for i in accepted:
            del pending[i]
            in_val[i].value = 0
        for v in out_val:
            if v.uint():
                ejected += 1

    start = time.process_time()
    for events in workload:
        for (i, dest) in events:
            if i not in pending:
                pending[i] = ((dest << dest_shift) | (i << src_shift)
                              | (seq & 0xFF))
                seq += 1
                in_val[i].value = 1
                in_msg[i].value = pending[i]
        step()
    for _ in range(800):                     # drain in-flight packets
        if not pending and ejected >= seq:
            break
        step()
    elapsed = time.process_time() - start
    return {"cycles": sim.ncycles, "ejected": ejected,
            "injected": seq}, elapsed


def _make_mesh_runner(rate):
    workload = _mesh_workload(MESH_NROUTERS, rate, MESH_NCYCLES)
    return lambda sched: _run_mesh(sched, MESH_NROUTERS, workload)


# -- banked cache -------------------------------------------------------------------


def _cache_workload(ntrans, seed=0):
    rng = random.Random(seed)
    return [
        (k % CACHE_NBANKS, rng.random() < 0.3, rng.randrange(32) * 4,
         k * 13 + 1)
        for k in range(ntrans)
    ]


def _run_cache(sched, workload):
    top = BankedCacheRTL(nbanks=CACHE_NBANKS).elaborate()
    sim = SimulationTool(top, sched=sched)
    sim.reset()
    trace = []
    start = time.process_time()
    for bank, is_write, addr, data in workload:
        enq = top.req_q[bank].enq
        deq = top.resp_q[bank].deq
        req = (MemReqMsg.mk_wr(addr, data) if is_write
               else MemReqMsg.mk_rd(addr))
        enq.msg.value = req
        enq.val.value = 1
        for _ in range(300):
            accepted = enq.rdy.uint()
            sim.cycle()
            if accepted:
                break
        enq.val.value = 0
        deq.rdy.value = 1
        for _ in range(300):
            if deq.val.uint():
                trace.append((bank, deq.msg.uint()))
                sim.cycle()
                break
            sim.cycle()
        deq.rdy.value = 0
    elapsed = time.process_time() - start
    return {"cycles": sim.ncycles, "trace": tuple(trace)}, elapsed


def _make_cache_runner():
    workload = _cache_workload(CACHE_NTRANS)
    return lambda sched: _run_cache(sched, workload)


# -- accelerator tile ---------------------------------------------------------------


def _run_accel(sched, words, data, expected):
    tile = Tile(("rtl", "rtl", "rtl")).elaborate()
    tile.mem.load(0, words)
    for addr, value in data.items():
        tile.mem.write_word(addr, value)
    sim = SimulationTool(tile, sched=sched)
    sim.reset()
    start = time.process_time()
    while not int(tile.proc.done):
        sim.cycle()
        assert sim.ncycles < 2_000_000, "tile did not halt"
    elapsed = time.process_time() - start
    got = [tile.mem.read_word(Y_BASE + 4 * i) for i in range(len(expected))]
    assert got == expected, "accel kernel produced wrong result"
    return {"cycles": sim.ncycles}, elapsed


def _make_accel_runner():
    data, expected = mvmult_data(ACCEL_ROWS, ACCEL_COLS)
    words = assemble(mvmult_xcel(ACCEL_ROWS, ACCEL_COLS))
    return lambda sched: _run_accel(sched, words, data, expected)


# -- driver -------------------------------------------------------------------------


MODES = ("static", "event")


def _compare(design, config, run):
    """Time the two modes, check architectural equivalence, return
    rows.

    Reps are interleaved (static, event, static, ...) and
    the minimum per mode is kept, so slow drift on a shared machine
    hits every mode alike instead of biasing whichever ran last."""
    best, results = {}, {}
    for _ in range(REPS):
        for mode in MODES:
            results[mode], dt = run(mode)
            best[mode] = min(dt, best.get(mode, dt))
    assert results["static"] == results["event"], (
        f"{design}: the modes diverged: {results}")
    cycles = results["static"]["cycles"]
    entries = [{
        "design": design,
        "config": config,
        "mode": mode,
        "cycles": cycles,
        "seconds": round(best[mode], 4),
        "cycles_per_sec": round(cycles / best[mode], 1)
        if best[mode] else None,
    } for mode in MODES]
    speedup = (best["event"] / best["static"] if best["static"]
               else float("inf"))
    return entries, speedup


def test_sched_speedup(benchmark):
    entries = []
    speedups = {}

    def run_all():
        for rate in MESH_RATES:
            name = f"mesh{MESH_NROUTERS}@{rate}"
            rows, speedup = _compare("mesh", name, _make_mesh_runner(rate))
            entries.extend(rows)
            speedups[name] = speedup
        rows, speedup = _compare(
            "cache", f"banked x{CACHE_NBANKS}", _make_cache_runner())
        entries.extend(rows)
        speedups["cache"] = speedup
        rows, speedup = _compare(
            "accel", f"tile-rtl mvmult {ACCEL_ROWS}x{ACCEL_COLS}",
            _make_accel_runner())
        entries.extend(rows)
        speedups["accel"] = speedup

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table_rows = []
    by_key = {(e["design"], e["config"], e["mode"]): e for e in entries}
    for (design, config, mode), entry in sorted(by_key.items()):
        if mode != "static":
            continue
        event = by_key[(design, config, "event")]
        table_rows.append([
            design, config, entry["cycles"],
            f"{event['cycles_per_sec']:.0f}",
            f"{entry['cycles_per_sec']:.0f}",
            f"{entry['cycles_per_sec'] / event['cycles_per_sec']:.2f}x",
        ])
    text = format_table(
        "CPython simulation: event-driven closures (1x) against the "
        "default (static schedule, lowered blocks)",
        ["design", "config", "cycles", "event cyc/s", "static cyc/s",
         "speedup"],
        table_rows,
    )
    write_result("sched_speedup.txt", text)
    write_json_result("sched", entries, quick=QUICK)


if __name__ == "__main__":
    test_sched_speedup(Pedantic())
