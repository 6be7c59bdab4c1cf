"""The five ladder workloads and the metric names they report.

Every workload is a closed loop with one driver: the next segment
starts only after the previous one returned.  A *segment* is a pinned
amount of simulated work, and every segment of a run replays the same
inputs, so its simulated statistics must repeat exactly — that is the
per-segment correctness check — and both sides of a later A/B
comparison time identical work however many segments fit in the run.

A workload touches ``repro`` only through public names.  The driver in
``run.py`` owns clocks, cache directories and the segment loop; a
workload owns what is built, what one segment is, and which facts
must hold.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import statistics
from dataclasses import dataclass
from time import perf_counter

from repro import Model, SimJITRTL, SimulationTool
from repro.accel import Tile, mvmult_data, mvmult_xcel
from repro.accel.kernels import Y_BASE
from repro.fleet import (
    Campaign,
    CampaignTask,
    VerifSweepTask,
    aggregate,
    report_json,
    run_campaign,
)
from repro.net import (
    MeshNetworkStructural,
    NetMsg,
    NetworkTrafficHarness,
    RouterRTL,
)
from repro.proc import assemble
from repro.verif import (
    RNG,
    CoSimHarness,
    backpressure_pattern,
    net_message_strategy,
)
from repro.verif.duts import make_mesh_dut

from spans import attached

# -- metric names ------------------------------------------------------
#
# BENCHMARK.json repeats these lists (test_ladder.py keeps the two in
# step).  ``=`` in a comment marks a statistic that must repeat exactly.

END_TO_END = [
    ("cycles_per_s", "cycles/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

PER_LAYER = [
    ("core.elaboration.elaborate_s", "s", "lower"),
    ("core.elaboration.models", "count", "lower"),              # =
    ("core.elaboration.signals", "count", "lower"),             # =
    ("core.simulation.construct_s", "s", "lower"),
    ("core.scheduling.static_blocks", "count", "higher"),       # =
    ("core.scheduling.event_blocks", "count", "lower"),         # =
    ("core.scheduling.levels", "count", "lower"),               # =
    ("core.scheduling.kernel", "count", "higher"),              # =
    ("core.simulation.cycle_calls", "count", "lower"),          # =
    ("core.simulation.cycle_busy_s", "s", "lower"),
    ("core.simulation.cycle_us", "us", "lower"),
    ("core.simulation.cycle_share", "ratio", "higher"),
    ("net.traffic.driver_share", "ratio", "lower"),
    ("core.simjit.veri_s", "s", "lower"),
    ("core.simjit.cgen_s", "s", "lower"),
    ("core.simjit.comp_s", "s", "lower"),
    ("core.simjit.wrap_s", "s", "lower"),
    ("core.simjit.c_source_bytes", "bytes", "lower"),           # =
    ("core.simjit.so_bytes", "bytes", "lower"),
    ("core.simjit.compiles", "count", "lower"),                 # =
    ("core.simjit.cache_hits", "count", "higher"),              # =
    ("core.simjit.rehit_s", "s", "lower"),
    ("core.simjit.raw_cycles_per_s", "cycles/s", "higher"),
    ("core.simjit.boundary_us", "us", "lower"),
    ("accel.tile.build_s", "s", "lower"),
    ("accel.tile.sim_cycles", "count", "lower"),                # =
    ("accel.tile.interp_cycles_per_s", "cycles/s", "higher"),
    ("accel.tile.jit_speedup_geomean", "x", "higher"),
    ("accel.tile.jit_speedup_min", "x", "higher"),
    ("accel.tile.jit_slower_configs", "count", "lower"),
    ("net.mesh.injected", "count", "higher"),                   # =
    ("net.mesh.ejected", "count", "higher"),                    # =
    ("net.mesh.avg_latency_cycles", "cycles", "lower"),         # =
    ("verif.duts.build_s", "s", "lower"),
    ("verif.cosim.run_busy_s", "s", "lower"),
    ("verif.cosim.txns", "count", "higher"),                    # =
    ("verif.cosim.txns_per_s", "1/s", "higher"),
    ("verif.cosim.dut_sim_share", "ratio", "higher"),
    ("verif.cosim.harness_share", "ratio", "lower"),
    ("verif.cosim.raw_cycles_per_s", "cycles/s", "higher"),
    ("verif.cosim.overhead_x", "x", "lower"),
    ("fleet.runner.campaign_s", "s", "lower"),
    ("fleet.runner.tasks", "count", "higher"),                  # =
    ("fleet.runner.task_p50_s", "s", "lower"),
    ("fleet.runner.task_max_s", "s", "lower"),
    ("fleet.runner.worker_busy_share", "ratio", "higher"),
    ("fleet.runner.dispatch_ms_per_task", "ms", "lower"),
    ("fleet.runner.retries", "count", "lower"),                 # =
    ("fleet.runner.respawns", "count", "lower"),                # =
    ("fleet.campaign.task_build_share", "ratio", "lower"),
    ("fleet.aggregate.aggregate_s", "s", "lower"),
    ("fleet.aggregate.report_bytes", "bytes", "lower"),         # =
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.segment_iqr", "ratio", "lower"),
    ("bench.cpu_share", "ratio", "higher"),
    ("bench.host_spin_ms", "ms", "lower"),
    ("bench.host_spin_spread", "ratio", "lower"),
    ("bench.setup_span_cover", "ratio", "higher"),
]

# Mesh parameters shared with benchmarks/common.py's figures: 256
# in-flight sequence numbers, 32-bit payload, 2-entry router queues.
NMSGS, DATA_NBITS, NENTRIES = 256, 32, 2

TILE_CYCLE_LIMIT = 200_000


@dataclass
class Ops:
    """What one hook did: simulated cycles that passed their checks,
    and how many operations were attempted and failed.  The driver
    also fails a hook that raises or records a failed expectation.
    ``kind`` tells segments that do different work apart (the tiles);
    segments of one kind do identical work."""

    cycles: int = 0
    attempted: int = 1
    failed: int = 0
    kind: int = 0


def design_size(model):
    """``(models, signals)`` under ``model``, walked through the public
    accessors."""
    models, signals = 1, len(model.get_ports()) + len(model.get_wires())
    for child in model.get_submodels():
        sub_models, sub_signals = design_size(child)
        models += sub_models
        signals += sub_signals
    return models, signals


class Workload:
    """Base: state, expectations, and the hooks the driver calls.

    ``setup`` builds everything from nothing and simulates the first
    cycle; ``reference`` checks the built design against an
    independent run (untimed); ``prepare`` is untimed work a segment
    needs; ``segment`` is the timed unit; ``layers`` fills per-layer
    metrics after a traced run.  A hook returns :class:`Ops`, or
    ``None`` for one operation with no cycles.
    """

    name = ""
    why = ""
    # Cold set-ups timed per run (the median is reported): three for
    # the 2 s set-ups, one where a set-up takes 6 s or more.  A
    # sub-second single shot once moved 20% between runs of one
    # commit; nothing under 3 s is single-shot here, and more shots of
    # the long ones would not fit the driver's time limit.
    setup_reps = 3
    # Peak memory is this process's; a workload whose simulation runs
    # in worker processes takes the largest of those as well.
    rss_includes_children = False
    # Segments per round: one of every kind.
    round = 1
    # Processes that simulate at once (CPU time over wall time reads
    # this much on a host that never deschedules them).
    parallelism = 1

    def __init__(self, seed, smoke, rec):
        self.seed = seed
        self.smoke = smoke
        self.rec = rec
        self.state = None
        self.exact = {}          # statistics that must repeat exactly
        self.failures = []       # one line per failed expectation
        self.jit_log = []        # one entry per specialize() observed
        self.traced_segments = 0
        # Class-level meters reach the calls made inside Tile,
        # make_mesh_dut and fleet tasks.  ``setup_meters`` are the ones
        # the driver attaches around a set-up: the one on ``specialize``
        # always, because every return from it is where an untraced
        # set-up can be cut into pieces (``tick``, set by the driver).
        self.tick = lambda: None
        self.spec_meter = rec.meter(
            SimJITRTL, "specialize", "core.simjit.specialize",
            on_return=self._after_specialize)
        self.elab_meter = None
        self.setup_meters = [self.spec_meter]
        if rec.enabled:
            self.elab_meter = rec.meter(
                Model, "elaborate", "core.elaboration.elaborate")
            self.setup_meters = [self.elab_meter, self.spec_meter]

    def _after_specialize(self, args, _wrapper):
        self.tick()
        spec = args[0]
        self.jit_log.append({
            **{k: spec.overheads.get(k, 0.0)
               for k in ("veri", "cgen", "comp", "wrap")},
            "cache_hit": bool(spec.overheads.get("cache_hit")),
            "c_source_bytes": len(spec.c_source),
            "so_bytes": os.path.getsize(spec.lib_path),
        })

    # -- expectations --------------------------------------------------

    def expect(self, what, got, want):
        """Record a failed expectation; never raises."""
        if got == want:
            return True
        self.failures.append(f"{self.name}: {what}: got {got!r}, "
                             f"want {want!r}")
        return False

    def repeats(self, key, got):
        """First call pins ``exact[key]``; later calls must equal it."""
        if key not in self.exact:
            self.exact[key] = got
            return True
        return self.expect(f"{key} repeats", got, self.exact[key])

    # -- hooks ---------------------------------------------------------

    def warm(self):
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def reference(self):
        """Untimed independent check of what ``setup`` built."""
        return Ops(attempted=0)

    def check_pinned(self, pinned):
        """Seed 1 must reproduce the committed statistics."""
        self.expect("exact statistics vs pinned_seed1.json",
                    self.exact, pinned)

    def prepare(self, traced):
        """Untimed work before a segment; nothing to do is no
        operation."""
        return Ops(attempted=0)

    def cycle_meters(self):
        return []

    def segment(self):
        raise NotImplementedError

    def layers(self, out, traced_wall_s):
        """Fill ``out`` (name -> value) from spans, meters and any
        extra measurement that only a traced run pays for."""
        rec = self.rec
        out["core.elaboration.elaborate_s"] = rec.busy_s(
            "core.elaboration.elaborate")
        out["core.simulation.construct_s"] = rec.total_s(
            "core.simulation.construct", under="setup")
        calls = rec.calls("core.simulation.cycle")
        busy = rec.busy_s("core.simulation.cycle")
        out["core.simulation.cycle_calls"] = calls / self.traced_segments
        out["core.simulation.cycle_busy_s"] = busy
        out["core.simulation.cycle_us"] = (
            busy / calls * 1e6 if calls else 0.0)
        out["core.simulation.cycle_share"] = busy / traced_wall_s
        misses = [j for j in self.jit_log if not j["cache_hit"]]
        hits = [j for j in self.jit_log if j["cache_hit"]]
        for phase in ("veri", "cgen", "comp", "wrap"):
            out[f"core.simjit.{phase}_s"] = sum(j[phase] for j in misses)
        out["core.simjit.c_source_bytes"] = sum(
            j["c_source_bytes"] for j in misses)
        out["core.simjit.so_bytes"] = sum(j["so_bytes"] for j in misses)
        out["core.simjit.compiles"] = len(misses)
        out["core.simjit.cache_hits"] = len(hits)
        out["core.simjit.rehit_s"] = sum(
            j["veri"] + j["cgen"] + j["comp"] + j["wrap"] for j in hits)

    def _sched_layers(self, out, models, sims):
        sizes = [design_size(m) for m in models]
        out["core.elaboration.models"] = sum(s[0] for s in sizes)
        out["core.elaboration.signals"] = sum(s[1] for s in sizes)
        infos = [sim.sched_info() for sim in sims]
        for key in ("static_blocks", "event_blocks", "levels"):
            out[f"core.scheduling.{key}"] = sum(i[key] for i in infos)
        out["core.scheduling.kernel"] = sum(
            1 for i in infos if i["kernel"])


# -- mesh64-kernel / mesh64-jit ----------------------------------------


def _traffic_facts(stats):
    return {"injected": stats.injected, "ejected": stats.ejected,
            "latency_sum": sum(stats.latencies),
            "latency_n": len(stats.latencies)}


class _MeshWorkload(Workload):
    """64-router RTL mesh under uniform-random traffic near
    saturation (paper Figure 14)."""

    RATE = 0.30
    jit = False
    # (full, smoke); full is ~0.25 s, so that thirty fit in a run.
    segment_cycles = (50, 30)

    def __init__(self, seed, smoke, rec):
        super().__init__(seed, smoke, rec)
        self.nrouters = 16 if smoke else 64
        self.ncycles = self.segment_cycles[1 if smoke else 0]
        self.prefix = 30 if smoke else 50

    def _mesh(self, nrouters):
        return MeshNetworkStructural(
            RouterRTL, nrouters, NMSGS, DATA_NBITS, NENTRIES)

    def _build(self, nrouters):
        """Elaborate, (specialize,) construct, first cycle."""
        rec = self.rec
        with rec.span("core.elaboration.elaborate"):
            net = self._mesh(nrouters).elaborate()
        self.tick()
        top = net
        if self.jit:
            with rec.span("core.simjit.specialize"):
                top = SimJITRTL(net).specialize().elaborate()
        with rec.span("core.simulation.construct"):
            sim = SimulationTool(top)
        with rec.span("net.traffic.construct"):
            harness = NetworkTrafficHarness(top, sim=sim, seed=self.seed)
        with rec.span("core.simulation.first_cycle"):
            sim.reset()
            sim.cycle()
        return {"net": net, "top": top, "sim": sim, "harness": harness}

    def warm(self):
        self._build(4)

    def setup(self):
        self.state = self._build(self.nrouters)

    def _traffic(self, harness, ncycles):
        """Replay the seed's traffic from reset for ``ncycles``."""
        harness.rng.seed(self.seed)
        harness.seqnum = 0
        before = harness.sim.ncycles
        stats = harness.run_uniform_random(self.RATE, ncycles, drain=0)
        return harness.sim.ncycles - before, _traffic_facts(stats)

    def reference(self):
        # The event-driven interpreter is the substrate every faster
        # one must match bit for bit; the same prefix is pinned for
        # seed 1, which ties mesh64-kernel and mesh64-jit together.
        net = self._mesh(self.nrouters).elaborate()
        ref = NetworkTrafficHarness(
            net, sim=SimulationTool(net, sched="event"), seed=self.seed)
        _, want = self._traffic(ref, self.prefix)
        _, got = self._traffic(self.state["harness"], self.prefix)
        self.exact["prefix"] = got
        self.expect(f"first {self.prefix} cycles vs sched=event",
                    got, want)

    def cycle_meters(self):
        if "meters" not in self.state:
            sim = self.state["sim"]
            self.state["meters"] = [
                self.rec.meter(sim, "cycle", "core.simulation.cycle")]
        return self.state["meters"]

    def segment(self):
        cycles, facts = self._traffic(self.state["harness"], self.ncycles)
        ok = self.repeats("segment", {"cycles": cycles, **facts})
        return Ops(cycles if ok else 0)

    def layers(self, out, traced_wall_s):
        super().layers(out, traced_wall_s)
        state = self.state
        self._sched_layers(out, [state["net"]], [state["sim"]])
        out["net.traffic.driver_share"] = (
            1.0 - out["core.simulation.cycle_share"])
        seg = self.exact["segment"]
        out["net.mesh.injected"] = seg["injected"]
        out["net.mesh.ejected"] = seg["ejected"]
        out["net.mesh.avg_latency_cycles"] = (
            seg["latency_sum"] / seg["latency_n"])


class MeshKernel(_MeshWorkload):
    name = "mesh64-kernel"
    why = ("CPython rung of Fig. 14: static schedule + mega-cycle kernel, "
           "no SimJIT; the control for every SimJIT change")


class MeshJit(_MeshWorkload):
    name = "mesh64-jit"
    why = ("SimJIT rung of Fig. 14/16: cold gcc compile in set-up, "
           "generated C plus per-cycle port marshalling in the rate")
    jit = True
    segment_cycles = (600, 150)
    setup_reps = 1

    def layers(self, out, traced_wall_s):
        # Specialize once more on the now-warm cache: what every later
        # build of this design pays to find its .so again.
        net = self._mesh(self.nrouters).elaborate()
        with attached([self.spec_meter]):
            SimJITRTL(net).specialize()
        super().layers(out, traced_wall_s)
        engine = self.state["top"].jit_engine
        ncycles = 2000 if self.smoke else 20000
        start = perf_counter()
        engine.raw_cycle(ncycles)
        raw = ncycles / (perf_counter() - start)
        out["core.simjit.raw_cycles_per_s"] = raw
        out["core.simjit.boundary_us"] = (
            out["core.simulation.cycle_us"] - 1e6 / raw)


# -- tile-mixed-jit ----------------------------------------------------


class TileMixedJit(Workload):
    name = "tile-mixed-jit"
    why = ("Fig. 13: many small SimJIT engines inside event-driven "
           "interpreted tiles with FL/CL Python models; marshalling per "
           "evaluation, not one big kernel")

    LEVELS = ("fl", "cl", "rtl")
    SMOKE_CONFIGS = [("rtl", "fl", "fl"), ("fl", "rtl", "cl"),
                     ("cl", "cl", "rtl")]

    def __init__(self, seed, smoke, rec):
        super().__init__(seed, smoke, rec)
        self.configs = self.SMOKE_CONFIGS if smoke else [
            c for c in itertools.product(self.LEVELS, repeat=3)
            if "rtl" in c]
        self.rows, self.cols = (4, 8) if smoke else (16, 16)
        self.words = assemble(mvmult_xcel(self.rows, self.cols))
        self.data, self.expected = mvmult_data(
            self.rows, self.cols, seed=seed)
        self.round = len(self.configs)
        self.jit_times = {c: [] for c in self.configs}
        self._next = 0           # the tile the next segment runs
        self._traced_rebuild_done = False

    def _build(self, configs, jit):
        rec, tiles = self.rec, []
        for levels in configs:
            with rec.span("accel.tile.Tile", levels=levels):
                tile = Tile(levels, jit=jit).elaborate()
                tile.mem.load(0, self.words)
                for addr, value in self.data.items():
                    tile.mem.write_word(addr, value)
            with rec.span("core.simulation.construct"):
                tiles.append((levels, tile, SimulationTool(tile)))
        return tiles

    def warm(self):
        for _, _, sim in self._build(self.configs[:1], jit=True):
            sim.reset()
            sim.cycle()

    def setup(self):
        rec = self.rec
        with rec.span("accel.tile.build", tiles=len(self.configs)):
            tiles = self._build(self.configs, jit=True)
        with rec.span("core.simulation.first_cycle"):
            for _, _, sim in tiles:
                sim.reset()
                sim.cycle()
        self.state = {"tiles": tiles, "meters": []}

    def prepare(self, traced):
        # One segment is one tile's run and one round a pass over all
        # of them.  A tile with a CL processor cannot run twice (see
        # README), so every pass gets new tiles, built untimed on the
        # warm cache.
        if self._next:
            return Ops(attempted=0)
        self.rec.retire(self.state["meters"])
        self.state = None       # let the old tiles go before building
        # The first traced rebuild also shows what finding nineteen
        # tiles' engines in the warm cache costs (rehit_s).
        meters = []
        if traced and not self._traced_rebuild_done:
            meters = [self.spec_meter]
            self._traced_rebuild_done = True
        with attached(meters), self.rec.span("accel.tile.rebuild"):
            tiles = self._build(self.configs, jit=True)
        self.state = {"tiles": tiles, "meters": []}
        if traced:
            self.state["meters"] = [
                self.rec.meter(sim, "cycle", "core.simulation.cycle")
                for _, _, sim in tiles]
        return None

    def cycle_meters(self):
        return self.state["meters"][self._next:self._next + 1]

    def _run_tile(self, levels, tile, sim, times):
        """Run one tile to ``proc.done``; a wrong ``Y`` or cycle count
        is a failed operation with no cycles."""
        tag = "<" + ",".join(levels) + ">"
        start = perf_counter()
        sim.reset()
        while not int(tile.proc.done):
            sim.cycle()
            if sim.ncycles > TILE_CYCLE_LIMIT:
                raise RuntimeError(
                    f"tile {tag} did not halt in "
                    f"{TILE_CYCLE_LIMIT} cycles")
        elapsed = perf_counter() - start
        y = [tile.mem.read_word(Y_BASE + 4 * i) for i in range(self.rows)]
        ok = self.expect(f"{tag} Y", y, self.expected)
        ok &= self.repeats(f"cycles{tag}", sim.ncycles)
        if not ok:
            return Ops(failed=1)
        times[levels].append(elapsed)
        return Ops(sim.ncycles)

    def segment(self):
        kind = self._next
        self._next = (kind + 1) % len(self.configs)
        ops = self._run_tile(*self.state["tiles"][kind], self.jit_times)
        ops.kind = kind
        return ops

    def layers(self, out, traced_wall_s):
        super().layers(out, traced_wall_s)
        tiles = self.state["tiles"]
        self._sched_layers(out, [t for _, t, _ in tiles],
                           [s for _, _, s in tiles])
        out["accel.tile.build_s"] = self.rec.total_s(
            "accel.tile.build", under="setup")
        out["accel.tile.sim_cycles"] = sum(
            v for k, v in self.exact.items() if k.startswith("cycles<"))
        # One pass over the interpreted twins.  ``repeats`` under the
        # same keys makes each twin's cycle count a checked fact.
        interp_times = {c: [] for c in self.configs}
        total = Ops(attempted=0)
        start = perf_counter()
        for twin in self._build(self.configs, jit=False):
            ops = self._run_tile(*twin, interp_times)
            total = Ops(total.cycles + ops.cycles, total.attempted + 1,
                        total.failed + ops.failed)
        elapsed = perf_counter() - start
        out["accel.tile.interp_cycles_per_s"] = total.cycles / elapsed
        speedups = [
            interp_times[c][0] / statistics.median(self.jit_times[c])
            for c in self.configs
            if interp_times[c] and self.jit_times[c]]
        if speedups:
            out["accel.tile.jit_speedup_geomean"] = math.exp(
                sum(math.log(s) for s in speedups) / len(speedups))
            out["accel.tile.jit_speedup_min"] = min(speedups)
            out["accel.tile.jit_slower_configs"] = sum(
                1 for s in speedups if s < 1.0)
        return total


# -- cosim-mesh16 ------------------------------------------------------


class CosimMesh(Workload):
    name = "cosim-mesh16"
    why = ("verif.cosim does most of the work: per-cycle _step, monitors "
           "and online diff over event, static and SimJIT DUTs built once")

    POINTS = (("event", {"sched": "event"}),
              ("static", {"sched": "static"}),
              ("jit", {"jit": True}))
    setup_reps = 1

    def __init__(self, seed, smoke, rec):
        super().__init__(seed, smoke, rec)
        self.nrouters = 4 if smoke else 16
        self.nmsgs = 10 if smoke else 25
        rng = RNG(seed)
        msg_type = NetMsg(self.nrouters, 256, 16)
        self.stimulus = {}
        for src in range(self.nrouters):
            strat = net_message_strategy(msg_type, src, self.nrouters)
            port_rng = rng.fork(f"port{src}")
            self.stimulus[f"in{src}"] = [
                strat.sample(port_rng) for _ in range(self.nmsgs)]
        self.backpressure = backpressure_pattern(
            "random", p=0.8, seed=seed)

    def _build(self, nrouters):
        rec = self.rec
        duts = []
        with rec.span("verif.duts.build"):
            for name, point in self.POINTS:
                duts.append(make_mesh_dut(
                    name, "rtl", nrouters=nrouters, **point))
                self.tick()
        with rec.span("verif.cosim.construct"):
            harness = CoSimHarness(duts, compare="cycle_exact")
        with rec.span("core.simulation.first_cycle"):
            for dut in duts:
                dut.sim.reset()
                dut.sim.cycle()
        return {"duts": duts, "harness": harness}

    def warm(self):
        self._build(4)

    def setup(self):
        self.state = self._build(self.nrouters)

    def cycle_meters(self):
        if "meters" not in self.state:
            rec = self.rec
            meters = [rec.meter(self.state["harness"], "run",
                                "verif.cosim.run")]
            for dut in self.state["duts"]:
                cycle = rec.meter(
                    dut.sim, "cycle", "core.simulation.cycle")
                meters += [cycle, rec.meter(
                    dut.sim, "eval_combinational",
                    "core.simulation.eval_combinational", within=cycle)]
            self.state["meters"] = meters
        return self.state["meters"]

    def segment(self):
        duts = self.state["duts"]
        # CoSimResult.ncycles is cumulative over a reused harness (see
        # README), so count what this run added.
        before = [dut.sim.ncycles for dut in duts]
        res = self.state["harness"].run(
            self.stimulus, backpressure=self.backpressure)
        cycles = sum(dut.sim.ncycles - b for dut, b in zip(duts, before))
        ok = self.expect("ntransactions", res.ntransactions(),
                         self.nrouters * self.nmsgs)
        ok &= self.repeats("segment", {
            "cycles": cycles, "ntransactions": res.ntransactions()})
        return Ops(cycles if ok else 0)

    def layers(self, out, traced_wall_s):
        super().layers(out, traced_wall_s)
        rec, duts = self.rec, self.state["duts"]
        self._sched_layers(out, [d.model for d in duts],
                           [d.sim for d in duts])
        out["verif.duts.build_s"] = rec.total_s(
            "verif.duts.build", under="setup")
        run_busy = rec.busy_s("verif.cosim.run")
        out["verif.cosim.run_busy_s"] = run_busy
        txns = self.exact["segment"]["ntransactions"]
        out["verif.cosim.txns"] = txns
        nsegs = self.traced_segments
        out["verif.cosim.txns_per_s"] = txns * nsegs / run_busy
        in_duts = (rec.busy_s("core.simulation.cycle")
                   + rec.busy_s("core.simulation.eval_combinational"))
        out["verif.cosim.dut_sim_share"] = in_duts / run_busy
        out["verif.cosim.harness_share"] = 1.0 - in_duts / run_busy
        static = next(d for d in duts if d.name == "static")
        ncycles = 500 if self.smoke else 5000
        static.sim.reset()
        start = perf_counter()
        static.sim.run(ncycles)
        raw = ncycles / (perf_counter() - start)
        out["verif.cosim.raw_cycles_per_s"] = raw
        per_dut = (self.exact["segment"]["cycles"] * nsegs
                   / len(duts) / run_busy)
        out["verif.cosim.overhead_x"] = raw / per_dut


# -- fleet-campaign ----------------------------------------------------


class NoopTask(CampaignTask):
    """A task that does nothing: what is left is dispatch."""

    kind = "noop"

    def run(self, rng, ctx):
        return {"ncycles": 0}, {}, {}


class FleetCampaign(Workload):
    name = "fleet-campaign"
    why = ("ROADMAP campaign row: every task re-elaborates and "
           "re-specializes on a warm cache, then co-simulates; plus "
           "fleet.runner dispatch and fleet.aggregate")

    POINTS = (("static", {"sched": "static"}), ("jit", {"jit": True}))
    NWORKERS = 2
    # One mesh4 task per worker: such a campaign takes 0.4 s, so that
    # twenty fit in a run (four mesh16 tasks took 3 s).
    NROUTERS = 4
    NTASKS = NWORKERS
    parallelism = NWORKERS
    rss_includes_children = True

    def __init__(self, seed, smoke, rec):
        super().__init__(seed, smoke, rec)
        self.ntxns = 10 if smoke else 20
        self.campaign_times = []
        self.task_times = []
        self.last = None
        # Set-up is one cold task: keep its compile phases, but leave
        # elaborate_s to the warm inline task in ``layers``, which is
        # what every task of a campaign pays.
        self.setup_meters = [self.spec_meter]

    def _campaign(self, name, ntasks):
        return Campaign(name, seed=self.seed, tasks=[
            VerifSweepTask(
                f"mesh{self.NROUTERS}/{i}", scenario="mesh",
                ntxns=self.ntxns, points=self.POINTS,
                dut_params={"nrouters": self.NROUTERS})
            for i in range(ntasks)])

    def _inline_task(self, name):
        with self.rec.span("fleet.runner.run_campaign", tasks=1,
                           nworkers=1):
            res = run_campaign(self._campaign(name, 1), nworkers=1)
        return res

    def warm(self):
        self._inline_task("ladder-warm")

    def setup(self):
        res = self._inline_task("ladder-setup")
        self.expect("set-up campaign status", res.report["status"], "ok")
        self.state = res

    def segment(self):
        start = perf_counter()
        res = run_campaign(self._campaign("ladder", self.NTASKS),
                           nworkers=self.NWORKERS)
        self.campaign_times.append(perf_counter() - start)
        self.task_times.append(list(res.stats["task_elapsed"].values()))
        self.last = res
        bad = [tid for tid, entry in res.report["tasks"].items()
               if entry["status"] != "ok"]
        for tid in bad:
            self.failures.append(
                f"{self.name}: task {tid} ended "
                f"{res.report['tasks'][tid]['status']}")
        cycles = sum(
            sum(entry["payload"]["ncycles"].values())
            for tid, entry in res.report["tasks"].items()
            if tid not in bad)
        report = res.report_json().encode()
        same = self.repeats("campaign", {
            "cycles": cycles, "report_bytes": len(report),
            "report_sha256": hashlib.sha256(report).hexdigest()})
        if not same:
            return Ops(0, attempted=self.NTASKS, failed=self.NTASKS)
        return Ops(cycles, attempted=self.NTASKS, failed=len(bad))

    def layers(self, out, traced_wall_s):
        rec, res = self.rec, self.last
        # One more task, inline and on the warm cache, with the class
        # meters on: where a task's time goes between building DUTs
        # and driving them.
        run_meter = rec.meter(CoSimHarness, "run", "verif.cosim.run")
        with attached([self.elab_meter, self.spec_meter, run_meter]):
            start = perf_counter()
            self._inline_task("ladder-inline")
            task_wall = perf_counter() - start
        super().layers(out, traced_wall_s)
        out["fleet.campaign.task_build_share"] = (
            1.0 - rec.busy_s("verif.cosim.run") / task_wall)
        out["fleet.runner.campaign_s"] = statistics.median(
            self.campaign_times)
        tasks = [t for times in self.task_times for t in times]
        out["fleet.runner.tasks"] = self.NTASKS
        out["fleet.runner.task_p50_s"] = statistics.median(tasks)
        out["fleet.runner.task_max_s"] = max(tasks)
        out["fleet.runner.worker_busy_share"] = statistics.median(
            sum(times) / (self.NWORKERS * wall)
            for times, wall in zip(self.task_times, self.campaign_times))
        out["fleet.runner.retries"] = res.stats["retries"]
        out["fleet.runner.respawns"] = res.stats["respawns"]
        out["fleet.aggregate.report_bytes"] = (
            self.exact["campaign"]["report_bytes"])
        folds = []
        for _ in range(5):
            start = perf_counter()
            report_json(aggregate(res.campaign, res.results))
            folds.append(perf_counter() - start)
        out["fleet.aggregate.aggregate_s"] = statistics.median(folds)
        nnoop = 8 if self.smoke else 64
        noop = Campaign("ladder-noop", seed=self.seed, tasks=[
            NoopTask(f"noop/{i}") for i in range(nnoop)])
        start = perf_counter()
        noop_res = run_campaign(noop, nworkers=self.NWORKERS)
        out["fleet.runner.dispatch_ms_per_task"] = (
            (perf_counter() - start) / nnoop * 1e3)
        self.expect("no-op campaign status",
                    noop_res.report["status"], "ok")


WORKLOADS = {cls.name: cls for cls in (
    MeshKernel, MeshJit, TileMixedJit, CosimMesh, FleetCampaign)}
