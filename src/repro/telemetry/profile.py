"""Simulator self-profiling: where does host time go?

Two views of a run:

- :class:`ActivityReport` — *simulated* activity: how many block
  events fired, which blocks fired most (requires
  ``collect_stats=True`` on the simulator).
- :class:`SimProfiler` — *host* time: per-phase (settle / tick / flop)
  and per-block wall-clock attribution, simulated cycles per second,
  and the schedule-mode provenance of the run, so a BENCH regression
  can be root-caused to the phase or block that slowed down (requires
  ``profile=True`` on the simulator, which wraps each block in a timer
  and runs the default step: it times the blocks the default run
  calls — the lowered functions of :mod:`repro.core.pygen` where there
  are some — with rows keyed by the block's closure, so a row names
  the block whatever ran).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ActivityReport:
    """Aggregate combinational activity of a simulation run."""

    ncycles: int
    num_events: int
    hot_blocks: list      # [(name, count)], descending

    @property
    def events_per_cycle(self):
        return self.num_events / max(1, self.ncycles)

    def summary(self, top=10):
        lines = [
            f"cycles            : {self.ncycles}",
            f"comb block events : {self.num_events}",
            f"events/cycle      : {self.events_per_cycle:.1f}",
            "hottest blocks:",
        ]
        for name, count in self.hot_blocks[:top]:
            lines.append(f"  {count:10}  {name}")
        return "\n".join(lines)


#: Phase keys in cycle order.
PHASES = ("settle_pre", "hooks", "tick", "flop", "settle_post")


class SimProfiler:
    """Accumulates host-time attribution for a profiled simulation.

    Two feeding paths:

    - the Python step (``SimulationTool._step_python``, under
      ``profile=True``) calls :meth:`add_block` after every timed
      block call and :meth:`add_span` once per phase per cycle
      (plain dict/float math so the profiled run stays
      representative);
    - :meth:`ingest_spans` / :meth:`from_tracer` fold records from
      :mod:`repro.telemetry.tracing` into the same phase table —
      self-time per span name, cycle counts from ``sim.run`` span
      attributes — so phase attribution works identically for SimJIT
      runs, where the Python step never executes.
    """

    def __init__(self):
        self.block_time = {}        # block closure -> [calls, seconds]
        self.phase_time = {name: 0.0 for name in PHASES}
        self.cycles = 0
        self.total_time = 0.0

    def add_block(self, func, dt):
        entry = self.block_time.get(func)
        if entry is None:
            self.block_time[func] = [1, dt]
        else:
            entry[0] += 1
            entry[1] += dt

    def add_span(self, name, seconds, cycles=0):
        """Attribute ``seconds`` of host time to phase ``name``
        (created on first use), advancing the cycle count by
        ``cycles``."""
        self.phase_time[name] = self.phase_time.get(name, 0.0) + seconds
        self.total_time += seconds
        self.cycles += cycles

    def ingest_spans(self, records, cycles_from=("sim.run",)):
        """Fold tracing records into the phase table.

        Each ``X`` record contributes its **self time** (duration
        minus enclosed child spans, computed per ``(pid, tid)`` by
        interval containment) under its span name; records named in
        ``cycles_from`` also contribute their ``ncycles`` argument to
        the cycle count.  Returns self.
        """
        by_thread = {}
        for rec in records:
            if rec.get("ph", "X") != "X":
                continue
            by_thread.setdefault(
                (rec["pid"], rec["tid"]), []).append(rec)
        for recs in by_thread.values():
            # Parent spans start no later and end no earlier than
            # their children: sort by (start, -duration) so parents
            # precede children, then walk with a containment stack.
            recs.sort(key=lambda r: (r["ts"], -r["dur"]))
            self_ns = {}
            stack = []
            for rec in recs:
                end = rec["ts"] + rec["dur"]
                while stack and rec["ts"] >= stack[-1][1]:
                    stack.pop()
                if stack:
                    self_ns[stack[-1][2]] -= rec["dur"]
                self_ns[id(rec)] = rec["dur"]
                stack.append((rec["ts"], end, id(rec)))
            for rec in recs:
                args = rec.get("args") or {}
                cycles = (int(args.get("ncycles", 0))
                          if rec["name"] in cycles_from else 0)
                self.add_span(rec["name"], self_ns[id(rec)] / 1e9,
                              cycles=cycles)
        return self

    @classmethod
    def from_tracer(cls, tracer, cycles_from=("sim.run",)):
        """Build a profiler from a :class:`~repro.telemetry.tracing.
        Tracer`'s retained records."""
        return cls().ingest_spans(tracer.events, cycles_from=cycles_from)

    @property
    def cycles_per_sec(self):
        if self.total_time <= 0.0:
            return 0.0
        return self.cycles / self.total_time

    def report(self, sim=None, top=20):
        """Structured profile dict (the profile section of the
        telemetry export schema)."""
        names = {}
        if sim is not None:
            for sub in sim.model._all_models:
                for blk in sub.get_comb_blocks():
                    names[blk.func] = blk.name
                for blk in sub.get_tick_blocks():
                    names[blk.func] = blk.name
        blocks = sorted(
            ((names.get(func, getattr(func, "__qualname__", "?")),
              calls, seconds)
             for func, (calls, seconds) in self.block_time.items()),
            key=lambda item: -item[2],
        )
        out = {
            "cycles": self.cycles,
            "host_seconds": self.total_time,
            "cycles_per_sec": self.cycles_per_sec,
            "phase_seconds": dict(self.phase_time),
            "hot_blocks": [
                {"name": name, "calls": calls, "seconds": seconds}
                for name, calls, seconds in blocks[:top]
            ],
        }
        if sim is not None:
            out["sched"] = sim.sched_info()
        return out

    def summary(self, sim=None, top=10):
        rep = self.report(sim, top=top)
        lines = [
            f"profiled cycles   : {rep['cycles']}",
            f"host seconds      : {rep['host_seconds']:.4f}",
            f"cycles/sec        : {rep['cycles_per_sec']:.0f}",
            "phase breakdown:",
        ]
        total = max(rep["host_seconds"], 1e-12)
        extra = sorted(set(rep["phase_seconds"]) - set(PHASES))
        for name in (*PHASES, *extra):
            dt = rep["phase_seconds"].get(name, 0.0)
            lines.append(
                f"  {name:<12} {dt:8.4f}s  {100.0 * dt / total:5.1f}%")
        lines.append("hottest blocks (host time):")
        for blk in rep["hot_blocks"]:
            lines.append(
                f"  {blk['seconds']:8.4f}s  {blk['calls']:9} calls  "
                f"{blk['name']}")
        return "\n".join(lines)
