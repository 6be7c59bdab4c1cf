"""Structured export: one schema for counters, traces, and profiles.

``sim.telemetry`` is a :class:`Telemetry` view bound to a running
simulator.  It reads the hierarchical counter/histogram registries the
elaborator collected, any attached transaction tracers, the optional
self-profiler, and the scheduling provenance, and renders them through
a single :class:`TelemetryReport` with JSON / CSV / text-summary
output — the shape ``benchmarks/bench_telemetry_overhead.py`` and the
CI telemetry job consume.

The schema (``repro-telemetry-v1``)::

    {
      "schema": "repro-telemetry-v1",
      "design": "MeshNetworkStructural",
      "ncycles": 2000,
      "num_events": 81234,
      "sched": {...sim.sched_info()...},
      "counters":   {"top.routers[0].flits_out0": 17, ...},
      "subtrees":   {"top.routers[0]": {"flits_out0": 17, ...}, ...},
      "leaf_totals": {"flits_out0": 204, ...},
      "derived":    {"top.proc.cpi": 1.8, ...},
      "histograms": {"top.x.lat": {"count":..,"mean":..,"bins":[[v,n]..]}},
      "transactions": [ ...per-tracer summary()... ],
      "profile":    {...SimProfiler.report()...} | null,
      "observe":    {"recorders": [...], "watchpoints": [...]} | null
    }

The ``observe`` section summarizes the waveform-observatory
attachments (:mod:`repro.observe`): per armed flight recorder its
signal list, depth, and recorded span; per watchpoint its condition
and fire count.  It is ``null`` when nothing is armed.
"""

from __future__ import annotations

import json

from .counters import Histogram
from .profile import ActivityReport

__all__ = ["Telemetry", "TelemetryReport"]


class Telemetry:
    """Per-simulator telemetry facade (``sim.telemetry``).

    Construction is free of side effects: nothing is read or computed
    until a report is requested, preserving the zero-overhead-when-
    disabled contract.
    """

    def __init__(self, sim):
        self.sim = sim
        self.tracers = []

    # -- tracers ----------------------------------------------------------

    def trace(self, check_protocol=True):
        """Create a :class:`~repro.telemetry.txtrace.TxTracer`, attach
        it to this simulator, and return it."""
        from .txtrace import TxTracer
        tracer = TxTracer(check_protocol=check_protocol)
        tracer.attach(self.sim)
        self.tracers.append(tracer)
        return tracer

    # -- raw registries -----------------------------------------------------

    def counters(self):
        """``{hierarchical_name: int_value}`` for every declared
        counter (empty when telemetry was disabled at construction)."""
        registry = getattr(self.sim.model, "_all_counters", {})
        return {name: ctr.value for name, ctr in registry.items()}

    def histograms(self):
        """``{hierarchical_name: Histogram}``."""
        return dict(getattr(self.sim.model, "_all_histograms", {}))

    def subtree_totals(self, counters=None):
        """Roll counter values up the hierarchy: for every instance
        prefix, the sum of each leaf counter name underneath it."""
        if counters is None:
            counters = self.counters()
        totals = {}
        for full, value in counters.items():
            path, _, leaf = full.rpartition(".")
            parts = path.split(".") if path else []
            for i in range(1, len(parts) + 1):
                prefix = ".".join(parts[:i])
                bucket = totals.setdefault(prefix, {})
                bucket[leaf] = bucket.get(leaf, 0) + value
        return totals

    def leaf_totals(self, counters=None):
        """Design-wide sum per leaf counter name (e.g. total
        ``flits_out0`` over all routers)."""
        if counters is None:
            counters = self.counters()
        totals = {}
        for full, value in counters.items():
            leaf = full.rpartition(".")[2]
            totals[leaf] = totals.get(leaf, 0) + value
        return totals

    def activity(self):
        """Simulated-activity view (:class:`ActivityReport`).

        Requires the simulator to have been built with
        ``collect_stats=True``.
        """
        sim = self.sim
        if not sim.collect_stats:
            raise ValueError(
                "pass collect_stats=True to SimulationTool to gather "
                "activity statistics"
            )
        names = {}
        for sub in sim.model._all_models:
            for blk in sub.get_comb_blocks():
                names[blk.func] = blk.name
        hot = sorted(
            ((names.get(func, getattr(func, "__name__", "?")), count)
             for func, count in sim.block_calls.items()),
            key=lambda item: -item[1],
        )
        return ActivityReport(
            ncycles=sim.ncycles,
            num_events=sim.num_events,
            hot_blocks=hot,
        )

    def observe_summary(self):
        """Waveform-observatory state: armed recorders/watchpoints
        (``None`` when the observatory is idle)."""
        sim = self.sim
        recorders = getattr(sim, "_recorders", ())
        watchpoints = getattr(sim, "_watchpoints", ())
        if not recorders and not watchpoints:
            return None
        return {
            "recorders": [
                {
                    "signals": rec.signal_names,
                    "depth": rec.depth,
                    "samples": rec.nsamples,
                    "window_cycles": rec.window_cycles,
                }
                for rec in recorders
            ],
            "watchpoints": [wp.diagnostic() for wp in watchpoints],
        }

    # -- report -------------------------------------------------------------

    def report(self):
        """Snapshot everything into a :class:`TelemetryReport`."""
        sim = self.sim
        counters = self.counters()
        derived = {}
        for full, value in counters.items():
            if full.endswith(".insts_retired") and value:
                prefix = full.rpartition(".")[0]
                derived[f"{prefix}.cpi"] = sim.ncycles / value
        profile = None
        if sim.profiler is not None:
            profile = sim.profiler.report(sim)
        sched = sim.sched_info()
        # The v1 report carries the scheduling partition only: the
        # SimJIT kernel shape and which blocks run lowered stay out of
        # its bytes.
        sched.pop("simjit", None)
        sched.pop("lowered", None)
        return TelemetryReport(
            design=type(sim.model).__name__,
            ncycles=sim.ncycles,
            num_events=sim.num_events,
            sched=sched,
            counters=counters,
            subtrees=self.subtree_totals(counters),
            leaf_totals=self.leaf_totals(counters),
            derived=derived,
            histograms=self.histograms(),
            transactions=[t.summary() for t in self.tracers],
            profile=profile,
            observe=self.observe_summary(),
        )

    def close(self):
        """Finalize sinks (called by ``SimulationTool.close()``)."""
        self.tracers = list(self.tracers)   # nothing held open today


class TelemetryReport:
    """Immutable snapshot with JSON / CSV / text renderings."""

    SCHEMA = "repro-telemetry-v1"

    def __init__(self, design, ncycles, num_events, sched, counters,
                 subtrees, leaf_totals, derived, histograms,
                 transactions, profile, observe=None):
        self.design = design
        self.ncycles = ncycles
        self.num_events = num_events
        self.sched = sched
        self.counters = counters
        self.subtrees = subtrees
        self.leaf_totals = leaf_totals
        self.derived = derived
        self.histograms = histograms
        self.transactions = transactions
        self.profile = profile
        self.observe = observe

    def to_dict(self):
        return {
            "schema": self.SCHEMA,
            "design": self.design,
            "ncycles": self.ncycles,
            "num_events": self.num_events,
            "sched": self.sched,
            "counters": dict(self.counters),
            "subtrees": {k: dict(v) for k, v in self.subtrees.items()},
            "leaf_totals": dict(self.leaf_totals),
            "derived": dict(self.derived),
            "histograms": {
                name: _hist_dict(hist)
                for name, hist in self.histograms.items()
            },
            "transactions": self.transactions,
            "profile": self.profile,
            "observe": self.observe,
        }

    def to_json(self, path=None):
        """JSON text; also written to ``path`` when given."""
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text + "\n")
        return text

    def to_csv(self, path=None):
        """Flat ``kind,name,value`` rows for spreadsheet-style
        consumption; also written to ``path`` when given."""
        rows = [("kind", "name", "value")]
        for name, value in self.counters.items():
            rows.append(("counter", name, value))
        for name, value in self.derived.items():
            rows.append(("derived", name, value))
        for name, hist in self.histograms.items():
            rows.append(("histogram_count", name, hist.count))
            rows.append(("histogram_mean", name, hist.mean))
        for tx in self.transactions:
            for tap, info in tx["taps"].items():
                rows.append(("tap_transfers", tap, info["transfers"]))
                rows.append(("tap_stalls", tap, info["stall_cycles"]))
        text = "\n".join(",".join(str(c) for c in row) for row in rows)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text + "\n")
        return text

    def summary(self, top=15):
        """Human-readable multi-line summary."""
        sched = self.sched
        lines = [
            f"telemetry report: {self.design}",
            f"  cycles={self.ncycles} events={self.num_events} "
            f"sched={sched['mode']} "
            f"kernel={'yes' if sched['kernel'] else 'no'}",
        ]
        if self.counters:
            lines.append("  counters:")
            shown = sorted(self.counters.items(),
                           key=lambda kv: (-kv[1], kv[0]))[:top]
            for name, value in shown:
                lines.append(f"    {value:10}  {name}")
            if len(self.counters) > top:
                lines.append(
                    f"    ... {len(self.counters) - top} more")
        for name, value in sorted(self.derived.items()):
            lines.append(f"  {name} = {value:.3f}")
        for name, hist in self.histograms.items():
            lines.append(
                f"  histogram {name}: n={hist.count} "
                f"mean={hist.mean:.2f} max={hist.max}")
        for tx in self.transactions:
            for tap, info in tx["taps"].items():
                lines.append(
                    f"  tap {tap}: {info['transfers']} transfers, "
                    f"{info['stall_cycles']} stall cycles, "
                    f"{info['violations']} violations")
            for pair, info in tx["pairs"].items():
                lines.append(
                    f"  pair {pair}: {info['matched']} matched, "
                    f"latency mean={info['latency_mean']:.1f} "
                    f"p99={info['latency_p99']}")
        if self.profile is not None:
            lines.append(
                f"  profile: {self.profile['cycles_per_sec']:.0f} "
                "cycles/sec")
        if self.observe is not None:
            for rec in self.observe["recorders"]:
                lines.append(
                    f"  recorder: {len(rec['signals'])} signals, "
                    f"depth {rec['depth']}, "
                    f"{rec['window_cycles']} cycles held")
            for wp in self.observe["watchpoints"]:
                lines.append(
                    f"  watchpoint {wp['name']}: {wp['condition']} "
                    f"fired x{wp['n_fires']}")
        return "\n".join(lines)


def _hist_dict(hist):
    if isinstance(hist, Histogram):
        return hist.to_dict()
    return {"count": 0, "mean": 0.0, "min": 0, "max": 0, "bins": []}
