"""Transaction tracing: passive taps on val/rdy interfaces.

A :class:`TxTracer` observes any number of ``InValRdyBundle`` /
``OutValRdyBundle`` channels once per cycle (just before the clock
edge, via the simulator's cycle hooks) and records every completed
transfer with its cycle stamp.  Each tap wraps a
:class:`repro.verif.monitors.ValRdyMonitor`, so protocol violations
(val-drop, payload instability) are flagged for free while tracing.

Exports:

- **Chrome trace-event JSON** (:meth:`TxTracer.chrome_trace`) —
  open the file in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``; each tap is a named track, each transfer a
  one-cycle slice, each matched src→dst pair an async arrow span;
- **latency histograms** between paired taps
  (:meth:`TxTracer.latency_histogram`) — cycles from a message's
  transfer at the source tap to its transfer at the destination tap;
- **occupancy histograms** (:meth:`TxTracer.occupancy_histogram`) —
  messages in flight between the paired taps, weighted per cycle.

Typical use::

    tracer = TxTracer()
    tracer.tap(net.in_[0], "in0")
    tracer.tap(net.out[5], "out5")
    tracer.pair("in0", "out5", key=seqnum_of)
    tracer.attach(sim)
    ... run ...
    tracer.write_chrome_trace("mesh.trace.json")
"""

from __future__ import annotations

from . import traceevent

__all__ = ["TxTracer", "Tap"]


class Tap:
    """One observed val/rdy channel."""

    __slots__ = ("name", "val", "rdy", "msg", "monitor", "stall_cycles",
                 "_cidx", "_cstate", "_tracer")

    def __init__(self, name, val, rdy, msg, monitor):
        self.name = name
        self.val = val
        self.rdy = rdy
        self.msg = msg
        self.monitor = monitor
        self.stall_cycles = 0       # cycles with val & !rdy
        self._cidx = None           # compiled tap index (SimJIT)
        self._cstate = None         # replay state (see instrument)
        self._tracer = None

    def _sync(self):
        if self._tracer is not None:
            self._tracer._sync()

    @property
    def transfers(self):
        """``[(cycle, msg), ...]`` recorded so far."""
        self._sync()
        return self.monitor.transfers

    @property
    def violations(self):
        self._sync()
        return self.monitor.violations


class TxTracer:
    """Passive multi-channel transaction tracer.

    ``check_protocol=False`` disables val/rdy rule checking on all
    taps (use for channels observed only part of the time, where
    protocol rules over a partial view would false-positive).
    """

    def __init__(self, check_protocol=True):
        self.check_protocol = check_protocol
        self.taps = []
        self._by_name = {}
        self.pairs = []             # (name, src_tap, dst_tap, key_fn)
        self.sim = None
        self._instr = None          # KernelInstrumentation when compiled

    # -- declaration ------------------------------------------------------

    def tap(self, bundle, name=None):
        """Observe one val/rdy bundle; returns the :class:`Tap`."""
        # Function-level import: repro.verif.__init__ pulls in cosim
        # (and through it the core simulator); importing it at module
        # scope would make telemetry<->core imports circular.
        from ..verif.monitors import ValRdyMonitor
        if name is None:
            name = getattr(bundle, "name", None) or f"tap{len(self.taps)}"
        if name in self._by_name:
            raise ValueError(f"duplicate tap name {name!r}")
        tap = Tap(name, bundle.val, bundle.rdy, bundle.msg,
                  ValRdyMonitor(name, check=self.check_protocol))
        tap._tracer = self
        self.taps.append(tap)
        self._by_name[name] = tap
        if self._instr is not None:
            # Already attached in compiled mode: lower the new tap too
            # (or fall back to the hook path for every tap at once).
            if not self._instr.try_add_tx_tap(tap):
                self._to_hook_path()
        return tap

    def tap_model(self, model, prefix=""):
        """Tap every ``InValRdyBundle``/``OutValRdyBundle`` declared on
        the elaborated ``model`` (including inside lists), each under
        its elaborated name; returns the new taps."""
        from ..core.portbundle import InValRdyBundle, OutValRdyBundle
        return [self.tap(bundle, f"{prefix}{bundle.name}")
                for bundle in model.get_signals(
                    (InValRdyBundle, OutValRdyBundle))]

    def pair(self, src, dst, name=None, key=None):
        """Declare a latency pair between two tap names.

        ``key(msg)`` projects each message to a matching key (e.g. a
        sequence-number field); without it messages match in FIFO
        order.  Latency/occupancy histograms and Chrome-trace async
        spans are derived per pair at export time.
        """
        src_tap = self._by_name[src]
        dst_tap = self._by_name[dst]
        if name is None:
            name = f"{src}->{dst}"
        self.pairs.append((name, src_tap, dst_tap, key))
        return name

    # -- simulation plumbing ------------------------------------------------

    def attach(self, sim):
        """Register with a simulator; sampling happens just before
        every clock edge from then on.  On a single-engine SimJIT sim
        the taps compile into the C kernel (run-boundary events
        drained per batch, bit-identical to per-cycle observation);
        otherwise — or when any tap is unlowerable — a Python cycle
        hook samples every cycle."""
        self.sim = sim
        instr = sim._jit_instrumentation()
        if instr is not None:
            instr.register_tracer(self)
            self._instr = instr
            for tap in list(self.taps):
                if not instr.try_add_tx_tap(tap):
                    self._to_hook_path()
                    break
        else:
            sim.add_cycle_hook(self._observe)
        return self

    def _to_hook_path(self):
        """Convert the whole tracer to per-cycle hook sampling (a tap
        could not be lowered): drain and expand what the kernel already
        captured, then register the Python hook.  Registering the hook
        dearms any *other* compiled instrumentation too — hooks force
        the interpreted per-cycle loop."""
        instr = self._instr
        self._instr = None
        instr.remove_tracer(self)
        self.sim.add_cycle_hook(self._observe)

    def _sync(self):
        """Drain pending compiled events before any read accessor."""
        if self._instr is not None:
            self._instr.drain()

    def _observe(self, cycle):
        for tap in self.taps:
            val = int(tap.val)
            rdy = int(tap.rdy)
            tap.monitor.observe(cycle, val, rdy, int(tap.msg))
            if val and not rdy:
                tap.stall_cycles += 1

    def reset_monitors(self):
        """Forget pending-offer state (call after sim.reset())."""
        self._sync()
        for tap in self.taps:
            tap.monitor.reset()
            if tap._cidx is not None:
                self._instr.rearm_tx_tap(tap)

    # -- pairing/aggregation -------------------------------------------------

    def matched_spans(self, pair_name):
        """``[(key, src_cycle, dst_cycle), ...]`` for one pair."""
        for name, src_tap, dst_tap, key in self.pairs:
            if name == pair_name:
                break
        else:
            raise KeyError(pair_name)
        if key is None:
            return [
                (i, sc, dc)
                for i, ((sc, _), (dc, _)) in enumerate(
                    zip(src_tap.transfers, dst_tap.transfers))
            ]
        pending = {}
        for cycle, msg in src_tap.transfers:
            pending.setdefault(key(msg), []).append(cycle)
        spans = []
        for cycle, msg in dst_tap.transfers:
            k = key(msg)
            queue = pending.get(k)
            if queue:
                spans.append((k, queue.pop(0), cycle))
        return spans

    def latency_histogram(self, pair_name):
        """Histogram of dst_cycle - src_cycle over matched messages."""
        from .counters import Histogram
        hist = Histogram(f"latency:{pair_name}")
        for _, src_cycle, dst_cycle in self.matched_spans(pair_name):
            hist.observe(dst_cycle - src_cycle)
        return hist

    def occupancy_histogram(self, pair_name):
        """Histogram of in-flight message count between the paired
        taps, weighted by the number of cycles at each occupancy."""
        from .counters import Histogram
        hist = Histogram(f"occupancy:{pair_name}")
        deltas = {}
        for _, src_cycle, dst_cycle in self.matched_spans(pair_name):
            deltas[src_cycle] = deltas.get(src_cycle, 0) + 1
            deltas[dst_cycle] = deltas.get(dst_cycle, 0) - 1
        level = 0
        prev = None
        for cycle in sorted(deltas):
            if prev is not None and cycle > prev:
                hist.observe(level, cycle - prev)
            level += deltas[cycle]
            prev = cycle
        return hist

    # -- export ------------------------------------------------------------

    def chrome_trace(self):
        """Chrome trace-event JSON object (Perfetto-compatible).

        One simulated cycle maps to 1us of trace time; each tap is a
        thread (track), transfers are ``X`` complete events, matched
        pairs are ``b``/``e`` async spans.  All events come from the
        shared :mod:`~repro.telemetry.traceevent` serializer.
        """
        events = [traceevent.process_name(0, "repro-sim")]
        for tid, tap in enumerate(self.taps, start=1):
            events.append(traceevent.thread_name(0, tid, tap.name))
            for cycle, msg in tap.transfers:
                events.append(traceevent.complete(
                    "xfer", 0, tid, float(cycle), 1.0, cat="valrdy",
                    args={"msg": f"{msg:#x}", "cycle": cycle}))
        span_id = 0
        for name, src_tap, dst_tap, _ in self.pairs:
            for key, src_cycle, dst_cycle in self.matched_spans(name):
                span_id += 1
                events.append(traceevent.async_begin(
                    name, 0, self._tid(src_tap), float(src_cycle),
                    span_id, cat="latency", args={"key": str(key)}))
                events.append(traceevent.async_end(
                    name, 0, self._tid(dst_tap), float(dst_cycle),
                    span_id, cat="latency"))
        return traceevent.trace_object(
            events, metadata={"unit": "1us = 1 simulated cycle"})

    def _tid(self, tap):
        return self.taps.index(tap) + 1

    def write_chrome_trace(self, path):
        """Serialize :meth:`chrome_trace` to ``path``; returns it."""
        return traceevent.write_trace(path, self.chrome_trace())

    def summary(self):
        """Structured per-tap / per-pair summary (telemetry schema)."""
        self._sync()
        taps = {}
        for tap in self.taps:
            taps[tap.name] = {
                "transfers": len(tap.transfers),
                "stall_cycles": tap.stall_cycles,
                "violations": len(tap.violations),
            }
        pairs = {}
        for name, _, _, _ in self.pairs:
            lat = self.latency_histogram(name)
            pairs[name] = {
                "matched": lat.count,
                "latency_mean": lat.mean,
                "latency_min": lat.min,
                "latency_max": lat.max,
                "latency_p99": lat.percentile(0.99),
            }
        return {"taps": taps, "pairs": pairs}
