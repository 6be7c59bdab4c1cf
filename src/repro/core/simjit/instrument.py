"""Compiled-instrumentation manager for SimJIT simulations.

:class:`KernelInstrumentation` is the Python half of the ``obs_t``
instrumentation in ``runtime.c``, the SimJIT runtime every design
shares (:func:`.specializer._runtime`, loaded by the first manager a
process creates): it takes observability attachments — flight
recorder taps, val/rdy transaction taps, lowered watchpoint condition
nodes, and signal-backed histograms — asks each tap's
:class:`~repro.core.probe.Probe` for its net slot in the one compiled
engine, registers them with the C side, and drains the C event buffers
back into the exact Python data structures the hook path would have
filled.  The C side runs the design's cycles through the engine's
``eval_comb`` and ``edge`` entry points.

The contract is bit-identity with the interpreted hook path:

- recorder events are change-compressed ``(cycle, tap, value)``
  samples taken after the post-edge settle, drained into the same
  event list a :class:`~repro.observe.recorder.FlightRecorder` fills
  when it samples from Python;
- val/rdy taps emit run-boundary events sampled after the *pre*-edge
  settle (cycle-hook semantics); the replay feeds each boundary through
  the tap's :class:`~repro.verif.monitors.ValRdyMonitor` and
  bulk-expands the constant runs in between, so transfers, stalls, and
  protocol violations are identical to per-cycle observation;
- watchpoint predicates evaluate post-edge inside ``obs_run`` and stop
  the batch on the hit cycle, so halt/callback/dump actions fire at
  exactly the cycle the hook path would have fired them;
- histogram tables merge lazily into ``Histogram.bins`` through
  ``_jit_sync``.

Anything the lowering cannot express (``when``/``stable_for``/
``implies_within`` predicates, slices, counter or compiled-state taps,
signals outside this engine — :class:`~repro.core.probe.Unlowerable`)
degrades per-attachment to the hook path with an
``instrument-fallback`` :class:`~repro.resilience.warnings
.ResilienceWarning` naming the reason.  Registering a Python cycle
hook while compiled attachments are armed converts ("dearms") all of
them back to the interpreted path, preserving accumulated state.
"""

from __future__ import annotations

from ...resilience.warnings import warn_resilience
from ..probe import NET, Probe, Unlowerable
from ..simulation import SimulationError
from .specializer import SpecializationError, _runtime

__all__ = ["KernelInstrumentation"]


class _TxState:
    """Replay state of one compiled val/rdy tap.

    ``next_cycle`` is the first cycle not yet accounted for; ``have``
    is False until the first boundary event arrives (the C side always
    emits one at the first sampled cycle)."""

    __slots__ = ("have", "vr", "msg", "next_cycle")

    def __init__(self, start_cycle):
        self.have = False
        self.vr = 0
        self.msg = 0
        self.next_cycle = start_cycle


class KernelInstrumentation:
    """Bridges observability attachments to a SimJIT ``obs_t``."""

    REC_CAP = 1 << 16
    TX_CAP = 1 << 16

    def __init__(self, sim, engine):
        self.sim = sim
        self.engine = engine
        # The runtime, which runs the design through the pointers to
        # its entry points ``obs_new`` is handed.
        self.lib = lib = _runtime()
        ffi = engine._ffi
        self.ffi = ffi
        obs = lib.obs_new(engine.inst, engine.lib.eval_comb,
                          engine.lib.edge, self.REC_CAP, self.TX_CAP)
        if obs == ffi.NULL:
            raise MemoryError("obs_new failed")
        # Freed with this manager, which holds the engine whose
        # instance the ``obs_t`` points at.
        self.obs = ffi.gc(obs, lambda obs: lib.obs_free(obs))
        self._rec_out = ffi.new("uint64_t[]", 4 * self.REC_CAP)
        self._tx_out = ffi.new("uint64_t[]", 5 * self.TX_CAP)
        self._hist_vals = ffi.new("int64_t[]", lib.OBS_HIST_CAP)
        self._hist_cnts = ffi.new("long long[]", lib.OBS_HIST_CAP)
        self._rec_owner = {}     # C tap idx -> (recorder, local idx)
        self._tx_owner = {}      # C tap idx -> txtrace Tap
        self._recorders = []
        self._tracers = []
        self._watchpoints = []   # arming order (wp._cwp set)
        self._hists = []         # (C hist idx, Histogram)
        self._live = 0
        self.disabled = False

    @property
    def active(self):
        return self._live > 0 and not self.disabled

    def warn_fallback(self, what, reason, fallback="hooks"):
        warn_resilience(
            f"{what} could not be compiled into the SimJIT kernel and "
            f"samples from Python instead ({reason})",
            kind="instrument-fallback",
            component=type(self.sim.model).__name__,
            fallback=fallback, detail=str(reason), stacklevel=4)

    def net_slot(self, spec):
        """Net slot of a tap spec in this engine; slices, counters,
        compiled CL state and signals outside the engine raise
        :class:`~repro.core.probe.Unlowerable`."""
        probe = Probe.resolve(self.sim, spec)
        kind, slot, _ = probe.address(self.engine)
        if kind != NET:
            raise Unlowerable(
                f"path {probe.name!r} resolves to compiled CL state, "
                f"not a net slot")
        return slot

    # -- flight recorders -------------------------------------------------

    def try_add_recorder(self, rec):
        """Compile every tap of ``rec`` or none (all-or-nothing, so one
        recorder's window never mixes sampling paths)."""
        try:
            slots = [self.net_slot(tap) for tap in rec._taps]
        except Unlowerable as exc:
            self.warn_fallback("flight recorder tap", exc)
            return False
        lib, obs = self.lib, self.obs
        if len(self._rec_owner) + len(slots) > lib.OBS_MAX_REC:
            self.warn_fallback(
                "flight recorder",
                f"recorder tap capacity ({lib.OBS_MAX_REC}) exceeded")
            return False
        # Sync the C instance with the Python-driven ports so the C
        # change detector starts from the same base values attach()
        # just read.
        self.engine._push_inputs()
        cidx = []
        for slot in slots:
            idx = lib.obs_add_rec_tap(obs, slot)
            if idx < 0:
                for i in cidx:
                    lib.obs_del_rec_tap(obs, i)
                    self._rec_owner.pop(i, None)
                    self._live -= 1
                self.warn_fallback("flight recorder", "C tap table full")
                return False
            self._rec_owner[idx] = (rec, len(cidx))
            cidx.append(idx)
            self._live += 1
        rec._cidx = cidx
        rec._instr = self
        self._recorders.append(rec)
        return True

    def remove_recorder(self, rec):
        """Drain ``rec``, unregister its C taps and hand its sampling
        back to Python (detach and dearm path)."""
        self.drain()
        for idx in rec._cidx:
            self.lib.obs_del_rec_tap(self.obs, idx)
            self._rec_owner.pop(idx, None)
            self._live -= 1
        rec._resume()
        self._recorders.remove(rec)

    # -- transaction tracers ----------------------------------------------

    def register_tracer(self, tracer):
        self._tracers.append(tracer)

    def try_add_tx_tap(self, tap):
        """Compile one val/rdy tap; returns False on Unlowerable (the
        tracer then converts itself to the hook path)."""
        try:
            val = self.net_slot(tap.val)
            rdy = self.net_slot(tap.rdy)
            msg = self.net_slot(tap.msg)
        except Unlowerable as exc:
            self.warn_fallback(f"val/rdy tap {tap.name!r}", exc)
            return False
        self.engine._push_inputs()
        idx = self.lib.obs_add_tx_tap(self.obs, val, rdy, msg)
        if idx < 0:
            self.warn_fallback(
                f"val/rdy tap {tap.name!r}",
                f"tap capacity ({self.lib.OBS_MAX_TX}) exceeded")
            return False
        tap._cidx = idx
        tap._cstate = _TxState(self.sim.ncycles)
        self._tx_owner[idx] = tap
        self._live += 1
        return True

    def remove_tracer(self, tracer):
        """Drain and unregister every compiled tap of ``tracer``."""
        self.drain()
        for tap in tracer.taps:
            if getattr(tap, "_cidx", None) is not None:
                self.lib.obs_del_tx_tap(self.obs, tap._cidx)
                self._tx_owner.pop(tap._cidx, None)
                self._live -= 1
                tap._cidx = None
                tap._cstate = None
        if tracer in self._tracers:
            self._tracers.remove(tracer)

    def rearm_tx_tap(self, tap):
        """After a monitor reset: force a boundary event at the next
        sampled cycle so the replay re-observes the live values."""
        self.lib.obs_tx_rearm(self.obs, tap._cidx)
        tap._cstate = _TxState(self.sim.ncycles)

    # -- watchpoints ------------------------------------------------------

    def try_add_watchpoint(self, wp, nodes):
        """Register ``wp``'s condition, already lowered to ``nodes``
        (``[(kind, slot, a, b, aux)]``, root last)."""
        if (len(self._watchpoints) >= self.lib.OBS_MAX_WP
                or len(nodes) > self.lib.OBS_MAX_NODES):
            self.warn_fallback(f"watchpoint {wp.name!r}",
                       "watchpoint capacity exceeded")
            return False
        self.engine._push_inputs()
        packed = []
        for kind, slot, a, b, aux in nodes:
            packed += [kind, slot, a, b,
                       aux & 0xFFFFFFFFFFFFFFFF, (aux >> 64) & 0xFFFFFFFFFFFFFFFF]
        arr = self.ffi.new("int64_t[]", packed)
        idx = self.lib.obs_add_watch(self.obs, len(nodes), arr)
        if idx < 0:
            self.warn_fallback(f"watchpoint {wp.name!r}",
                       "C watchpoint node table full")
            return False
        wp._cwp = idx
        wp._instr = self
        self._watchpoints.append(wp)
        self._live += 1
        return True

    def remove_watchpoint(self, wp):
        self.lib.obs_del_watch(self.obs, wp._cwp)
        wp._cwp = None
        wp._instr = None
        if wp in self._watchpoints:
            self._watchpoints.remove(wp)
        self._live -= 1

    def fire_hits(self, cycle):
        """Post-edge sampler: fire the Python actions of the
        watchpoints that hit on ``cycle``, where the last step stopped
        (arming order; a halting watchpoint raises, like the Python
        observers after it)."""
        if int(self.lib.obs_hit_cycle(self.obs)) != cycle:
            return
        mask = int(self.lib.obs_hit_mask(self.obs))
        for wp in list(self._watchpoints):
            if wp._cwp is not None and (mask >> wp._cwp) & 1:
                wp._fire(cycle)

    # -- signal-backed histograms -----------------------------------------

    def try_add_histogram(self, hist):
        try:
            if hist._sig.nbits > 63:
                raise Unlowerable(
                    f"{hist._sig.nbits}-bit signal exceeds the 63-bit "
                    f"compiled binning range")
            slot = self.net_slot(hist._sig)
            when = (self.net_slot(hist._when)
                    if hist._when is not None else -1)
        except Unlowerable as exc:
            self.warn_fallback(f"histogram {hist.name!r}", exc)
            return False
        idx = self.lib.obs_add_hist(self.obs, slot, when)
        if idx < 0:
            self.warn_fallback(
                f"histogram {hist.name!r}",
                f"histogram capacity ({self.lib.OBS_MAX_HIST}) exceeded")
            return False
        hist._jit_sync = lambda: self._sync_hist(idx, hist)
        self._hists.append((idx, hist))
        self._live += 1
        return True

    def _sync_hist(self, idx, hist):
        n = int(self.lib.obs_hist_drain(self.obs, idx, self._hist_vals,
                                        self._hist_cnts))
        if n:
            bins = hist.bins
            vals, cnts = self._hist_vals, self._hist_cnts
            for i in range(n):
                v = int(vals[i])
                bins[v] = bins.get(v, 0) + int(cnts[i])

    def reset_histograms(self):
        """Discard compiled histogram contents (sim.reset path: the
        Python ``bins`` are cleared by the caller)."""
        for idx, _hist in self._hists:
            self.lib.obs_hist_drain(self.obs, idx, self._hist_vals,
                                    self._hist_cnts)

    # -- running ----------------------------------------------------------

    def run(self, n):
        """The instrumented SimJIT step: push the ports, run ``n``
        compiled cycles with in-kernel sampling, pull what changed;
        returns how many ran.  The C loop stops early before a buffer
        could overflow (drain, resume — losslessly) and on a watchpoint
        hit (drain so recorder windows include the hit cycle, return
        short so the driver fires the actions at exactly that cycle);
        a batch ends drained too, a single cycle stays lazy (every read
        accessor drains).  The sim's clock advances chunk by chunk
        because drains stamp events with it."""
        sim, lib, obs = self.sim, self.lib, self.obs
        self.engine._push_inputs()
        left = n
        stalled = False
        while left > 0:
            lib.obs_set_cycle(obs, sim.ncycles)
            ran = int(lib.obs_run(obs, left))
            if ran < 0:
                raise SpecializationError("combinational loop in C model")
            sim.ncycles += ran
            left -= ran
            hit = lib.obs_hit_cycle(obs) >= 0
            if hit or left or n > 1:
                self.drain()
            if hit:
                break
            if not ran and stalled:
                raise SimulationError(
                    "compiled instrumentation made no progress after "
                    "a drain (buffer accounting bug)")
            stalled = not ran
        self.engine._pull_outputs(as_next=False)
        return n - left

    # -- draining ---------------------------------------------------------

    def drain(self):
        """Move every buffered C event into the Python-side recorders
        and monitors.  Idempotent and cheap when buffers are empty."""
        lib, obs = self.lib, self.obs
        now = self.sim.ncycles
        n = int(lib.obs_rec_drain(obs, self._rec_out))
        if n:
            out = self._rec_out
            owner = self._rec_owner
            for i in range(n):
                base = 4 * i
                rec, local = owner[out[base + 1]]
                rec._events.append((
                    out[base], local,
                    int(out[base + 2]) | (int(out[base + 3]) << 64)))
        for rec in self._recorders:
            rec._advance(now)
        n = int(lib.obs_tx_drain(obs, self._tx_out))
        if n:
            out = self._tx_out
            owner = self._tx_owner
            for i in range(n):
                base = 5 * i
                tap = owner.get(out[base + 1])
                if tap is None:
                    continue
                self._tx_boundary(
                    tap, int(out[base]), int(out[base + 2]),
                    int(out[base + 3]) | (int(out[base + 4]) << 64))
        for tap in self._tx_owner.values():
            self._tx_expand(tap, now)
        # Histogram tables stay in C until a read accessor syncs them,
        # except when obs_run stopped early because one was near-full.
        for idx, hist in self._hists:
            self._sync_hist(idx, hist)

    @staticmethod
    def _tx_expand(tap, upto):
        """Account the constant run ``[state.next_cycle, upto)`` with
        the bulk equivalents of per-cycle monitor.observe calls."""
        state = tap._cstate
        n = upto - state.next_cycle
        if n <= 0:
            return
        if state.have:
            vr = state.vr
            if vr == 3:                     # val & rdy: n transfers
                msg = state.msg
                tap.monitor.transfers.extend(
                    (c, msg) for c in range(state.next_cycle, upto))
            elif vr == 1:                   # val & !rdy: n stall cycles
                tap.stall_cycles += n
        state.next_cycle = upto

    def _tx_boundary(self, tap, cycle, vr, msg):
        self._tx_expand(tap, cycle)
        tap.monitor.observe(cycle, vr & 1, (vr >> 1) & 1, msg)
        if vr == 1:
            tap.stall_cycles += 1
        state = tap._cstate
        state.have = True
        state.vr = vr
        state.msg = msg
        state.next_cycle = cycle + 1

    # -- dearm ------------------------------------------------------------

    def dearm(self, reason):
        """Convert every compiled attachment back to the interpreted
        hook/observer path, preserving accumulated state.  Called when
        a Python cycle hook is registered (hooks need the interpreted
        per-cycle loop) — further arming attempts fall back silently."""
        if self.disabled:
            return
        self.drain()
        self.disabled = True
        sim = self.sim
        converted = []
        for rec in list(self._recorders):
            self.remove_recorder(rec)
            converted.append("recorder")
        for tracer in list(self._tracers):
            had = any(getattr(t, "_cidx", None) is not None
                      for t in tracer.taps)
            self.remove_tracer(tracer)
            tracer._instr = None
            # Re-observe per cycle from Python; appended directly (the
            # caller is add_cycle_hook itself).
            sim._cycle_hooks.append(tracer._observe)
            if had:
                converted.append("tracer")
        for wp in list(self._watchpoints):
            self.remove_watchpoint(wp)
            # The C edge trackers left prev == current value, exactly
            # what a fresh bind reads, so rebinding preserves edge
            # semantics across the conversion.
            wp._bind()
            converted.append(f"watchpoint {wp.name!r}")
        for idx, hist in list(self._hists):
            self._sync_hist(idx, hist)
            self.lib.obs_del_hist(self.obs, idx)
            hist._jit_sync = None
            self._live -= 1
            sim._add_hist_sampler(hist)
        self._hists = []
        sim._refresh_observers()
        if converted:
            self.warn_fallback(
                f"compiled instrumentation ({', '.join(converted)})",
                reason)
