"""Differential co-simulation of N implementations of one interface.

The paper's central claim (Sections III, V) is that FL, CL, and RTL
models of a design are interchangeable refinements — and since PR 1 the
same model can additionally execute on four different simulator
substrates (event-driven, static-scheduled, mega-cycle kernel, SimJIT).
:class:`CoSimHarness` turns that claim into a checked property: it
elaborates every implementation, drives them in lockstep from one
shared constrained-random stimulus stream, and diffs their outputs
transaction by transaction *online*, so the divergence is caught on the
cycle it happens with line traces still in the ring buffer.

Comparison modes:

- ``"cycle_exact"`` — transfers must match as ``(cycle, payload)``
  pairs.  Correct for the *same* model on different backends
  (``sched="event"`` vs ``"static"`` vs SimJIT): those must be
  bit-and-cycle identical.
- ``"cycle_tolerant"`` — only the per-channel payload *sequences* must
  match; timing is free.  Correct across abstraction levels (FL vs CL
  vs RTL), where latency-insensitive interfaces guarantee stream
  equality but not schedules.  An optional ``group_key`` partitions a
  stream into independently-ordered substreams (e.g. a network only
  orders packets per source/destination pair).

A DUT is described by a :class:`DutAdapter`: the model, channels to
drive, channels to capture (the harness owns their ``rdy``), passive
taps (observation without interference, e.g. a processor's store
stream), an optional ``done`` predicate for self-running designs, and
an optional ``final_state`` function compared across DUTs at the end.
"""

from __future__ import annotations

from time import perf_counter_ns

from ..core import SimulationTool
from ..telemetry import tracing
from .coverage import Coverage
from .monitors import ValRdyMonitor
from .strategies import backpressure_pattern

__all__ = [
    "Channel",
    "CoSimMismatch",
    "CoSimProtocolError",
    "CoSimTimeout",
    "CoSimResult",
    "DutAdapter",
    "CoSimHarness",
]

DRAIN_CYCLES = 64


class CoSimMismatch(AssertionError):
    """Two implementations disagreed on an output transaction.

    ``bundles`` maps DUT names to ``repro-observe-v1`` forensics
    bundle paths (see :mod:`repro.observe`) when flight recorders were
    armed on the diverging simulators — the signal-level history
    leading into the divergence."""

    def __init__(self, message, *, ref=None, dut=None, channel=None,
                 index=None, expected=None, actual=None, traces=None,
                 bundles=None):
        super().__init__(message)
        self.ref = ref
        self.dut = dut
        self.channel = channel
        self.index = index
        self.expected = expected
        self.actual = actual
        self.traces = traces or {}
        self.bundles = bundles or {}


class CoSimProtocolError(AssertionError):
    """A DUT violated the val/rdy protocol (see monitors.py)."""

    def __init__(self, message, violations):
        super().__init__(message)
        self.violations = violations


class CoSimTimeout(RuntimeError):
    """The run did not finish within ``max_cycles``."""


class Channel:
    """One val/rdy endpoint of a DUT, as seen by the harness.

    ``role`` is ``"drive"`` (harness writes msg/val, DUT owns rdy),
    ``"capture"`` (DUT writes msg/val, harness owns rdy), or ``"tap"``
    (DUT-internal channel observed read-only).  ``accept`` filters
    which observed transfers are recorded (taps often want only a
    subset, e.g. store requests).
    """

    def __init__(self, name, bundle, role, accept=None):
        if role not in ("drive", "capture", "tap"):
            raise ValueError(f"bad channel role {role!r}")
        self.name = name
        self.bundle = bundle
        self.role = role
        self.accept = accept


class DutAdapter:
    """Binds one implementation to the harness's channel protocol."""

    def __init__(self, name, model, drives=None, captures=None, taps=None,
                 sched="auto", trace_depth=8, done=None, final_state=None,
                 classify=None, sim_factory=None):
        self.name = name
        self.model = model if model.is_elaborated() else model.elaborate()
        if sim_factory is not None:
            self.sim = sim_factory(self.model)
        else:
            self.sim = SimulationTool(
                self.model, sched=sched, trace_depth=trace_depth)
        self.channels = (
            [Channel(n, b, "drive") for n, b in (drives or {}).items()]
            + [Channel(n, b, "capture") for n, b in (captures or {}).items()]
            + [Channel(n, b, "tap") for n, b in (taps or {}).items()])
        self._done = done
        self._final_state = final_state
        self.classify = classify

    def _with_tap_filter(self, channel, accept):
        """Attach an ``accept(msg)->bool`` filter to a tap channel
        (returns self for chaining)."""
        for ch in self.channels:
            if ch.name == channel:
                ch.accept = accept
                return self
        raise ValueError(f"no channel named {channel!r}")

    def done(self):
        return True if self._done is None else bool(self._done(self.model))

    def final_state(self):
        return None if self._final_state is None \
            else self._final_state(self.model)


class _DutState:
    """Per-DUT run bookkeeping."""

    def __init__(self, adapter, stimulus):
        self.adapter = adapter
        self.sim = adapter.sim
        self.drives = []        # (Channel, payload list, index, pending)
        self.monitors = {}      # channel name -> ValRdyMonitor
        self.drain0 = DRAIN_CYCLES
        self.drain_left = DRAIN_CYCLES
        self.finished = False
        # reset() does not zero sim.ncycles, and a harness may be run
        # again on the same simulators: this run's cycles are a delta.
        self.start_cycle = adapter.sim.ncycles
        for ch in adapter.channels:
            if ch.role == "drive":
                payloads = list(stimulus.get(ch.name, ()))
                self.drives.append([ch, payloads, 0, False])
            else:
                self.monitors[ch.name] = ValRdyMonitor(
                    f"{adapter.name}.{ch.name}",
                    check=(ch.role == "capture"))

    def stimulus_exhausted(self):
        return all(idx >= len(payloads)
                   for _, payloads, idx, _ in self.drives)

    def transfers(self, channel):
        return self.monitors[channel].transfers


class CoSimResult:
    """Outcome of a clean (mismatch-free) co-simulation run."""

    def __init__(self):
        self.transfers = {}     # dut name -> {channel: [(cycle, msg)]}
        self.ncycles = {}       # dut name -> cycles this run simulated
        self.final_states = {}  # dut name -> final_state() value
        self.coverage = Coverage()

    def ntransactions(self, channel=None):
        """Transfers recorded on the reference DUT (first listed)."""
        first = next(iter(self.transfers.values()))
        if channel is not None:
            return len(first[channel])
        return sum(len(t) for t in first.values())


class CoSimHarness:
    """Runs N implementations in lockstep and diffs their outputs.

    ``duts`` is a list of :class:`DutAdapter`; the first is the
    reference everything else is compared against.  All DUTs must
    expose the same channel names.
    """

    def __init__(self, duts, compare="cycle_exact", group_key=None,
                 check_protocol=True, bundle_dir=None):
        if compare not in ("cycle_exact", "cycle_tolerant"):
            raise ValueError(f"bad compare mode {compare!r}")
        if len(duts) < 2:
            raise ValueError("co-simulation needs at least two DUTs")
        names = [tuple(sorted(ch.name for ch in d.channels)) for d in duts]
        if len(set(names)) != 1:
            raise ValueError(f"DUT channel sets differ: {names}")
        self.duts = duts
        self.compare = compare
        self.group_key = group_key
        self.check_protocol = check_protocol
        # Divergence forensics: with flight recorders armed on the DUT
        # sims, a mismatch exports each recorder window as a
        # repro-observe-v1 bundle into this directory (or
        # $REPRO_OBSERVE_DIR / the recorders' autodump dirs).
        self.bundle_dir = bundle_dir

    # -- driving ---------------------------------------------------------

    def run(self, stimulus, max_cycles=100_000, backpressure=None,
            presence=None, drain=DRAIN_CYCLES):
        """Drive all DUTs from ``stimulus`` and diff them online.

        ``stimulus`` maps drive-channel names to lists of packed-int
        payloads.  ``backpressure``/``presence`` are ``f(cycle)->bool``
        schedules (see :func:`strategies.backpressure_pattern`) applied
        identically to every DUT.  Returns a :class:`CoSimResult`;
        raises :class:`CoSimMismatch` / :class:`CoSimProtocolError` /
        :class:`CoSimTimeout`.  On a mismatch with flight recorders
        armed (and a ``bundle_dir``/autodump destination configured),
        ``exc.bundles`` maps DUT names to exported forensics bundles.
        """
        with tracing.span("cosim.run", duts=len(self.duts)):
            try:
                return self._run(stimulus, max_cycles, backpressure,
                                 presence, drain)
            except CoSimMismatch as exc:
                if not exc.bundles:
                    exc.bundles = self._divergence_bundles(exc)
                raise

    def _run(self, stimulus, max_cycles, backpressure, presence, drain):
        backpressure = backpressure or backpressure_pattern("always")
        presence = presence or (lambda cycle: True)
        states = [_DutState(d, stimulus) for d in self.duts]
        result = CoSimResult()

        for st in states:
            st.drain0 = st.drain_left = drain
            st.sim.reset()

        # One span per phase — drive (the per-cycle stimulus loop with
        # online diffing), diff (final-state + protocol comparison),
        # capture (result harvesting) — at loop granularity so the
        # per-cycle path stays uninstrumented.  The drive loop
        # advances every DUT simulator one cycle at a time, so the
        # per-call ``sim.run`` instrumentation never fires; instead
        # each DUT gets one synthesized ``sim.run`` span covering the
        # drive window (its simulator genuinely ran for exactly that
        # wall interval and cycle count).
        with tracing.span("cosim.drive") as drive_span:
            tracer = tracing.active()
            t0 = perf_counter_ns() if tracer is not None else 0
            cycle = 0
            while not all(st.finished for st in states):
                if cycle >= max_cycles:
                    pending = {
                        st.adapter.name: [
                            f"{ch.name}:{idx}/{len(p)}"
                            for ch, p, idx, _ in st.drives]
                        for st in states if not st.finished}
                    raise CoSimTimeout(
                        f"co-simulation did not finish in {max_cycles} "
                        f"cycles (pending stimulus: {pending})")
                for st in states:
                    if not st.finished:
                        self._step(st, cycle, backpressure, presence,
                                   result)
                self._compare_online(states)
                cycle += 1
            drive_span.set(ncycles=cycle)
            if tracer is not None:
                t1 = perf_counter_ns()
                for st in states:
                    tracer.add_span("sim.run", t0, t1,
                                    design=st.adapter.name,
                                    ncycles=st.sim.ncycles)

        with tracing.span("cosim.diff"):
            self._compare_final(states)
            if self.check_protocol:
                violations = [
                    v for st in states for mon in st.monitors.values()
                    for v in mon.violations]
                if violations:
                    raise CoSimProtocolError(
                        "protocol violations:\n  " + "\n  ".join(
                            str(v) for v in violations), violations)

        with tracing.span("cosim.capture"):
            for st in states:
                result.transfers[st.adapter.name] = {
                    name: list(mon.transfers)
                    for name, mon in st.monitors.items()}
                result.ncycles[st.adapter.name] = (
                    st.sim.ncycles - st.start_cycle)
                result.final_states[st.adapter.name] = \
                    st.adapter.final_state()
        return result

    def _step(self, st, cycle, backpressure, presence, result):
        sim = st.sim
        adapter = st.adapter

        # Drive inputs.  A stalled offer is held (val stays up, payload
        # stable) regardless of the presence schedule — the harness
        # must itself obey the protocol it polices.
        for drive in st.drives:
            ch, payloads, idx, pending = drive
            if idx < len(payloads) and (pending or presence(cycle)):
                ch.bundle.val.value = 1
                ch.bundle.msg.value = payloads[idx]
            else:
                ch.bundle.val.value = 0
        # Sink readiness for captured channels.
        ready = backpressure(cycle)
        for ch in adapter.channels:
            if ch.role == "capture":
                ch.bundle.rdy.value = 1 if ready else 0
                if not ready:
                    result.coverage.hit("handshake", "sink_stall")

        # Settle so the pre-edge val/rdy values are the ones tick
        # blocks will see, then sample handshakes.
        sim.eval_combinational()
        for drive in st.drives:
            ch, payloads, idx, pending = drive
            val = int(ch.bundle.val)
            rdy = int(ch.bundle.rdy)
            if val and rdy:
                if adapter.classify is not None:
                    adapter.classify(result.coverage, ch.name,
                                     payloads[idx])
                result.coverage.hit("handshake", "drive_xfer")
                drive[2] = idx + 1
                drive[3] = False
            elif val:
                result.coverage.hit("handshake", "source_stall")
                drive[3] = True
        activity = False
        for ch in adapter.channels:
            if ch.role == "drive":
                continue
            val = int(ch.bundle.val)
            rdy = int(ch.bundle.rdy)
            msg = int(ch.bundle.msg)
            if ch.accept is not None and val and rdy \
                    and not ch.accept(msg):
                continue
            st.monitors[ch.name].observe(cycle, val, rdy, msg)
            if val:
                activity = True

        sim.cycle()

        if st.stimulus_exhausted() and adapter.done():
            # Count down the drain only through quiet cycles: any
            # in-flight offer on an output resets the countdown, so
            # slow multi-hop drains (networks) are not cut short.
            st.drain_left = st.drain0 if activity else st.drain_left - 1
            if st.drain_left <= 0:
                st.finished = True

    # -- comparison ------------------------------------------------------

    def _compare_online(self, states):
        """Prefix-compare every DUT's transfer streams against the
        reference; raises at the first divergent transaction."""
        if self.group_key is not None:
            # Only partial (per-group) order is guaranteed; grouped
            # streams are compared at the end of the run instead.
            return
        ref = states[0]
        for st in states[1:]:
            for name, mon in st.monitors.items():
                ref_list = ref.transfers(name)
                dut_list = mon.transfers
                n = min(len(ref_list), len(dut_list))
                # Only the newly-appended tail can differ; scanning the
                # last few entries keeps the online check O(1) amortized.
                for i in range(max(0, n - 4), n):
                    self._compare_item(
                        ref, st, name, i, ref_list[i], dut_list[i])

    def _compare_item(self, ref, st, channel, index, want, got):
        if self.compare == "cycle_exact":
            equal = want == got
        else:
            equal = want[1] == got[1]
        if not equal:
            raise self._mismatch(ref, st, channel, index, want, got)

    def _mismatch(self, ref, st, channel, index, want, got):
        traces = {
            ref.adapter.name: list(ref.sim.trace_log or ()),
            st.adapter.name: list(st.sim.trace_log or ()),
        }
        trace_txt = ""
        for name, log in traces.items():
            if log:
                lines = "\n".join(f"    {c:5}: {t}" for c, t in log)
                trace_txt += f"\n  last cycles of {name}:\n{lines}"
        return CoSimMismatch(
            f"{st.adapter.name} diverges from {ref.adapter.name} on "
            f"channel {channel!r}, transaction #{index}: expected "
            f"(cycle {want[0]}, msg {want[1]:#x}), got "
            f"(cycle {got[0]}, msg {got[1]:#x}) [{self.compare}]"
            + trace_txt,
            ref=ref.adapter.name, dut=st.adapter.name, channel=channel,
            index=index, expected=want, actual=got, traces=traces)

    def _compare_final(self, states):
        """Stream lengths, grouped substreams, and final states."""
        ref = states[0]
        for st in states[1:]:
            for name, mon in st.monitors.items():
                ref_list = ref.transfers(name)
                dut_list = mon.transfers
                if self.group_key is not None \
                        and self.compare == "cycle_tolerant":
                    self._compare_grouped(ref, st, name,
                                          ref_list, dut_list)
                if len(ref_list) != len(dut_list):
                    want = (("<none>", 0) if len(ref_list) <= len(dut_list)
                            else ref_list[len(dut_list)])
                    got = (("<none>", 0) if len(dut_list) <= len(ref_list)
                           else dut_list[len(ref_list)])
                    raise CoSimMismatch(
                        f"{st.adapter.name} produced {len(dut_list)} "
                        f"transfers on {name!r} but "
                        f"{ref.adapter.name} produced {len(ref_list)}",
                        ref=ref.adapter.name, dut=st.adapter.name,
                        channel=name, index=min(len(ref_list),
                                                len(dut_list)),
                        expected=want, actual=got)
            want_state = ref.adapter.final_state()
            got_state = st.adapter.final_state()
            if want_state != got_state:
                raise CoSimMismatch(
                    f"final state of {st.adapter.name} differs from "
                    f"{ref.adapter.name}:\n  ref: {want_state}\n  "
                    f"dut: {got_state}",
                    ref=ref.adapter.name, dut=st.adapter.name,
                    channel="<final_state>", index=0,
                    expected=(0, 0), actual=(0, 0))

    def _compare_grouped(self, ref, st, name, ref_list, dut_list):
        """Per-group ordered comparison for streams that only promise
        partial order (e.g. network packets per src/dest pair)."""
        key = self.group_key

        def grouped(transfers):
            groups = {}
            for c, m in transfers:
                groups.setdefault(key(m), []).append(m)
            return groups

        ref_groups, dut_groups = grouped(ref_list), grouped(dut_list)
        for group in sorted(set(ref_groups) | set(dut_groups), key=str):
            want = ref_groups.get(group, [])
            got = dut_groups.get(group, [])
            if want != got:
                idx = next(
                    (i for i, (a, b) in enumerate(zip(want, got))
                     if a != b), min(len(want), len(got)))
                raise CoSimMismatch(
                    f"{st.adapter.name} diverges from "
                    f"{ref.adapter.name} on {name!r} group {group!r} "
                    f"at position {idx}: expected "
                    f"{want[idx:idx + 3]}, got {got[idx:idx + 3]}",
                    ref=ref.adapter.name, dut=st.adapter.name,
                    channel=name, index=idx,
                    expected=(0, want[idx] if idx < len(want) else 0),
                    actual=(0, got[idx] if idx < len(got) else 0))

    # -- divergence forensics -------------------------------------------

    def _divergence_bundles(self, exc):
        """Export each DUT's armed recorder windows on a mismatch.

        Opt-in: an explicit ``bundle_dir``, a recorder ``autodump``
        directory, or ``$REPRO_OBSERVE_DIR`` must name a destination.
        Never raises — forensics must not mask the divergence."""
        import os
        out_dir = self.bundle_dir
        if out_dir is None:
            for d in self.duts:
                for rec in getattr(d.sim, "_recorders", ()):
                    if rec.autodump:
                        out_dir = rec.autodump
                        break
                if out_dir is not None:
                    break
        if out_dir is None and not os.environ.get("REPRO_OBSERVE_DIR"):
            return {}
        from ..observe.forensics import export_bundle
        bundles = {}
        for d in self.duts:
            try:
                path = export_bundle(
                    d.sim, out_dir, reason="cosim-divergence",
                    tag=f"cosim_{d.name}_c{d.sim.ncycles}",
                    extra={"error": str(exc), "dut": d.name,
                           "mismatch": {
                               "ref": exc.ref, "dut": exc.dut,
                               "channel": exc.channel,
                               "index": exc.index}})
            except Exception:
                path = None
            if path is not None:
                bundles[d.name] = path
        return bundles
