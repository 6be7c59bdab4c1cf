"""Differential co-simulation of N implementations of one interface.

The paper's central claim (Sections III, V) is that FL, CL, and RTL
models of a design are interchangeable refinements — and since PR 1 the
same model can additionally execute on four different simulator
substrates (event-driven, static-scheduled, mega-cycle kernel, SimJIT).
:class:`CoSimHarness` turns that claim into a checked property: it
elaborates every implementation, drives them in lockstep from one
shared constrained-random stimulus stream, and diffs their outputs
transaction by transaction *online*, so the divergence is caught on the
cycle it happens.

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

The harness costs what it checks and little more.  It binds each
channel's root nets once per run and drives and samples them as raw
ints (``_Net.write``, ``_value``); the backpressure and presence
schedules are evaluated once per cycle for all DUTs; each transfer is
diffed once.  No DUT renders a line trace per cycle: a run saves one
checkpoint per DUT before its reset, and on an online mismatch the
harness restores the checkpointed DUTs, arms their ``trace_depth``
rings (``SimulationTool.log_traces``) and drives them again to the
cycle the mismatch was caught on, which must reproduce it (the message
says when it did not).  A DUT whose checkpoint is refused (blocking FL
adapters) or whose simulator has a post-edge sampler (recorder,
watchpoint, VCD, line trace: a replay would show it cycles twice) has
its ring armed for the whole run instead and is not driven again;
cycle hooks do run again, so a hook's RNG must be ``track_rng``'d for
the replay to reproduce.
"""

from __future__ import annotations

from time import perf_counter_ns

from ..core import SimulationTool
from ..resilience.snapshot import CheckpointError
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
    leading into the divergence.  ``cycle`` is the harness cycle an
    online diff caught it on (None for the end-of-run checks)."""

    def __init__(self, message, *, ref=None, dut=None, channel=None,
                 index=None, expected=None, actual=None, traces=None,
                 bundles=None, cycle=None):
        super().__init__(message)
        self.cycle = cycle
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
            self.sim = SimulationTool(self.model, sched=sched)
        # Cycles of line trace a mismatch reports (by replay, see the
        # module docstring); a sim_factory's own ring is kept instead.
        self.trace_depth = trace_depth
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


def _root(signal):
    return signal._net.find()


class _Drive:
    """One drive channel in a run: its payloads (as given, and masked
    to the message width), the next to offer, whether an offer is
    stalled, and the channel's root nets."""

    __slots__ = ("channel", "payloads", "masked", "idx", "pending",
                 "val", "msg", "rdy")

    def __init__(self, channel, payloads, val, msg, rdy):
        self.channel = channel
        self.payloads = payloads
        self.masked = [int(p) & msg.mask for p in payloads]
        self.idx = 0
        self.pending = False
        self.val, self.msg, self.rdy = val, msg, rdy


class _DutState:
    """Per-DUT run bookkeeping: its channels' root nets, bound once per
    run, its monitors and its diff cursors."""

    def __init__(self, adapter, stimulus, drain):
        self.adapter = adapter
        self.sim = adapter.sim
        self.drives = []        # _Drive per drive channel
        self.sinks = []         # rdy nets of the captured channels
        self.observed = []      # (channel, monitor, val, msg, rdy nets)
        self.monitors = {}      # channel name -> ValRdyMonitor
        self.compared = {}      # channel name -> transfers diffed
        self.checkpoint = None  # state before the reset, for a replay
        self.drain0 = self.drain_left = drain
        self.finished = False
        # reset() does not zero sim.ncycles, and a harness may be run
        # again on the same simulators: this run's cycles are a delta.
        self.start_cycle = adapter.sim.ncycles
        for ch in adapter.channels:
            bundle = ch.bundle
            nets = (_root(bundle.val), _root(bundle.msg), _root(bundle.rdy))
            if ch.role == "drive":
                self.drives.append(_Drive(
                    ch, list(stimulus.get(ch.name, ())), *nets))
                continue
            mon = self.monitors[ch.name] = ValRdyMonitor(
                f"{adapter.name}.{ch.name}", check=(ch.role == "capture"))
            self.compared[ch.name] = 0
            self.observed.append((ch, mon, *nets))
            if ch.role == "capture":
                self.sinks.append(nets[2])
        # Drive channels with payloads still to transfer.
        self.unsent = sum(1 for drive in self.drives if drive.payloads)

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
        :class:`CoSimTimeout`.  An online mismatch carries the last
        ``trace_depth`` cycles of line trace of its two DUTs
        (``exc.traces``, by replay: see the module docstring).  On a
        mismatch with flight recorders armed (and a
        ``bundle_dir``/autodump destination configured),
        ``exc.bundles`` maps DUT names to exported forensics bundles.
        """
        with tracing.span("cosim.run", duts=len(self.duts)):
            armed = []          # sims whose trace ring this run armed
            try:
                return self._run(stimulus, max_cycles, backpressure,
                                 presence, drain, armed)
            except CoSimMismatch as exc:
                if not exc.bundles:
                    exc.bundles = self._divergence_bundles(exc)
                raise
            finally:
                for sim in armed:
                    sim.log_traces(0)

    def _run(self, stimulus, max_cycles, backpressure, presence, drain,
             armed):
        schedule = (backpressure or backpressure_pattern("always"),
                    presence or (lambda cycle: True))
        states = [_DutState(d, stimulus, drain) for d in self.duts]
        result = CoSimResult()

        for st in states:
            self._keep_traces(st, armed)
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
            try:
                cycle = self._drive(states, result, schedule, max_cycles)
            except CoSimMismatch as exc:
                self._replay(exc, states, stimulus, schedule, drain, armed)
                raise
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

    def _drive(self, states, result, schedule, max_cycles, online=True):
        """Step the unfinished ``states`` in lockstep from cycle 0,
        diffing online, until all finished; returns the cycles run.
        Past ``max_cycles`` that is a :class:`CoSimTimeout`, unless the
        run is a replay (not ``online``: no diff, and it just stops)."""
        backpressure, presence = schedule
        step = self._step
        live = [st for st in states if not st.finished]
        cycle = 0
        while live:
            if cycle >= max_cycles:
                if not online:
                    break
                pending = {
                    st.adapter.name: [
                        f"{d.channel.name}:{d.idx}/{len(d.payloads)}"
                        for d in st.drives]
                    for st in live}
                raise CoSimTimeout(
                    f"co-simulation did not finish in {max_cycles} "
                    f"cycles (pending stimulus: {pending})")
            # Both schedules are pure functions of the cycle: one
            # evaluation serves every DUT.
            ready = backpressure(cycle)
            offer = presence(cycle)
            for st in live:
                step(st, cycle, ready, offer, result)
            if online:
                try:
                    self._compare_online(states)
                except CoSimMismatch as exc:
                    exc.cycle = cycle
                    raise
            live = [st for st in live if not st.finished]
            cycle += 1
        return cycle

    def _step(self, st, cycle, ready, offer, result):
        sim = st.sim
        coverage = result.coverage

        # Drive inputs on their root nets.  A stalled offer is held (val
        # stays up, payload stable) regardless of the presence schedule
        # — the harness must itself obey the protocol it polices.
        for drive in st.drives:
            idx = drive.idx
            val = drive.val
            if idx < len(drive.payloads) and (drive.pending or offer):
                if not val._value:
                    val.write(1)
                msg = drive.msg
                payload = drive.masked[idx]
                if msg._value != payload:
                    msg.write(payload)
            elif val._value:
                val.write(0)
        # Sink readiness for captured channels.
        sinks = st.sinks
        if sinks:
            rdy = 1 if ready else 0
            for net in sinks:
                if net._value != rdy:
                    net.write(rdy)
            if not ready:
                coverage.hit("handshake", "sink_stall", len(sinks))

        # Settle so the pre-edge val/rdy values are the ones tick
        # blocks will see, then sample handshakes.
        sim.eval_combinational()
        for drive in st.drives:
            if not drive.val._value:
                continue
            if drive.rdy._value:
                idx = drive.idx
                classify = st.adapter.classify
                if classify is not None:
                    classify(coverage, drive.channel.name,
                             drive.payloads[idx])
                coverage.hit("handshake", "drive_xfer")
                drive.idx = idx + 1
                drive.pending = False
                if idx + 1 == len(drive.payloads):
                    st.unsent -= 1
            else:
                coverage.hit("handshake", "source_stall")
                drive.pending = True
        activity = False
        for ch, mon, val_net, msg_net, rdy_net in st.observed:
            val = val_net._value
            if not val and not mon._stalled:
                continue            # nothing the monitor would record
            rdy = rdy_net._value
            msg = msg_net._value
            if (val and rdy and ch.accept is not None
                    and not ch.accept(msg)):
                continue
            mon.observe(cycle, val, rdy, msg)
            if val:
                activity = True

        sim.cycle()

        if not st.unsent and st.adapter.done():
            # Count down the drain only through quiet cycles: any
            # in-flight offer on an output resets the countdown, so
            # slow multi-hop drains (networks) are not cut short.
            st.drain_left = st.drain0 if activity else st.drain_left - 1
            if st.drain_left <= 0:
                st.finished = True

    # -- line traces by replay -------------------------------------------

    def _keep_traces(self, st, armed):
        """Before ``st``'s reset: save the checkpoint a mismatch replays
        from, or — where a replay cannot serve — arm the ring for the
        whole run (see the module docstring)."""
        sim, depth = st.sim, st.adapter.trace_depth
        if not depth or sim.trace_log is not None:
            return                  # no traces wanted, or its own ring
        instr = sim._jit_instr
        if not (sim._post_edge or (instr is not None and instr.active)):
            try:
                st.checkpoint = sim.save_checkpoint()
                return
            except CheckpointError:
                pass
        sim.log_traces(depth)
        armed.append(sim)

    def _replay(self, exc, states, stimulus, schedule, drain, armed):
        """Restore the checkpointed DUTs, arm their rings and drive them
        again to the cycle ``exc`` was caught on, where the diff must
        raise the same mismatch; then put the line traces of ``exc``'s
        two DUTs on it.  DUTs without a checkpoint keep the state (and
        the transfers) the run left them in.  Never raises."""
        note = None
        replayed = [st for st in states if st.checkpoint is not None]
        if replayed:
            fresh = {}
            try:
                for st in replayed:
                    sim = st.sim
                    sim.restore_checkpoint(st.checkpoint)
                    sim.log_traces(st.adapter.trace_depth)
                    armed.append(sim)
                    fresh[st] = _DutState(st.adapter, stimulus, drain)
                    sim.reset()
                self._drive(list(fresh.values()), CoSimResult(), schedule,
                            exc.cycle + 1, online=False)
                self._compare_online([fresh.get(st, st) for st in states])
                note = "it found no divergence"
            except CoSimMismatch as again:
                seen = (again.ref, again.dut, again.channel, again.index,
                        again.expected, again.actual)
                if seen != (exc.ref, exc.dut, exc.channel, exc.index,
                            exc.expected, exc.actual):
                    note = (f"it found {again.dut} diverging on "
                            f"{again.channel!r}, transaction "
                            f"#{again.index}")
            except Exception as err:
                note = f"it raised {type(err).__name__}: {err}"
        by_name = {st.adapter.name: st for st in states}
        exc.traces = {name: list(by_name[name].sim.trace_log or ())
                      for name in (exc.ref, exc.dut)}
        text = ""
        if note is not None:
            text += (f"\n  the replay did not reproduce this divergence "
                     f"({note}): the line traces below are the replay's")
        for name, log in exc.traces.items():
            if log:
                lines = "\n".join(f"    {c:5}: {t}" for c, t in log)
                text += f"\n  last cycles of {name}:\n{lines}"
        exc.args = (exc.args[0] + text,)

    # -- comparison ------------------------------------------------------

    def _compare_online(self, states):
        """Diff every transfer the reference and a DUT have both
        recorded since the last call, each once (a cursor per channel);
        raises at the first divergent transaction."""
        if self.group_key is not None:
            # Only partial (per-group) order is guaranteed; grouped
            # streams are compared at the end of the run instead.
            return
        ref = states[0]
        for st in states[1:]:
            compared = st.compared
            for name, mon in st.monitors.items():
                ref_list = ref.monitors[name].transfers
                dut_list = mon.transfers
                n = min(len(ref_list), len(dut_list))
                for i in range(compared[name], n):
                    self._compare_item(
                        ref, st, name, i, ref_list[i], dut_list[i])
                compared[name] = n

    def _compare_item(self, ref, st, channel, index, want, got):
        if self.compare == "cycle_exact":
            equal = want == got
        else:
            equal = want[1] == got[1]
        if not equal:
            raise CoSimMismatch(
                f"{st.adapter.name} diverges from {ref.adapter.name} on "
                f"channel {channel!r}, transaction #{index}: expected "
                f"(cycle {want[0]}, msg {want[1]:#x}), got "
                f"(cycle {got[0]}, msg {got[1]:#x}) [{self.compare}]",
                ref=ref.adapter.name, dut=st.adapter.name,
                channel=channel, index=index, expected=want, actual=got)

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
