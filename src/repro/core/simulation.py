"""SimulationTool: simulator for elaborated models.

The simulator (paper Section III-B) inspects an elaborated model
instance, registers its concurrent logic blocks, wires each block to
the nets its body reads, and exposes a cycle-based API:

    model = MuxReg(8, 4).elaborate()
    sim = SimulationTool(model)
    sim.reset()
    model.in_[0].value = 42
    sim.cycle()
    assert model.out == expected

The step contract.  Every substrate advances time through one
function, ``step(n) -> ran``: run ``n`` whole cycles and return how
many ran.  One cycle is

1. settle — combinational logic reaches its fixpoint, so tick blocks
   see the inputs the test bench just drove;
2. pre-edge cycle hooks, called with the cycle number about to end;
3. every ``@s.tick_*`` block once, reading ``.value`` (pre-edge
   state) and writing ``.next``;
4. the clock edge flops every pending ``.next`` into ``.value``;
5. settle again, so the test bench reads post-edge outputs;
6. ``ncycles`` advances.

There are exactly two implementations, chosen once by
``_select_step()``: *python* (``_step_python``: the cycle above as one
loop, the settle running the static sweep and the event fixpoint,
whichever the design has) and *simjit* (``_step_simjit``: push the
ports, ``n`` cycles in C, pull what changed).  ``cycle()`` is the one
driver — ``run(n)`` enters it with ``n`` — and each step walks the
ordered post-edge samplers itself (VCD, ``trace_log``, line trace,
compiled-watchpoint actions, then histogram samplers, recorders and
watchpoints): the Python step after each of its cycles while one has
to see every cycle, as it walks the live cycle-hook list before each
edge; the SimJIT step after its batch, which is one cycle while a
sampler has to see every cycle from Python and ends on a compiled
watchpoint's hit.  When nothing has to (``bench_refusal()``), a
*compiled test bench* may take a SimJIT top for a whole run through
the same step (``run_bench``): it drives the ports and the clock from C
and says how many cycles passed.

One analysis per block.  What a block reads and writes is its *body*
(:mod:`.bodies`: one lowering per block body, bound per instance),
asked once when the simulator is constructed.  A ``@combinational``
block with a body reads the body's reads minus its own writes
(:func:`~.scheduling.comb_block_nets`) and writes the body's writes;
one without a body (no retrievable source, or outside the translatable
subset) has no bounded write set, and reacts to every net it could
read (:func:`~.scheduling.unbounded_reads`: every signal of its model
and its direct submodels' output ports) except through its own
writes, which do not queue it again while it runs.  A body that reads
nothing, or indexes a list by a folded model int (``s.in_[s.k]``), is
scheduled on its reads — the lowered function holds the int — but its
closure, which reads the int anew, reacts to that set too.  An
``@tick_rtl`` block with a body is *gated* on the body's reads; CL and
FL ticks never are.

Scheduling modes (``sched=`` constructor argument):

- ``"event"`` — the classic event-driven fixpoint: a net write that
  changes the stored value enqueues every comb block that reads the
  net, and the queue drains until no block fires.
- ``"static"`` — comb blocks with a body whose dataflow graph is
  acyclic run in a fixed topological order, one pass per settle (see
  :mod:`.scheduling`); a cycle of blocks that is no cycle of signals
  is split by output, its blocks run at each slot their outputs need
  (one lowered function, run once per slot).  Blocks with an output
  on a true combinational cycle, and blocks without a body, fall back
  to the event fixpoint, so the settle loop is a hybrid; a gated tick
  is skipped while none of its read nets changed.  When *every* block
  is static the settle never runs the event fixpoint
  (``sched_info()["kernel"]``): an idle cycle is a few flag scans and
  no block call at all.
- ``"auto"`` (default) — ``"static"`` when the scheduling pass finds
  at least one comb block with a body outside a cycle (or a
  connector) or one tick to gate, else ``"event"``.

What a static schedule runs.  ``_static_order`` and ``_tick_plan`` hold
one callable per slot, and the Python step calls whatever is there.
Under ``sched="event"`` — the reference substrate — that is the user's
block closures; under a static schedule each
statically scheduled ``@combinational`` block and each ``@tick_rtl``
block is replaced at construction by its *lowered* function
(:mod:`.pygen`: the block's IR printed over plain ints and
``_Net._value`` / ``_next``, one lowering per block body
(:mod:`.bodies`), bound per instance), which computes what the closure
computes.  The event partition, connectors, FL/CL ticks and whatever
the backend refuses keep the closure, per block;
``sched_info()["lowered"]`` says which.  ``collect_stats`` and
``profile`` choose no step: at construction they wrap each block once,
wherever it sits (static order, tick plan, event partition), counting
or timing each call under the block's closure (``_block_of``), so their
reports name blocks as they always did.

Both modes see identical values: the static order is a valid
evaluation order of the same dataflow the event queue chases, and
demoted blocks keep their event semantics.  A bounded event budget per
settle phase detects true combinational loops instead of hanging.
"""

from __future__ import annotations

import warnings
from collections import deque
from functools import wraps
from time import perf_counter

from .adapters import BlockingTickRunner, wrap_fl_ticks
from .bodies import body_or_why, kept_reason, named, outputs, signals
from .probe import Probe
from .pygen import instantiate
from .scheduling import (build_schedule, comb_block_nets, comb_output_nets,
                         nets_of, unbounded_reads)
from .signals import _SignalSlice
from ..resilience.warnings import ResilienceWarning
from ..telemetry import tracing


class SimulationError(Exception):
    """Raised for runtime simulation problems (e.g. comb loops)."""


# Event budget per combinational settle phase, scaled by design size.
_EVENT_BUDGET_PER_BLOCK = 1000


class SimulationTool:
    """Generates and drives a simulator for an elaborated model.

    ``cycle()``/``run(n)`` drive one ``step(n)`` function — Python
    or SimJIT, see the module docstring and ``repr(sim)``."""

    def __init__(self, model, line_trace=False, vcd=None,
                 collect_stats=False, sched="auto", profile=False,
                 line_trace_sink=None):
        if sched not in ("auto", "static", "event"):
            raise ValueError(
                f"sched must be 'auto', 'static', or 'event'; got {sched!r}"
            )
        if getattr(model, "_simjit_consumed", False):
            raise SimulationError(
                f"{type(model).__name__} was specialized by SimJIT and its "
                f"ports belong to the JITModel that specialize() / "
                f"auto_specialize() returned: simulate that wrapper "
                f"(net = auto_specialize(net))")
        if not model.is_elaborated():
            model.elaborate()
        self.model = model
        self._design_name = type(model).__name__
        self.ncycles = 0
        self._line_trace_on = line_trace
        self._sched_requested = sched
        self._closed = False
        # Per-cycle observer hooks (transaction taps): called with the
        # current cycle number after the pre-edge settle, i.e. seeing
        # exactly the values the coming clock edge will latch.
        self._cycle_hooks = []
        # Waveform-observatory attachments (repro.observe): flight
        # recorders and watchpoints sample *after* the post-edge
        # settle, like the VCD writer, so — unlike cycle hooks — they
        # never move a SimJIT top to the Python step.
        self._recorders = []
        self._watchpoints = []
        # Signal-backed histogram samplers (post-edge observers) and
        # the compiled-instrumentation manager for single-engine SimJIT
        # tops (created lazily; see _jit_instrumentation).
        self._hist_observers = []
        self._jit_instr = None
        if profile:
            from ..telemetry.profile import SimProfiler
            self.profiler = SimProfiler()
        else:
            self.profiler = None
        from ..telemetry.export import Telemetry
        self.telemetry = Telemetry(self)
        # Ring buffer of the last line traces, armed by log_traces.
        self.trace_log = None
        self._vcd = vcd
        if vcd is not None:
            vcd.attach(model)
        self.collect_stats = collect_stats
        self.num_events = 0
        self.block_calls = {}       # block closure -> execution count
        self._block_of = {}         # lowered function -> block closure

        # Attach nets to this simulator and assign dense ids.
        for i, net in enumerate(model._all_nets):
            net.sim = self
            net.blocks = ()
            net.sreaders = ()
            net.treaders = ()
            net.id = i

        # Tick blocks in hierarchical declaration order.  FL blocks
        # that use blocking adapters get wrapped in coroutine runners.
        wrappers = wrap_fl_ticks(model)
        self._tick_blocks = [
            blk for m in model._all_models for blk in m.get_tick_blocks()
        ]
        self._ticks = [
            wrappers.get(blk.func, blk.func) for blk in self._tick_blocks
        ]

        # One analysis per block: its body (:mod:`.bodies`), asked
        # once here.  A comb block's read/write nets — its place in the
        # static schedule and its event sensitivity — and an RTL tick's
        # gating are the body's; CL/FL ticks are never gated, so under
        # sched="event" no tick is asked.
        self._comb_blocks = [
            blk for m in model._all_models for blk in m.get_comb_blocks()
        ]
        bodies = {blk: body_or_why(blk) for blk in self._comb_blocks}
        if sched != "event":
            bodies.update((blk, body_or_why(blk)) for blk in self._tick_blocks
                          if blk.level == "rtl")
        # Combinational work: user blocks plus slice/constant connector
        # copies, each with the net-level read/write sets the static
        # scheduler consumes and the nets that queue it event-driven.
        comb_funcs = []
        # (func, read_nets, write_nets, known, sensitivity nets)
        infos = []
        for blk in self._comb_blocks:
            comb_funcs.append(blk.func)
            infos.append((blk.func, *_comb_nets(blk, bodies[blk])))
        for src, dst in model._connectors:
            func = _make_connector(src, dst)
            comb_funcs.append(func)
            reads = nets_of([src])
            infos.append((func, reads, nets_of([dst]), True, reads))

        self._event_budget = max(
            10000, _EVENT_BUDGET_PER_BLOCK * max(1, len(comb_funcs))
        )
        if collect_stats:
            # Preseed zero entries so never-fired blocks still show up
            # in activity reports.
            self.block_calls = {func: 0 for func in comb_funcs}

        self._queue = deque()
        self._pending_flops = {}
        # RNG streams registered via track_rng(); their state rides
        # along in checkpoints so replay after restore is deterministic.
        self._checkpoint_rngs = []

        # -- scheduling-mode selection ---------------------------------
        self.schedule = None
        self._static_order = []
        self._sflags = bytearray()
        self._sdirty = False
        self._tick_plan = [(-1, func) for func in self._ticks]
        self._tflags = bytearray()
        self._lowered = {"blocks": 0, "bodies": 0, "kept": {}}

        combs = {blk.func: blk for blk in self._comb_blocks}

        def output_nets(func):
            # A block in a cyclic SCC, looked at by output.
            answer = bodies.get(combs.get(func))
            return isinstance(answer, tuple) and comb_output_nets(
                outputs(*answer))

        sched_fault = None
        if sched != "event":
            try:
                with tracing.span("sim.schedule",
                                  design=self._design_name):
                    schedule = build_schedule(infos, output_nets)
            except Exception as exc:      # degrade, don't abort the run
                sched_fault = f"{type(exc).__name__}: {exc}"
                schedule = None
            if schedule is not None:
                gated = any(isinstance(bodies.get(blk), tuple)
                            for blk in self._tick_blocks)
                if sched == "static" or schedule.order or gated:
                    self.schedule = schedule
        self.sched_mode = "static" if self.schedule is not None else "event"

        if self.schedule is not None:
            self._build_tick_plan(bodies)
            sch = self.schedule
            self._static_order = list(sch.order)
            self._sflags = bytearray(len(sch.order))
            # Static partition: nets mark reader slots in the flag array.
            for net, slots in sch.reader_slots.values():
                net.sreaders = slots
            self._lower_blocks(bodies)
            event_funcs = sch.event_funcs
        else:
            event_funcs = comb_funcs

        # collect_stats / profile: each block is wrapped once, wherever
        # it sits; the event queue holds the wrappers.
        wrapped = {}

        def wrap(func, comb=True):
            if func not in wrapped:
                wrapped[func] = self._instrument(func, comb)
            return wrapped[func]

        self._static_order = [wrap(func) for func in self._static_order]
        self._tick_plan = [(slot, wrap(tick, comb=False))
                           for slot, tick in self._tick_plan]
        queued = {func: wrap(func) for func in event_funcs}
        self._all_comb_funcs = [queued.get(func, func) for func in comb_funcs]
        # Event partition: nets enqueue the blocks that read them.
        for func, _, _, known, sense in infos:
            run = queued.get(func)
            if run is None:
                continue
            run._in_queue = False
            # A block without a body reads what it may write: it stays
            # queued while it runs, so its own writes do not queue it
            # again (eval_combinational).
            run._quiet = not known
            for net in sense:
                net.blocks = net.blocks + (run,)

        # Constant ties: drive once; nothing else may write these nets.
        for end, const in model._const_ties:
            end.value = const

        # Initial settle: evaluate every combinational block once.
        for i in range(len(self._static_order)):
            self._sflags[i] = 1
        self._sdirty = bool(self._static_order)
        for run in queued.values():
            self._enqueue(run)
        self.eval_combinational()

        # What puts the event fixpoint into the settle, if anything
        # (sched_info()["kernel"] is true when nothing does).  Declared
        # counters do not: python-kind increments keep their tick
        # un-gated and signal-backed increments are ordinary register
        # updates.
        refused = []
        if sched == "event":
            refused.append("event mode requested (sched='event')")
        elif sched_fault is not None:
            refused.append(
                f"static schedule construction failed ({sched_fault})")
        elif self.schedule is None:
            refused.append(
                "auto selected event mode (no statically schedulable "
                "blocks or ticks to gate)")
        elif self.schedule.event_funcs:
            refused.append(
                f"event partition: {len(self.schedule.event_funcs)} "
                f"block(s) kept event-driven "
                f"({len(self.schedule.demoted)} in combinational cycles)")
        self._kernel_refused = tuple(refused)
        self._select_step()

        # Static schedule construction blew up: the run continues on
        # the event-driven fixpoint, which computes identical values.
        if sched_fault is not None:
            warnings.warn(
                ResilienceWarning(
                    "static schedule construction failed; falling back "
                    "to the event-driven fixpoint, which computes the "
                    f"same values ({sched_fault})",
                    kind="sched-fallback",
                    component=type(self.model).__name__,
                    fallback="event",
                    detail=sched_fault),
                stacklevel=2)
        # A user who explicitly asked for static scheduling but got a
        # design with nothing to schedule is silently running the event
        # fixpoint; say so once.
        elif (sched == "static" and self.schedule is not None
                and not self.schedule.order and not self._tflags):
            warnings.warn(
                ResilienceWarning(
                    "sched='static' had no effect: no combinational block "
                    "could be statically scheduled and no tick block can "
                    "be gated, so the design runs on the event-driven "
                    "fixpoint (see sim.sched_info() for the partition)",
                    kind="static-noop",
                    component=type(self.model).__name__,
                    fallback="event"),
                stacklevel=2)

        # Signal-backed histograms sample themselves (compiled into
        # the SimJIT kernel where possible, post-edge observers
        # elsewhere); arm them now that the simulator is fully built.
        self._init_signal_histograms()
        # Optional line-trace sink: a callable taking the formatted
        # trace line, or a file path, opened last so that a constructor
        # that raises leaves no file open.  Setting a sink turns
        # tracing on.
        self._trace_sink_file = None
        self._trace_sink = None
        if line_trace_sink is not None:
            self._line_trace_on = True
            if callable(line_trace_sink):
                self._trace_sink = line_trace_sink
            else:
                self._trace_sink_file = open(line_trace_sink, "w")
                self._trace_sink = self._write_trace_line
        self._refresh_observers()

    def _build_tick_plan(self, bodies):
        """Partition tick blocks into gated and always-run entries.

        An RTL tick with a body is a pure function of the body's reads,
        so it is skipped while none of its read nets changed since its
        last execution: with identical reads it would recompute
        identical writes.  CL/FL ticks (Python-side state, wrapped
        coroutine runners), RTL ticks without a body, and ticks whose
        written nets have several gated writers (skip order would
        change last-writer-wins results) always run.  ``bodies`` maps a
        block to ``body_or_why``'s answer.
        """
        nets = {}                   # gated candidate -> (reads, writes)
        writer_counts = {}
        for blk in self._tick_blocks:
            answer = bodies.get(blk)
            if not isinstance(answer, tuple):
                continue
            body, holes = answer
            nets[blk] = (nets_of(signals(holes, body.reads)),
                         nets_of(signals(holes, body.writes)))
            for net in nets[blk][1]:
                writer_counts[id(net)] = writer_counts.get(id(net), 0) + 1
        plan = []
        nslots = 0
        for blk, func in zip(self._tick_blocks, self._ticks):
            reads, writes = nets.get(blk, (None, ()))
            if reads is None or any(writer_counts[id(net)] > 1
                                    for net in writes):
                plan.append((-1, func))
                continue
            slot = nslots
            nslots += 1
            plan.append((slot, func))
            for net in reads:
                net.treaders = net.treaders + (slot,)
        self._tick_plan = plan
        self._tflags = bytearray(b"\x01" * nslots)

    def _lower_blocks(self, bodies):
        """Put lowered blocks (:mod:`.pygen`) where the user's closures
        were in the static order and the tick plan.  Every block that
        keeps its closure is named in ``sched_info()["lowered"]
        ["kept"]`` with :func:`~.bodies.kept_reason`'s reason (the event
        partition, a CL or FL tick, why the block has no body or its
        body no Python form), except that a blocking FL tick says it
        runs on its own thread, which only the simulator knows.
        ``bodies`` holds the blocks' ``body_or_why`` answers.
        (Connectors are not blocks, and stay the copies they were.)"""
        lowered_bodies, kept, done = set(), {}, {}

        def lowered(blk, func):
            if func in done:            # a block split by output
                return done[func]
            done[func] = func
            if func is not blk.func:
                kept[blk.name] = "blocking FL tick (runs on its own thread)"
                return func
            why = kept_reason(blk, bodies.get(blk), None)
            if why is not None:
                kept[blk.name] = why
                return func
            body, holes = bodies[blk]
            lowered_bodies.add(body)
            low = done[func] = instantiate(body.python, func, holes, self)
            self._block_of[low] = func
            return low

        combs = {blk.func: blk for blk in self._comb_blocks}
        self._static_order = [
            lowered(combs[func], func) if func in combs else func
            for func in self._static_order]
        demoted = self.schedule.demoted
        for func in self.schedule.event_funcs:
            if func in combs:
                kept[combs[func].name] = kept_reason(
                    combs[func], bodies[combs[func]], demoted.get(func))
        self._tick_plan = [
            (slot, lowered(blk, func))
            for blk, (slot, func) in zip(self._tick_blocks, self._tick_plan)]
        self._lowered = {"blocks": len(self._block_of),
                         "bodies": len(lowered_bodies), "kept": kept}

    def _instrument(self, func, comb=True):
        """What runs in ``func``'s place: ``func`` timed into the
        profiler (``profile=True``) and, for a comb block or connector,
        counted into ``block_calls`` (``collect_stats=True``), both
        under the block's closure (``_block_of``); ``func`` itself when
        neither is on."""
        block = self._block_of.get(func, func)
        if self.profiler is not None:
            func = _timed(func, block, self.profiler)
        if comb and self.collect_stats:
            func = _counted(func, block, self.block_calls)
        return func

    # -- net callbacks (called by _Net) ------------------------------------

    def _notify(self, net):
        for func in net.blocks:
            if not func._in_queue:
                func._in_queue = True
                self._queue.append(func)
        sreaders = net.sreaders
        if sreaders:
            sflags = self._sflags
            for slot in sreaders:
                sflags[slot] = 1
            self._sdirty = True
        treaders = net.treaders
        if treaders:
            tflags = self._tflags
            for slot in treaders:
                tflags[slot] = 1

    def _enqueue(self, func):
        if not func._in_queue:
            func._in_queue = True
            self._queue.append(func)

    # -- simulation control ---------------------------------------------------

    def eval_combinational(self):
        """Run combinational logic to fixpoint.

        Hybrid settle: alternate static in-order passes (when any
        static reader is flagged) with event-queue drains, until both
        are quiescent.  The shared event budget bounds cross-partition
        ping-pong as well as pure event loops."""
        queue = self._queue
        budget = self._event_budget
        events = 0
        while True:
            if self._sdirty:
                events += self._run_static_pass()
            if not queue:
                if self._sdirty:
                    continue
                break
            func = queue.popleft()
            func._in_queue = func._quiet
            func()
            func._in_queue = False
            events += 1
            if events > budget:
                raise SimulationError(
                    "combinational logic failed to settle "
                    f"after {events} events: likely a combinational loop"
                    + self._oscillation_diagnostic()
                )
        self.num_events += events

    def _oscillation_diagnostic(self):
        """Name the oscillating signals when the settle budget blows.

        Delegates to :func:`repro.resilience.guard.diagnose_oscillation`
        (lazy import — the core must not depend on the resilience
        package at load time).  Diagnostics never mask the original
        error: any failure here degrades to an empty string."""
        try:
            from ..resilience.guard import diagnose_oscillation
            extra = diagnose_oscillation(self)
        except Exception:
            return ""
        return f"; {extra}" if extra else ""

    def _run_static_pass(self):
        """One in-order sweep over the static schedule, running exactly
        the flagged blocks.  A block can flag only later slots (the
        order is topological), so one forward ``find`` scan — which
        skips unmarked runs at memchr speed — clears every flag, also
        those a lowered block marks without setting ``_sdirty``."""
        order = self._static_order
        sflags = self._sflags
        find = sflags.find
        fired = 0
        i = find(1)
        while i >= 0:
            sflags[i] = 0
            order[i]()
            fired += 1
            i = find(1, i + 1)
        self._sdirty = False
        return fired

    def cycle(self, _n=1):
        """Advance simulated time by one clock cycle.

        This is the one driver (``run(n)`` enters it with ``_n = n``):
        steps, each walking the post-edge samplers, until ``_n`` cycles
        ran.  A step covers everything left unless the SimJIT step has
        a Python sampler to feed or stops on a compiled watchpoint hit.
        """
        try:
            while _n > 0:
                _n -= self._step(_n)
        except Exception as exc:
            # Post-mortem forensics: export the armed flight-recorder
            # windows (if any opted into autodump) before the error
            # propagates.  crash_bundle never raises.
            from ..observe.forensics import crash_bundle
            crash_bundle(self, exc, context="cycle")
            raise

    def run(self, ncycles):
        """Run ``ncycles`` cycles (none when ``ncycles <= 0``).

        With host-span tracing armed (:mod:`repro.telemetry.tracing`),
        each ``run`` call becomes one ``sim.run`` span — batch
        granularity, so the per-cycle hot loops stay untouched and the
        disarmed cost is a single global check.
        """
        tracer = tracing.active()
        if tracer is None:
            return self.cycle(ncycles)
        with tracer.span("sim.run", design=self._design_name,
                         ncycles=ncycles, start_cycle=self.ncycles):
            return self.cycle(ncycles)

    # -- step(n): selection and the two implementations ----------------------
    # (the contract is in the module docstring)

    def _select_step(self):
        """Choose ``self._step`` (at the end of construction, and again
        when a cycle hook is registered): *simjit* for a single-engine
        SimJIT top that needs no Python inside the cycle, else
        *python*."""
        model = self.model
        engine = getattr(model, "jit_engine", None)
        with tracing.span("sim.compile", design=self._design_name,
                          hooks=len(self._cycle_hooks)):
            if (engine is not None and len(model._all_models) == 1
                    and not self._cycle_hooks):
                self._step = self._step_simjit
            else:
                self._step = self._step_python

    def _step_python(self, n):
        """The cycle, ``n`` times: settle, the live cycle-hook list, the
        tick plan (always-run ticks have slot -1, a gated one runs only
        when a net it reads changed), the clock edge, settle; then the
        post-edge samplers while one must see every cycle.  A settle
        runs only when a net changed or a block is queued, and when
        every tick is gated the plan is walked by flag scans that skip
        unmarked runs at memchr speed, so an idle cycle calls no block.  The edge flops every pending ``.next`` that changed
        and marks its readers as a lowered write does (``_notify`` only
        for an event-partition reader).  With ``profile=True`` the same
        loop stamps its five phases."""
        settle = self.eval_combinational
        hooks = self._cycle_hooks
        plan = self._tick_plan
        sflags = self._sflags
        tflags = self._tflags
        tfind = tflags.find
        # Gated slots are numbered in declaration order, so when every
        # tick is gated the plan is the slot table.  Scanning pays a
        # find per tick that runs and nothing per idle one; walking
        # pays per tick, which is cheaper when most always run.
        scan = len(tflags) == len(plan)
        pending = self._pending_flops
        notify = self._notify
        queue = self._queue
        prof = self.profiler
        timed = prof is not None
        for _ in range(n):
            if timed:
                t0 = perf_counter()
            if self._sdirty or queue:
                settle()
            if timed:
                t1 = perf_counter()
            stamp = self.ncycles
            for hook in hooks:
                hook(stamp)
            if timed:
                t2 = perf_counter()
            if scan:
                j = tfind(1)
                while j >= 0:
                    tflags[j] = 0
                    plan[j][1]()
                    j = tfind(1, j + 1)
            else:
                for slot, tick in plan:
                    if slot >= 0:
                        if not tflags[slot]:
                            continue
                        tflags[slot] = 0
                    tick()
            if timed:
                t3 = perf_counter()
            if pending:
                for net in pending:
                    if net._next != net._value:
                        net._value = net._next
                        for slot in net.sreaders:
                            sflags[slot] = 1
                        for slot in net.treaders:
                            tflags[slot] = 1
                        if net.blocks:
                            notify(net)
                pending.clear()
                self._sdirty = True
            if timed:
                t4 = perf_counter()
            if self._sdirty or queue:
                settle()
            if timed:
                t5 = perf_counter()
                prof.add_span("settle_pre", t1 - t0, cycles=1)
                prof.add_span("hooks", t2 - t1)
                prof.add_span("tick", t3 - t2)
                prof.add_span("flop", t4 - t3)
                prof.add_span("settle_post", t5 - t4)
            self.ncycles = stamp + 1
            if self._per_cycle:
                for sample in self._post_edge:
                    sample(stamp + 1)
        return n

    def _step_simjit(self, n, bench=None):
        """Push the ports, ``n`` cycles in C (one while a Python sampler
        must see every cycle), pull what changed, then the post-edge
        samplers.  With compiled instrumentation armed the C loop
        samples in-kernel and stops exactly on a watchpoint hit; with a
        compiled test bench (``run_bench``) the cycles are however many
        it drives."""
        # A test-bench port write queued the wrapper's jit_comb; the
        # push carries the same port values across.
        queue = self._queue
        for func in queue:
            func._in_queue = False
        queue.clear()
        if self._per_cycle:
            n = 1
        instr = self._jit_instr
        if instr is not None and instr.active:
            n = instr.run(n)
        else:
            if bench is None:
                self.model.jit_engine.step(n)
            else:
                n = self.model.jit_engine.run_bench(bench)
            self.ncycles += n
        for sample in self._post_edge:
            sample(self.ncycles)
        return n

    def bench_refusal(self):
        """Why a compiled test bench may not drive this simulator, or
        None when it may: something in Python has to see every cycle
        unless the step is SimJIT's, ``cycle`` is the class's own
        method (wrapping it on the instance is how a meter or a test
        observes each cycle), no post-edge sampler is attached and no
        compiled instrumentation is armed."""
        if self._step != self._step_simjit:
            step = self._step.__name__.removeprefix("_step_")
            return (f"the simulator steps in Python "
                    f"(sched={self.sched_mode}/{step})")
        if "cycle" in vars(self):
            return "sim.cycle is wrapped on this simulator"
        if self._per_cycle:
            return ("a per-cycle sampler is attached (VCD, line trace, "
                    "trace log, recorder, watchpoint or histogram)")
        if self._jit_instr is not None and self._jit_instr.active:
            return "compiled instrumentation is armed"
        return None

    def run_bench(self, bench):
        """Let ``bench`` — a compiled test bench, see
        ``SimJITEngine.run_bench`` — drive the engine for a whole run;
        returns the cycles it ran.  Only when ``bench_refusal()`` is
        None."""
        return self._step_simjit(0, bench)

    def _jit_instrumentation(self):
        """The compiled-instrumentation manager, created on first use
        (None when this sim does not run on the SimJIT step)."""
        if self._step != self._step_simjit:
            return None
        if self._jit_instr is None:
            from .simjit.instrument import KernelInstrumentation
            self._jit_instr = KernelInstrumentation(
                self, self.model.jit_engine)
        return self._jit_instr

    def reset(self):
        """Assert reset for two cycles, then deassert (PyMTL idiom).

        Combinational logic settles after deassertion so the test
        bench immediately sees post-reset outputs (e.g. rdy signals
        gated by reset)."""
        with tracing.span("sim.reset", design=self._design_name):
            self._reset_impl()

    def _reset_impl(self):
        self.model.reset.value = 1
        self.cycle()
        self.cycle()
        self.model.reset.value = 0
        self.eval_combinational()
        # Hardware state is reset by the reset signal above, but
        # python-kind telemetry (counters without a signal/state
        # backing, histograms) lives outside the design and would
        # otherwise keep pre-reset totals, making reset() disagree
        # with a fresh simulator or a restored checkpoint.
        for ctr in getattr(self.model, "_all_counters", {}).values():
            if ctr.kind == "python":
                ctr._value = 0
        if self._jit_instr is not None:
            self._jit_instr.reset_histograms()
        for hist in getattr(self.model, "_all_histograms", {}).values():
            hist.bins.clear()
        # Re-arm the static/tick flag arrays in place (the lowered
        # blocks close over these exact bytearray objects) so every
        # block re-evaluates from the post-reset state.
        if self._sflags:
            self._sflags[:] = b"\x01" * len(self._sflags)
            self._sdirty = True
        if self._tflags:
            self._tflags[:] = b"\x01" * len(self._tflags)

    # -- checkpoint / restore ---------------------------------------------

    def track_rng(self, rng):
        """Register an RNG whose state should ride along in
        checkpoints (e.g. the stimulus stream of a verif run)."""
        self._checkpoint_rngs.append(rng)
        return rng

    def save_checkpoint(self):
        """Snapshot all simulation state; see
        :func:`repro.resilience.snapshot.save_checkpoint`."""
        from ..resilience.snapshot import save_checkpoint
        return save_checkpoint(self)

    def restore_checkpoint(self, checkpoint):
        """Restore a snapshot taken by :meth:`save_checkpoint`."""
        from ..resilience.snapshot import restore_checkpoint
        restore_checkpoint(self, checkpoint)

    # -- observability ------------------------------------------------------------

    def log_traces(self, depth):
        """Keep the line traces of the last ``depth`` cycles in
        ``trace_log`` from now on; ``0`` disarms the ring.  The
        co-simulation harness arms it to replay a divergence, so that
        no cycle pays for a line trace that only a mismatch reads."""
        self.trace_log = deque(maxlen=depth) if depth else None
        self._refresh_observers()

    def add_cycle_hook(self, hook, prepend=False):
        """Register ``hook(cycle)`` to run once per cycle after the
        pre-edge settle (transaction taps sample here).

        The step is selected again: the Python step walks the live hook
        list, so it stays the step, and a SimJIT top moves to the
        Python step for good, after converting ("dearming") any
        compiled instrumentation back to Python sampling."""
        if self._jit_instr is not None:
            name = getattr(hook, "__qualname__", None) or repr(hook)
            self._jit_instr.dearm(f"cycle hook {name} registered")
        if prepend:
            self._cycle_hooks.insert(0, hook)
        else:
            self._cycle_hooks.append(hook)
        self._select_step()
        return hook

    def flight_recorder(self, signals=None, depth=256, autodump=None):
        """Arm a :class:`~repro.observe.recorder.FlightRecorder` on
        this simulator and return it.

        ``signals`` is a list of dotted paths and/or Signal objects
        (``None`` records the design's ``s.observe(...)``
        registrations); ``depth`` bounds the window; ``autodump``
        names a directory for automatic crash bundles.  Unlike cycle
        hooks, recorders sample post-edge like the VCD writer, so a
        SimJIT top keeps its step."""
        from ..observe.recorder import FlightRecorder
        return FlightRecorder(signals, depth, autodump).attach(self)

    def watch(self, condition, name=None, callback=None, halt=False,
              dump=None, once=False):
        """Arm a temporal watchpoint; see :mod:`repro.observe`.

        ``condition`` is built from the combinators (``rose``,
        ``fell``, ``stable_for``, ``implies_within``, ...).  A firing
        watchpoint always logs to ``wp.fires``; it can additionally
        ``callback(wp, cycle)``, ``dump`` a forensics bundle to a
        directory, or ``halt`` the run by raising
        :class:`~repro.observe.watchpoints.WatchpointHit`."""
        from ..observe.watchpoints import Watchpoint
        return Watchpoint(condition, name=name, callback=callback,
                          halt=halt, dump=dump, once=once).attach(self)

    def _refresh_observers(self):
        """Rebuild the post-edge samplers, the one ordered tuple the
        driver walks after each step: VCD, ``trace_log``, line trace;
        the actions of compiled watchpoints (their conditions evaluate
        inside the SimJIT step, which stops on the hit cycle); then the
        Python observers — histogram samplers, recorders, watchpoints,
        in attach order.  Attachments compiled into the SimJIT kernel
        stay registered, for export and forensics, but are not sampled
        from Python.  Tracing and Python observers must see every
        cycle, so they make the driver step one cycle at a time."""
        tracers = []
        if self._vcd is not None:
            tracers.append(self._vcd.sample)
        if self.trace_log is not None:
            tracers.append(self._log_trace)
        if self._line_trace_on:
            tracers.append(self.print_line_trace)
        self._observers = tuple(
            list(self._hist_observers)
            + [rec.sample for rec in self._recorders
               if getattr(rec, "_cidx", None) is None]
            + [wp.sample for wp in self._watchpoints
               if getattr(wp, "_cwp", None) is None])
        hits = ([self._jit_instr.fire_hits]
                if any(getattr(wp, "_cwp", None) is not None
                       for wp in self._watchpoints) else [])
        self._post_edge = (*tracers, *hits, *self._observers)
        self._per_cycle = bool(tracers or self._observers)

    def _add_hist_sampler(self, hist):
        """Arm a Python post-edge sampler for one signal-backed
        histogram (the non-compiled path)."""
        sig_read = Probe.resolve(self, hist._sig).read
        observe = hist.observe
        if hist._when is None:
            def sampler(cycle, _r=sig_read, _o=observe):
                _o(_r())
        else:
            when_read = Probe.resolve(self, hist._when).read
            def sampler(cycle, _r=sig_read, _w=when_read, _o=observe):
                if _w():
                    _o(_r())
        self._hist_observers.append(sampler)

    def _init_signal_histograms(self):
        """Arm every ``sig=``-backed histogram declared in the design:
        binning compiles into the SimJIT kernel when possible, and
        samples post-edge from Python otherwise, like recorders."""
        hists = [h for h in getattr(
                     self.model, "_all_histograms", {}).values()
                 if getattr(h, "_sig", None) is not None]
        if not hists:
            return
        instr = self._jit_instrumentation()
        for hist in hists:
            if instr is not None and instr.try_add_histogram(hist):
                continue
            self._add_hist_sampler(hist)

    def sched_info(self):
        """Scheduling provenance: requested vs chosen mode, the
        static/event partition, tick gating, and whether the settle
        never runs the event fixpoint (``kernel``) or why it does
        (``kernel_refused``: event mode, a schedule fault, auto chose
        event, an event partition).  ``lowered`` says what the
        schedule holds: how many ``blocks`` run as lowered functions
        (:mod:`.pygen`), from how many ``bodies``, and ``kept`` maps
        every block that keeps its closure to the reason (all zero and
        empty when nothing is lowered: ``sched="event"``).  A design
        holding SimJIT
        engines adds a ``simjit`` entry saying what ran where:
        ``engines`` lists every engine in hierarchy order (``model``,
        the ``class`` it replaced, and its kernel's ``blocks``,
        ``functions``, ``bodies``, ``comb``, ``input_blocks`` and
        ``input_cone_max``),
        ``interpreted`` maps every model ``auto_specialize`` left in
        Python to the first block that kept it there and why, or, for
        a translatable model it left in Python because the CPython rung
        lowers and statically schedules all of it, to just that reason
        (both present, ``engines`` empty, when it compiled nothing).  A SimJIT
        top also has its kernel's shape as flat keys: ``comb`` is
        ``"single-pass"`` or
        ``"fixpoint"`` (``residue_blocks`` > 0 says why: that many
        blocks sit in a combinational cycle or were left unscheduled),
        ``flop_nets`` the nets the clock edge copies,
        ``in_ports``/``out_ports`` the port boundary, and ``blocks`` /
        ``functions`` how many block instances run and how many C
        function bodies they share; ``bodies`` is how many block bodies
        (:mod:`.bodies`) the blocks were bound to — every block an
        engine compiles, ``tick_cl`` ones included, is bound to one.
        What the pre-edge settle costs: ``input_blocks`` comb blocks
        some input port reaches (the most it runs), ``input_cone_max``
        the most one port reaches (a fixpoint kernel settles all or
        nothing: both are every block)."""
        info = {
            "requested": self._sched_requested,
            "mode": self.sched_mode,
            "kernel": not self._kernel_refused,
            "kernel_refused": list(self._kernel_refused),
            "total_comb_blocks": len(self._all_comb_funcs),
            "total_tick_blocks": len(self._ticks),
            "gated_ticks": len(self._tflags),
            "lowered": {**self._lowered,
                        "kept": dict(self._lowered["kept"])},
        }
        if self.schedule is not None:
            info.update(self.schedule.describe())
        else:
            info.update({
                "static_blocks": 0,
                "event_blocks": len(self._all_comb_funcs),
                "demoted_cyclic": 0,
                "split_blocks": 0,
                "levels": 0,
            })
        models = self.model._all_models
        engines = [m for m in models if hasattr(m, "jit_engine")]
        if engines or hasattr(self.model, "_simjit_refusal"):
            simjit = info["simjit"] = {}
            if engines and engines[0] is self.model:
                # SimJIT top: its kernel's shape and port boundary
                # (the wrapper itself is one event block).
                simjit.update(self.model.jit_engine.kernel_info)
            simjit["engines"] = [
                {"model": m.full_name(), "class": m._orig_class,
                 **{key: m.jit_engine.kernel_info[key]
                    for key in ("blocks", "functions", "bodies", "comb",
                                "input_blocks", "input_cone_max")}}
                for m in engines]
            simjit["interpreted"] = {
                m.full_name(): named(blk, reason) if blk else reason
                for m in models if hasattr(m, "_simjit_refusal")
                for blk, reason in [m._simjit_refusal]}
        return info

    def close(self):
        """Finalize attached sinks (VCD, telemetry, line-trace file)
        and end the worker threads of blocking FL ticks, whatever they
        are in the middle of.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for tick in self._ticks:
            if isinstance(tick, BlockingTickRunner):
                tick.stop()
        if self._vcd is not None:
            self._vcd.close()
        if self._trace_sink_file is not None:
            self._trace_sink_file.close()
        self.telemetry.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        step = self._step.__name__.removeprefix("_step_")
        return (
            f"<SimulationTool {type(self.model).__name__} "
            f"sched={self.sched_mode}/{step} "
            f"comb={len(self._all_comb_funcs)} "
            f"ticks={len(self._ticks)}({len(self._tflags)} gated) "
            f"cycles={self.ncycles}>"
        )

    # -- debugging ----------------------------------------------------------------

    def print_line_trace(self, cycle=None):
        trace = self.model.line_trace()
        if not trace:
            return
        line = f"{self.ncycles if cycle is None else cycle:4}: {trace}"
        if self._trace_sink is not None:
            self._trace_sink(line)
        else:
            print(line)

    def _write_trace_line(self, line):
        self._trace_sink_file.write(line + "\n")

    def _log_trace(self, cycle):
        # Specialized (JIT) submodels may not support line_trace;
        # diagnostics must never kill the run being diagnosed.
        try:
            trace = self.model.line_trace()
        except Exception as exc:
            trace = f"<line_trace unavailable: {exc}>"
        self.trace_log.append((cycle, trace))


def _endpoint_name(end):
    """Stable dotted name of a connector endpoint for diagnostics."""
    if isinstance(end, _SignalSlice):
        base = end.signal.name or "?"
        return f"{base}[{end.lo}:{end.hi}]"
    return getattr(end, "name", None) or "?"


def _comb_nets(blk, answer):
    """``(read nets, write nets, known, sensitivity nets)`` of comb
    block ``blk`` from its ``body_or_why`` answer.
    A block without a body may read every signal
    :func:`~.scheduling.unbounded_reads` names and write anything.  The
    body's reads place a block in the static schedule, whose lowered
    function holds the plain ints the body folded; the closure that
    runs event-driven evaluates them anew, so where the body reads
    nothing (a block of plain ints) or indexes a list by a folded
    constant (``s.in_[s.k]``) it is sensitive as a block without a
    body, and to the body's reads."""
    if isinstance(answer, str):
        reads = nets_of(unbounded_reads(blk.model))
        return reads, (), False, reads
    body, holes = answer
    reads, writes = signals(holes, body.reads), signals(holes, body.writes)
    nets = comb_block_nets(reads, writes)
    sense = nets[0]
    if body.folded or not reads:
        sense = comb_block_nets(unbounded_reads(blk.model) + reads, writes)[0]
    return (*nets, True, sense)


def _counted(func, block, calls):
    """``func``, counting each call in ``calls[block]``."""
    @wraps(func, updated=())
    def counted():
        calls[block] += 1
        func()
    return counted


def _timed(func, block, prof):
    """``func``, timing each call into profiler ``prof`` under
    ``block``."""
    add = prof.add_block

    @wraps(func, updated=())
    def timed():
        t0 = perf_counter()
        func()
        add(block, perf_counter() - t0)
    return timed


def _make_connector(src, dst):
    """Build the copy function implementing a directional slice/const
    connector."""
    def connector():
        dst.value = src.value
    connector.__name__ = (
        f"connect({_endpoint_name(src)} -> {_endpoint_name(dst)})"
    )
    # Closures from the same def share a qualname ending in
    # "<locals>.connector"; profilers keying on __qualname__ would
    # merge every connector into one row without this stamp.
    connector.__qualname__ = connector.__name__
    return connector
