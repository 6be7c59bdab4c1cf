"""Self-healing simulation loop: watchdog + degradation helpers.

Three tools for keeping long simulations alive and debuggable:

- :class:`Watchdog` wraps ``sim.run()`` with wall-clock and cycle
  budgets, checked between bounded chunks, and produces a structured
  diagnostics report (JSON-serializable) when a run is killed — CI
  uploads these as artifacts instead of leaving a silent hang.
- :func:`diagnose_oscillation` names the signals that keep toggling
  when a combinational settle phase blows its event budget, turning
  "likely a combinational loop" into "likely a combinational loop;
  oscillating signals: top.a, top.b".
- :func:`specialize_or_fallback` attempts SimJIT specialization and,
  on any compile/link/translation failure, returns the original
  interpreted model with one structured :class:`ResilienceWarning`
  instead of aborting the run.
"""

from __future__ import annotations

import json
import os
import signal as signal_mod
import threading
from contextlib import contextmanager
from time import perf_counter

from .warnings import warn_resilience
from ..core.simulation import SimulationError
from ..telemetry import tracing

__all__ = [
    "Watchdog",
    "WatchdogTimeout",
    "diagnose_oscillation",
    "specialize_or_fallback",
    "wall_budget_alarm",
]


def diagnose_oscillation(sim, max_events=200):
    """Identify oscillating signals in a non-converging settle phase.

    Runs up to ``max_events`` further block evaluations, snapshotting
    every net value around each one, and tallies per-net toggle counts
    and per-block fire counts.  Returns a one-line human diagnostic
    naming the hottest signals (empty string if nothing toggles or the
    probe itself fails — diagnostics must never mask the real error).
    """
    try:
        return _diagnose_oscillation(sim, max_events)
    except Exception:
        return ""


def _diagnose_oscillation(sim, max_events):
    nets = sim.model._all_nets
    toggles = {}                      # net id -> toggle count
    fires = {}                        # func name -> fire count
    before = [net._value for net in nets]

    def account():
        changed = False
        for i, net in enumerate(nets):
            if net._value != before[i]:
                toggles[i] = toggles.get(i, 0) + 1
                before[i] = net._value
                changed = True
        return changed

    events = 0
    queue = sim._queue
    while events < max_events:
        if sim._sdirty:
            events += max(1, sim._run_static_pass())
            account()
            continue
        if not queue:
            break
        func = queue.popleft()
        func._in_queue = func._quiet
        func()
        func._in_queue = False
        events += 1
        name = getattr(func, "__name__", repr(func))
        fires[name] = fires.get(name, 0) + 1
        account()

    if not toggles:
        return ""
    # Map toggling nets back to user-visible signal names.
    names_by_net = {}
    for sig in sim.model._all_signals:
        net = sig._net.find()
        nm = sig.name or ""
        if nm and (net.id not in names_by_net
                   or len(nm) < len(names_by_net[net.id])):
            names_by_net[net.id] = nm
    ranked = sorted(toggles.items(), key=lambda kv: -kv[1])
    parts = []
    for net_id, count in ranked[:6]:
        nm = names_by_net.get(nets[net_id].id, f"<net {net_id}>")
        parts.append(f"{nm} ({count} toggles)")
    msg = "oscillating signals: " + ", ".join(parts)
    if fires:
        hot = sorted(fires.items(), key=lambda kv: -kv[1])[:3]
        msg += "; hottest blocks: " + ", ".join(
            f"{nm} x{ct}" for nm, ct in hot)
    return msg


class WatchdogTimeout(SimulationError):
    """A watchdog budget (wall clock or cycles) was exceeded.

    Carries ``diagnostics``, the same dict :meth:`Watchdog.diagnostics`
    returns, so the killer and the report agree."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class Watchdog:
    """Budgeted driver for a :class:`SimulationTool`.

    Runs the simulation in chunks of ``check_every`` cycles and checks
    the wall-clock and cycle budgets between chunks, so a hung design
    (livelocked protocol, runaway retry storm) is killed with a
    diagnosis instead of hanging CI until the outer job timeout::

        wd = Watchdog(sim, max_wall_seconds=30.0)
        try:
            wd.run(100_000)
        except WatchdogTimeout as exc:
            wd.write_report("watchdog.json")
            raise

    Combinational non-convergence inside a chunk already raises
    :class:`~repro.core.simulation.SimulationError` with the
    oscillation diagnostic appended; the watchdog re-raises it after
    recording diagnostics.
    """

    def __init__(self, sim, max_wall_seconds=None, max_cycles=None,
                 check_every=64, bundle_dir=None):
        self.sim = sim
        self.max_wall_seconds = max_wall_seconds
        self.max_cycles = max_cycles
        self.check_every = max(1, int(check_every))
        # Trip forensics: with flight recorders armed on the sim, a
        # budget trip exports their windows as a repro-observe-v1
        # bundle here (or to $REPRO_OBSERVE_DIR / recorder autodump
        # dirs); the path lands in diagnostics()["observe_bundle"].
        self.bundle_dir = bundle_dir
        self._start = None
        self._last_error = ""
        self._bundle_path = None

    def run(self, ncycles):
        """Run up to ``ncycles`` cycles under the configured budgets."""
        sim = self.sim
        self._start = perf_counter()
        start_cycle = sim.ncycles
        done = 0
        while done < ncycles:
            chunk = min(self.check_every, ncycles - done)
            try:
                sim.run(chunk)
            except Exception as exc:
                self._last_error = f"{type(exc).__name__}: {exc}"
                raise
            done += chunk
            if (self.max_wall_seconds is not None
                    and perf_counter() - self._start
                        > self.max_wall_seconds):
                tracing.instant("watchdog.fire", kind="wall-clock",
                                cycle=sim.ncycles)
                self._export_trip_bundle("wall-clock")
                diag = self.diagnostics()
                raise WatchdogTimeout(
                    f"watchdog: wall clock exceeded "
                    f"{self.max_wall_seconds}s after "
                    f"{sim.ncycles - start_cycle} cycles", diag)
            if (self.max_cycles is not None
                    and sim.ncycles - start_cycle >= self.max_cycles):
                tracing.instant("watchdog.fire", kind="cycle-budget",
                                cycle=sim.ncycles)
                self._export_trip_bundle("cycle-budget")
                diag = self.diagnostics()
                raise WatchdogTimeout(
                    f"watchdog: cycle budget {self.max_cycles} "
                    f"exceeded", diag)
        return done

    def _export_trip_bundle(self, kind):
        """Dump the armed flight recorders when a budget trips.

        Opt-in (bundle_dir / recorder autodump / $REPRO_OBSERVE_DIR)
        and exception-guarded: forensics never masks the timeout."""
        sim = self.sim
        out_dir = self.bundle_dir
        if out_dir is None:
            for rec in getattr(sim, "_recorders", ()):
                if rec.autodump:
                    out_dir = rec.autodump
                    break
        if out_dir is None and not os.environ.get("REPRO_OBSERVE_DIR"):
            return
        try:
            from ..observe.forensics import export_bundle
            self._bundle_path = export_bundle(
                sim, out_dir, reason=f"watchdog:{kind}",
                extra={"watchdog": {
                    "kind": kind,
                    "max_wall_seconds": self.max_wall_seconds,
                    "max_cycles": self.max_cycles}})
        except Exception:
            self._bundle_path = None

    def diagnostics(self):
        """Structured post-mortem: where the design was when killed."""
        sim = self.sim
        elapsed = (perf_counter() - self._start
                   if self._start is not None else 0.0)
        try:
            trace = sim.model.line_trace()
        except Exception as exc:
            trace = f"<line_trace unavailable: {exc}>"
        diag = {
            "cycle": sim.ncycles,
            "num_events": sim.num_events,
            "elapsed_seconds": round(elapsed, 6),
            "line_trace": trace,
            "sched": sim.sched_info(),
            "last_error": self._last_error,
        }
        if sim.trace_log:
            diag["recent_traces"] = [
                {"cycle": c, "trace": t} for c, t in sim.trace_log]
        if self._bundle_path is not None:
            diag["observe_bundle"] = self._bundle_path
        return diag

    def write_report(self, path):
        """Write :meth:`diagnostics` as JSON (for CI artifact upload)."""
        diag = self.diagnostics()
        d = os.path.dirname(path)
        if d:
            os.makedirs(d, exist_ok=True)
        with open(path, "w") as f:
            json.dump(diag, f, indent=2, default=str)
        return diag


@contextmanager
def wall_budget_alarm(seconds, label=None):
    """Arm a ``SIGALRM`` that raises :class:`WatchdogTimeout` after
    ``seconds`` of wall clock, for the duration of the ``with`` block.

    This is the in-process watchdog for code that does not drive a
    single :class:`~repro.core.simulation.SimulationTool` loop (so a
    chunked :class:`Watchdog` cannot wrap it) — most importantly fleet
    task execution, where a pure-Python hang inside a worker becomes a
    structured ``"timeout"`` result instead of a stuck process.  The
    raised timeout carries ``diagnostics["kind"] == "wall-budget"``,
    which the fleet retry policy reads as *transient* (wall clock is
    machine noise, so the attempt is worth retrying; a cycle-budget
    timeout is deterministic and is not).

    Degrades to a no-op (plain passthrough) when ``seconds`` is
    falsy, off the main thread, on platforms without ``SIGALRM``, or
    when another ``SIGALRM`` handler is already doing real work —
    arming would steal it.  A signal can only interrupt running
    *Python*; a hang inside a C kernel is the supervisor's process-
    level deadline's job.
    """
    if (not seconds
            or not hasattr(signal_mod, "SIGALRM")
            or threading.current_thread()
                is not threading.main_thread()):
        yield
        return
    current = signal_mod.getsignal(signal_mod.SIGALRM)
    if current not in (signal_mod.SIG_DFL, signal_mod.SIG_IGN, None):
        yield
        return

    def _fire(signum, frame):
        raise WatchdogTimeout(
            f"watchdog: task wall budget {seconds}s exceeded"
            + (f" ({label})" if label else ""),
            {"kind": "wall-budget", "wall_budget": seconds})

    signal_mod.signal(signal_mod.SIGALRM, _fire)
    signal_mod.setitimer(signal_mod.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal_mod.setitimer(signal_mod.ITIMER_REAL, 0.0)
        signal_mod.signal(signal_mod.SIGALRM, current)


def specialize_or_fallback(model, specializer=None, **kwargs):
    """SimJIT-specialize ``model``, degrading to the interpreter.

    Returns ``specializer(model).specialize(...)`` on success.  On any
    specialization failure (translation refusal, gcc compile/link
    error, missing cffi) it emits one structured ``simjit-fallback``
    :class:`ResilienceWarning` and returns the elaborated original
    model, which simulates identically — just slower.
    """
    if specializer is None:
        from ..core.simjit import SimJITRTL as specializer  # noqa: N813
    try:
        return specializer(model, **kwargs).specialize()
    except Exception as exc:
        warn_resilience(
            f"SimJIT specialization of {type(model).__name__} failed; "
            f"continuing on the interpreted simulator "
            f"({type(exc).__name__}: {exc})",
            kind="simjit-fallback",
            component=type(model).__name__,
            fallback="interpreted",
            detail=str(exc),
            stacklevel=3)
        if not model.is_elaborated():
            model.elaborate()
        return model
