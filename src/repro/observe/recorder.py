"""Flight recorder: a bounded, change-compressed signal history.

The recorder is the observatory's always-on-capable pillar (the other
two are :mod:`.watchpoints` and :mod:`.forensics`): a ring buffer of
the last ``depth`` cycles of a chosen signal set, cheap enough to leave
armed on long runs, so that when a simulation misbehaves there is a
signal-level window to inspect — without paying for full VCD tracing
from cycle 0.

Arming is one call on a running simulator::

    rec = sim.flight_recorder(
        signals=["routers[0].hold_val[0]", net.out[0].val], depth=256)
    sim.run(100_000)
    rec.window().to_vcd("tail.vcd")

Signals are :class:`~repro.core.probe.Probe` specs: a dotted path from
the top model (the same string works before and after SimJIT
specialization), a ``Signal`` or a slice of one.  Models can also
pre-register interesting signals in their constructors with
``s.observe(...)``; a recorder armed with ``signals=None`` picks those
up hierarchically.

Substrate portability: sampling happens at one architectural point —
after the clock edge and the post-edge settle, once per ``cycle()`` —
on every substrate (event, static, mega-cycle kernel, SimJIT), and
each probe reads wherever its value lives (Python net or compiled
instance), so the recorded window is bit-identical across all four
execution modes.  Unlike cycle hooks, recorders do *not*
force the interpreted path: the compiled mega-cycle kernel keeps
running, and only the post-cycle sample is added.

Storage is change-compressed, in one representation for both sampling
paths: a list of ``(cycle, signal_index, new_value)`` events, oldest
first, plus one rolling base snapshot that events falling out of the
window are folded into — reconstruction of any in-window cycle is
exact.  The Python sampler reads every tap in one pass and returns
when nothing changed; the compiled one (SimJIT, see
:mod:`repro.core.simjit.instrument`) detects changes in C and drains
them into the same list.  Which cycles the window holds and how many
were sampled follow from cycle numbers alone.
"""

from __future__ import annotations

from ..core.probe import Probe, read_all
from ..core.signals import Signal, _SignalSlice

__all__ = ["FlightRecorder", "RecorderWindow"]


def _observed_specs(model):
    """Hierarchically collect ``s.observe(...)`` registrations."""
    specs = []
    for sub in getattr(model, "_all_models", [model]):
        specs.extend(getattr(sub, "_observed_signals", ()))
    return specs


class FlightRecorder:
    """Bounded ring buffer of change-compressed signal values.

    ``signals`` is a list of specs (see :mod:`repro.core.probe`); with
    ``None``, the signals registered via ``Model.observe`` across the
    hierarchy are recorded.  ``depth`` bounds the window in cycles.
    ``autodump`` names a directory for automatic post-mortem bundles
    when an exception escapes ``cycle()`` (``None`` defers to the
    ``REPRO_OBSERVE_DIR`` environment variable; see
    :mod:`repro.observe.forensics`).
    """

    def __init__(self, signals=None, depth=256, autodump=None):
        depth = int(depth)
        if depth <= 0:
            raise ValueError(f"depth must be positive; got {depth}")
        self.depth = depth
        self.autodump = autodump
        self._specs = signals
        self.sim = None
        self._taps = []
        self._read = None            # every tap in one pass (read_all)
        self._last = []              # the values last sampled (Python path)
        self._events = []            # [(cycle, tap index, value)]
        self._base_cycle = 0
        self._base_values = []
        self._sampled_to = 0         # last cycle accounted for
        self._nsamples = 0
        # Compiled mode (SimJIT; see core.simjit.instrument): when the
        # taps lower to net slots of a single-engine compiled sim, the
        # kernel writes change events into a C ring that drains into
        # _events.
        self._cidx = None            # C tap indices, or None (hook path)
        self._instr = None           # owning KernelInstrumentation

    def attach(self, sim):
        """Bind to ``sim`` and start sampling (returns self)."""
        if self.sim is not None:
            raise RuntimeError("recorder is already attached")
        specs = self._specs
        if specs is None:
            specs = _observed_specs(sim.model)
        if isinstance(specs, (str, Signal, _SignalSlice)):
            specs = [specs]
        if not specs:
            raise ValueError(
                "nothing to record: pass signals= or register signals "
                "with Model.observe(...) in the design")
        self.sim = sim
        self._taps = [Probe.resolve(sim, spec) for spec in specs]
        self._read = read_all(self._taps)
        # Base snapshot: the state as of the current cycle count, the
        # cycle *before* the first recorded entry.
        self._base_cycle = self._sampled_to = sim.ncycles
        self._base_values = self._read()
        self._last = list(self._base_values)
        self._events = []
        sim._recorders.append(self)
        instr = sim._jit_instrumentation()
        if instr is not None:
            instr.try_add_recorder(self)
        sim._refresh_observers()
        return self

    def detach(self):
        """Stop sampling; the recorded window stays readable."""
        sim = self.sim
        if sim is None:
            return
        if self._instr is not None:
            self._instr.remove_recorder(self)
        self._sync()
        if self in sim._recorders:
            sim._recorders.remove(self)
            sim._refresh_observers()
        self.sim = None

    @property
    def signal_names(self):
        return [tap.name for tap in self._taps]

    # -- hot path ---------------------------------------------------------

    def sample(self, cycle):
        """Record the post-cycle values (called by the simulator): one
        pass over the taps, and nothing more unless one changed."""
        values = self._read()
        last = self._last
        if values == last:
            return
        self._events += [(cycle, i, value)
                         for i, value in enumerate(values)
                         if value != last[i]]
        self._last = values
        self._advance(cycle)

    def _advance(self, now):
        """Account cycles up to ``now`` and fold events that fell out
        of the window into the rolling base, so the oldest retained
        cycle stays exactly reconstructible.  Called on a change, on
        every read of the window and, compiled, after each drain."""
        self._nsamples += now - self._sampled_to
        self._sampled_to = now
        cutoff = now - self.depth
        if cutoff <= self._base_cycle:
            return
        events = self._events
        base = self._base_values
        k = 0
        for cycle, i, value in events:
            if cycle > cutoff:
                break
            base[i] = value
            k += 1
        if k:
            del events[:k]
        self._base_cycle = cutoff

    def _resume(self):
        """Sample from Python again (the compiled taps were removed):
        the last values are the base with every held event applied."""
        last = list(self._base_values)
        for _cycle, i, value in self._events:
            last[i] = value
        self._last = last
        self._cidx = self._instr = None

    def _sync(self):
        """Bring the window up to the simulator's cycle: drain a
        compiled recorder; a Python one has sampled every cycle up to
        ``sim.ncycles`` and recorded the ones that changed."""
        if self._instr is not None:
            self._instr.drain()
        elif self.sim is not None:
            self._advance(self.sim.ncycles)

    # -- window extraction ------------------------------------------------

    @property
    def nsamples(self):
        """Cycles sampled since attach."""
        self._sync()
        return self._nsamples

    @property
    def window_cycles(self):
        """Cycles currently held (at most ``depth``)."""
        self._sync()
        return self._sampled_to - self._base_cycle

    def window(self):
        """Immutable :class:`RecorderWindow` of the current contents."""
        self._sync()
        by_cycle = {}
        for cycle, i, value in self._events:
            by_cycle.setdefault(cycle, []).append((i, value))
        changes = [(c, by_cycle.get(c, []))
                   for c in range(self._base_cycle + 1, self._sampled_to + 1)]
        return RecorderWindow(
            names=list(self.signal_names),
            widths=[tap.nbits for tap in self._taps],
            base_cycle=self._base_cycle,
            base_values=list(self._base_values),
            changes=changes,
        )

    def __repr__(self):
        return (f"<FlightRecorder {len(self._taps)} signals "
                f"depth={self.depth} recorded={self.window_cycles}>")


class RecorderWindow:
    """A reconstructed slice of recorded history.

    ``base_cycle``/``base_values`` give the state just before the first
    recorded cycle; ``changes`` is ``[(cycle, [(index, value), ...])]``
    for every recorded cycle in order.  Serializes to the
    ``repro-observe-v1`` window dict and to standard VCD.
    """

    def __init__(self, names, widths, base_cycle, base_values, changes):
        self.names = names
        self.widths = widths
        self.base_cycle = base_cycle
        self.base_values = base_values
        self.changes = changes

    @property
    def ncycles(self):
        return len(self.changes)

    def cycles(self):
        return [c for c, _ in self.changes]

    def rows(self):
        """Yield ``(cycle, (v0, v1, ...))`` replaying the window."""
        values = list(self.base_values)
        for cycle, changes in self.changes:
            for i, value in changes:
                values[i] = value
            yield cycle, tuple(values)

    def values_at(self, cycle):
        """Signal values after ``cycle``'s clock edge."""
        for c, values in self.rows():
            if c == cycle:
                return values
        raise KeyError(f"cycle {cycle} is not in the recorded window")

    def to_dict(self):
        return {
            "names": list(self.names),
            "widths": list(self.widths),
            "base_cycle": self.base_cycle,
            "base_values": list(self.base_values),
            "changes": [[c, [[i, v] for i, v in ch]]
                        for c, ch in self.changes],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            names=list(data["names"]),
            widths=list(data["widths"]),
            base_cycle=data["base_cycle"],
            base_values=list(data["base_values"]),
            changes=[(c, [(i, v) for i, v in ch])
                     for c, ch in data["changes"]],
        )

    def to_vcd(self, path):
        """Write the window as a standard VCD file (GTKWave-viewable).

        The dump starts at ``#base_cycle`` with the base snapshot;
        cycles with no value changes emit no timestep (the same
        compression the live :class:`~repro.tools.vcd.VCDWriter`
        applies).
        """
        from ..tools.vcd import vcd_id_codes, vcd_value_line
        codes = []
        gen = vcd_id_codes()
        with open(path, "w") as out:
            out.write("$timescale 1ns $end\n")
            out.write("$scope module observe $end\n")
            for name, nbits in zip(self.names, self.widths):
                code = next(gen)
                codes.append(code)
                safe = (name.replace(".", "__").replace("[", "_")
                        .replace("]", "").replace(":", "_"))
                out.write(f"$var wire {nbits} {code} {safe} $end\n")
            out.write("$upscope $end\n")
            out.write("$enddefinitions $end\n")
            out.write(f"#{self.base_cycle}\n")
            out.write("$dumpvars\n")
            for value, nbits, code in zip(
                    self.base_values, self.widths, codes):
                out.write(vcd_value_line(value, nbits, code))
            out.write("$end\n")
            for cycle, changes in self.changes:
                if not changes:
                    continue
                out.write(f"#{cycle}\n")
                for i, value in changes:
                    out.write(vcd_value_line(
                        value, self.widths[i], codes[i]))
        return path

    def __eq__(self, other):
        if not isinstance(other, RecorderWindow):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        span = (f"cycles {self.changes[0][0]}..{self.changes[-1][0]}"
                if self.changes else "empty")
        return (f"<RecorderWindow {len(self.names)} signals {span}>")
