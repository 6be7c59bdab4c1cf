"""In-memory spans and call meters recorded from the benchmark's side.

The ladder traces the program from outside: every span here is opened
by benchmark code around a call into a layer's public function, and
every meter wraps one public method (on an instance, or on a class for
calls the benchmark cannot reach, such as ``Model.elaborate`` inside
``make_mesh_dut``).  Nothing is written until :meth:`Recorder.to_json`
is called when the run ends.

The recorder is the benchmark's own and not the program's
``repro.telemetry.tracing.Tracer``: the instrument has to stay the same
while a later change to the program, its tracer included, is measured.

Two kinds of record:

- a **span** is one interval: name, start, end, the span that was open
  when it started, and the workload it belongs to.  Use it for phases
  that happen a handful of times (a set-up, a segment, a campaign).
- a **meter** is a count plus busy time for a method called too often
  to keep an interval per call (``sim.cycle`` runs 2 000 times in one
  ``mesh64-jit`` segment, 45 000 times in a tile pass).  It is attached
  for traced segments and detached for untraced ones, so an untraced
  segment runs the program's own bound method.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

_MISSING = object()


def quartiles(values):
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them;
    a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


class Meter:
    """Calls and busy nanoseconds of ``owner.attr``, counted while
    attached.  Nested calls (a model elaborating a child through the
    same method) count once, at the outermost call, and calls made
    while the meter ``within`` is running are left to that meter
    (``sim.cycle`` settles through ``sim.eval_combinational``).
    ``on_return`` is called with ``(args, result)`` of each counted
    call."""

    def __init__(self, owner, attr, name, on_return=None, within=None):
        self.owner, self.attr, self.name = owner, attr, name
        self.on_return = on_return
        self.within = within
        self.calls = 0
        self.busy_ns = 0
        self._depth = 0
        self._saved = None

    def attach(self):
        if self._saved is not None:
            return self
        # What the owner itself holds (not what it inherits), so that
        # detaching from an instance uncovers the class's method again.
        self._saved = (vars(self.owner).get(self.attr, _MISSING),)
        # On an instance this is the bound method and the wrapper is
        # stored unbound; on a class both are plain functions taking
        # ``self`` first.
        inner = getattr(self.owner, self.attr)

        within = self.within

        def metered(*args, **kwargs):
            if self._depth or (within is not None and within._depth):
                return inner(*args, **kwargs)
            self._depth = 1
            start = perf_counter_ns()
            try:
                result = inner(*args, **kwargs)
            finally:
                self.busy_ns += perf_counter_ns() - start
                self.calls += 1
                self._depth = 0
            if self.on_return is not None:
                self.on_return(args, result)
            return result

        metered.__wrapped__ = inner
        setattr(self.owner, self.attr, metered)
        return self

    def detach(self):
        if self._saved is None:
            return
        (saved,) = self._saved
        self._saved = None
        if saved is _MISSING:
            delattr(self.owner, self.attr)
        else:
            setattr(self.owner, self.attr, saved)


@contextmanager
def attached(meters):
    """Attach ``meters`` for the duration of the block."""
    for meter in meters:
        meter.attach()
    try:
        yield
    finally:
        for meter in meters:
            meter.detach()


class Recorder:
    """Spans and meters of one workload run.

    A recorder made with ``enabled=False`` hands out no-op spans and
    attaches nothing: the untraced run executes the same benchmark
    code with no clock reads added.
    """

    def __init__(self, workload, enabled=True):
        self.workload = workload
        self.enabled = enabled
        self.spans = []          # [name, start_ns, end_ns, parent, attrs]
        self.meters = []
        self._retired = {}       # name -> (calls, busy_ns)
        self._open = []

    @contextmanager
    def _span(self, name, attrs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter_ns(), None, parent, attrs]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield attrs
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def span(self, name, **attrs):
        """Context manager timing one interval; yields the attribute
        dict so the caller can add counts found inside it."""
        if not self.enabled:
            return nullcontext(attrs)
        return self._span(name, attrs)

    def meter(self, owner, attr, name, **options):
        """A detached :class:`Meter` whose counts this recorder reports
        under ``name``; switch it with :func:`attached`."""
        meter = Meter(owner, attr, name, **options)
        self.meters.append(meter)
        return meter

    def retire(self, meters):
        """Keep the counts of ``meters`` but let go of the objects they
        wrap (a tile pass builds nineteen new simulators)."""
        for meter in meters:
            meter.detach()
            self.meters.remove(meter)
            calls, busy = self._retired.get(meter.name, (0, 0))
            self._retired[meter.name] = (calls + meter.calls,
                                         busy + meter.busy_ns)

    # -- queries -------------------------------------------------------

    def _under(self, index, ancestor):
        while index is not None:
            index = self.spans[index][3]
            if index is not None and self.spans[index][0] == ancestor:
                return True
        return False

    def total_s(self, name, under=None):
        """Summed duration of every closed span called ``name``; with
        ``under``, only of those inside a span of that name."""
        return sum(
            end - start
            for index, (n, start, end, _, _) in enumerate(self.spans)
            if n == name and end is not None
            and (under is None or self._under(index, under))) / 1e9

    def busy_s(self, name):
        """Summed busy time of every meter called ``name``."""
        return (self._retired.get(name, (0, 0))[1]
                + sum(m.busy_ns for m in self.meters
                      if m.name == name)) / 1e9

    def calls(self, name):
        return (self._retired.get(name, (0, 0))[0]
                + sum(m.calls for m in self.meters if m.name == name))

    def self_times(self):
        """``{name: (count, total_s, self_s)}``; a span's self time is
        its duration minus the part its child spans cover."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                covered[parent] += end - start
        table = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            count, total, own = table.get(name, (0, 0, 0))
            dur = end - start
            table[name] = (count + 1, total + dur,
                           own + dur - covered[index])
        return {name: (count, total / 1e9, own / 1e9)
                for name, (count, total, own) in sorted(table.items())}

    def child_cover(self, name):
        """Share of the first span called ``name`` that its direct
        children cover (1.0 = the phases account for all of it)."""
        for index, (n, start, end, _, _) in enumerate(self.spans):
            if n == name and end is not None and end > start:
                inside = sum(e - s for _, s, e, parent, _ in self.spans
                             if parent == index and e is not None)
                return inside / (end - start)
        return 0.0

    def to_json(self):
        """Plain data for ``trace.json``: times in microseconds from
        the first span, parents as indices into ``spans``."""
        origin = self.spans[0][1] if self.spans else 0
        return {
            "workload": self.workload,
            "spans": [
                {"name": name, "start_us": (start - origin) / 1e3,
                 "end_us": (end - origin) / 1e3 if end is not None
                 else None,
                 "parent": parent, "workload": self.workload,
                 "attrs": attrs}
                for name, start, end, parent, attrs in self.spans],
            "meters": {
                name: {"calls": self.calls(name),
                       "busy_s": self.busy_s(name)}
                for name in sorted({m.name for m in self.meters}
                                   | set(self._retired))},
            "self_times": {
                name: {"count": count, "total_s": total, "self_s": own}
                for name, (count, total, own)
                in self.self_times().items()},
        }
