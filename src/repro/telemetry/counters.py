"""Hardware performance counters and histograms.

Models declare counters in their constructors through the
:class:`~repro.core.model.Model` API::

    s.hits = s.counter("hits", "read hits")          # python-kind
    s.ctr_insts = s.counter("insts", sig=s.instret)  # signal-backed
    s.ctr_flits = s.counter("f0", state=("nflits", 0))  # state-backed
    s.lat = s.histogram("lat", "load-use latency")

The elaborator collects every declared counter hierarchically (see
``top._all_counters``) and ``sim.telemetry.report()`` aggregates them
per-instance and per-subtree.  Three counter kinds cover the three
modeling substrates:

``python``
    A plain accumulator bumped with :meth:`Counter.incr` from FL/CL
    tick code.  Increments are ordinary Python, and a tick that makes
    one is never gated (FL/CL ticks never are; an RTL tick calling
    ``incr`` has no block body) — the count is exact in event mode,
    static mode, and inside the compiled mega-cycle kernel.

``signal``
    Backed by a ``Wire`` the model already increments in RTL tick
    logic.  The counter holds no state of its own; reading it reads
    the wire.  Because the wire is in its own read set, an
    activity-gated tick that increments it re-triggers itself, so
    totals match event mode bit-for-bit — and the increment logic is
    compiled into the mega-cycle kernel and SimJIT C code like any
    other register update.

``state``
    Backed by a plain int (or an element of a flat int list) on the
    model — the SimJIT-CL translatable subset.  ``state=("attr",)``
    reads ``model.attr``; ``state=("attr", i)`` reads
    ``model.attr[i]``.

After SimJIT specialization a signal- or state-backed counter reads
through the :class:`~repro.core.probe.Probe` the specializer binds to
its compiled storage; python-kind counters are never rebound.

Counters are incremented from **tick blocks only**: combinational
blocks may legitimately re-run several times per settle in event mode,
so a counter bumped there would not be mode-invariant.

The module-level enable switch implements the zero-overhead-when-
disabled contract: with :func:`set_enabled` ``(False)`` at
construction time, python-kind declarations return a shared
:class:`NullCounter` and models skip declaring telemetry-only logic,
so the elaborated design is structurally identical to one built before
this subsystem existed.

>>> c = Counter("hits", "read hits")
>>> c.incr(); c.incr(3)
>>> c.value
4
>>> int(c)
4
>>> h = Histogram("lat")
>>> for v in (3, 3, 7):
...     h.observe(v)
>>> h.count, h.total, h.mean
(3, 13, 4.333333333333333)
>>> h.bins_sorted()
[(3, 2), (7, 1)]
"""

from __future__ import annotations

__all__ = [
    "Counter", "Histogram", "NullCounter", "NULL_COUNTER",
    "NULL_HISTOGRAM", "enabled", "set_enabled",
]

_ENABLED = True


def enabled():
    """True when telemetry declaration is globally enabled."""
    return _ENABLED


def set_enabled(flag):
    """Globally enable/disable telemetry declaration.

    Takes effect at *model construction* time: models consult this
    switch when declaring counters and telemetry-only logic blocks.
    Returns the previous value so callers can restore it.
    """
    global _ENABLED
    prev = _ENABLED
    _ENABLED = bool(flag)
    return prev


class Counter:
    """One named hardware event counter.

    ``sig`` and ``state`` select the backing storage (see module
    docstring); with neither, the counter is a plain Python
    accumulator driven by :meth:`incr`.
    """

    __slots__ = ("name", "desc", "owner", "_value", "_sig", "_state",
                 "_probe")

    def __init__(self, name, desc="", owner=None, sig=None, state=None):
        if sig is not None and state is not None:
            raise ValueError("a counter is sig- or state-backed, not both")
        if state is not None and owner is None:
            raise ValueError("state-backed counters need an owner model")
        self.name = name
        self.desc = desc
        self.owner = owner
        self._value = 0
        self._sig = sig
        if state is not None and len(state) == 1:
            state = (state[0], None)
        self._state = state
        self._probe = None          # set when the owner was SimJIT'ed

    @property
    def kind(self):
        if self._sig is not None:
            return "signal"
        if self._state is not None:
            return "state"
        return "python"

    def incr(self, n=1):
        """Add ``n`` events (python-kind counters only)."""
        if self._sig is not None or self._state is not None:
            raise TypeError(
                f"counter {self.name!r} is {self.kind}-backed; increment "
                "the backing storage in model logic instead")
        self._value += n

    @property
    def value(self):
        probe = self._probe
        if probe is not None:
            return probe.read()
        if self._sig is not None:
            return int(self._sig)
        if self._state is not None:
            attr, idx = self._state
            val = getattr(self.owner, attr)
            return int(val[idx]) if idx is not None else int(val)
        return self._value

    def __int__(self):
        return self.value

    __index__ = __int__

    def __repr__(self):
        return f"<Counter {self.name}={self.value} ({self.kind})>"


class Histogram:
    """Sparse histogram over integer-valued observations.

    Bins are exact values (sparse dict), which suits the quantities
    hardware telemetry observes — latencies, occupancies, burst
    lengths — where the support is small even when the range is not.

    A histogram may be *signal-backed* (``sig=``): the simulator then
    samples the signal's value once per cycle at the post-edge point,
    optionally gated by a one-bit enable signal (``when=``), so the
    model needs no Python observe calls.  Under SimJIT the binning is
    compiled into the C kernel and merged into ``bins`` lazily through
    ``_jit_sync`` — every read-side accessor syncs first, so the
    Python view is always exact.
    """

    __slots__ = ("name", "desc", "owner", "bins", "_sig", "_when",
                 "_jit_sync")

    def __init__(self, name, desc="", owner=None, sig=None, when=None):
        if when is not None and sig is None:
            raise ValueError(
                "histogram when= needs a sig= to sample")
        self.name = name
        self.desc = desc
        self.owner = owner
        self.bins = {}
        self._sig = sig
        self._when = when
        self._jit_sync = None   # set when binning was compiled (SimJIT)

    @property
    def kind(self):
        return "signal" if self._sig is not None else "python"

    def _sync(self):
        sync = self._jit_sync
        if sync is not None:
            sync()

    def observe(self, value, n=1):
        value = int(value)
        self.bins[value] = self.bins.get(value, 0) + n

    @property
    def count(self):
        self._sync()
        return sum(self.bins.values())

    @property
    def total(self):
        self._sync()
        return sum(v * n for v, n in self.bins.items())

    @property
    def mean(self):
        count = self.count
        return self.total / count if count else 0.0

    @property
    def min(self):
        self._sync()
        return min(self.bins) if self.bins else 0

    @property
    def max(self):
        self._sync()
        return max(self.bins) if self.bins else 0

    def percentile(self, p):
        """Smallest observed value covering fraction ``p`` of the mass.

        >>> h = Histogram("lat")
        >>> for v, n in [(1, 50), (2, 40), (10, 10)]:
        ...     h.observe(v, n)
        >>> h.percentile(0.5), h.percentile(0.9), h.percentile(0.99)
        (1, 2, 10)
        """
        self._sync()
        count = self.count
        if not count:
            return 0
        need = p * count
        seen = 0
        for value in sorted(self.bins):
            seen += self.bins[value]
            if seen >= need:
                return value
        return self.max

    def bins_sorted(self):
        """``[(value, count), ...]`` in ascending value order."""
        self._sync()
        return sorted(self.bins.items())

    def to_dict(self):
        """Exact summary dict — the ``repro-telemetry-v1`` histogram
        shape (count/mean/min/max plus the full sparse bin list), also
        the unit the fleet aggregator merges across worker processes.

        >>> h = Histogram("lat")
        >>> h.observe(3, 2); h.observe(7)
        >>> h.to_dict()["bins"]
        [[3, 2], [7, 1]]
        """
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "bins": [[v, n] for v, n in self.bins_sorted()],
        }

    @classmethod
    def from_dict(cls, data, name="<merged>"):
        """Rebuild a histogram from :meth:`to_dict` output (the summary
        fields are recomputed from the bins, which carry the full
        information)."""
        hist = cls(name)
        for value, count in (data or {}).get("bins", ()):
            hist.observe(value, count)
        return hist

    def merge(self, other):
        """Fold another histogram (or a :meth:`to_dict` dict) into this
        one.  Bin-exact, so merging is associative and commutative —
        the property the fleet aggregator's determinism rests on.

        >>> a, b = Histogram("lat"), Histogram("lat")
        >>> a.observe(3); b.observe(3); b.observe(9)
        >>> a.merge(b); a.bins_sorted()
        [(3, 2), (9, 1)]
        """
        if isinstance(other, dict):
            pairs = other.get("bins", ())
        else:
            pairs = other.bins_sorted()
        for value, count in pairs:
            self.observe(value, count)

    def __repr__(self):
        return (f"<Histogram {self.name} n={self.count} "
                f"mean={self.mean:.2f}>")


class NullCounter:
    """No-op stand-in returned when telemetry is disabled.

    Supports the full declaration-side API (``incr``/``observe``) so
    model code never branches on the enable switch at increment sites.

    >>> n = NULL_COUNTER
    >>> n.incr(); n.observe(5)
    >>> n.value, int(n), n.bins_sorted()
    (0, 0, [])
    """

    __slots__ = ()
    name = "<disabled>"
    desc = ""
    kind = "null"
    bins = {}

    def incr(self, n=1):
        pass

    def observe(self, value, n=1):
        pass

    value = property(lambda self: 0)
    count = property(lambda self: 0)
    total = property(lambda self: 0)
    mean = property(lambda self: 0.0)

    def percentile(self, p):
        return 0

    def bins_sorted(self):
        return []

    def __int__(self):
        return 0

    __index__ = __int__

    def __repr__(self):
        return "<NullCounter>"


#: Shared no-op instances handed out while telemetry is disabled.
NULL_COUNTER = NullCounter()
NULL_HISTOGRAM = NullCounter()
