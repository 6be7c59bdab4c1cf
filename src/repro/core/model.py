"""The ``Model`` base class: concurrent-structural model description.

A PyMTL-style model (paper Figure 1) is a Python class inheriting from
``Model`` whose constructor declares ports, wires, submodels, structural
connectivity, and concurrent logic blocks:

    class Register(Model):
        def __init__(s, nbits):
            s.in_ = InPort(nbits)
            s.out = OutPort(nbits)

            @s.tick_rtl
            def seq_logic():
                s.out.next = s.in_.value

``Model.__new__`` initializes the bookkeeping state so user classes do
not need to call ``super().__init__()`` — constructors read exactly
like the paper's examples.

Concurrent logic is declared with decorators:

- ``@s.combinational`` — combinational logic; re-executed whenever a
  signal it reads changes.
- ``@s.tick_rtl`` / ``@s.tick_cl`` / ``@s.tick_fl`` — sequential logic
  executed once per simulated cycle (RTL / cycle-level / functional
  level respectively; the level tag drives translatability checks and
  SimJIT eligibility).
- ``@s.posedge_clk`` — alias of ``@s.tick_rtl``.

Structural connectivity is declared with ``s.connect(a, b)`` (signals,
signal slices, or integer constants), ``s.connect_dict`` for bulk
connections, and ``s.connect_auto`` for name-based autoconnection of
two submodels (paper Figure 9).
"""

from __future__ import annotations

from .portbundle import PortBundle
from .signals import InPort, OutPort, Signal, Wire, _SignalSlice


class _TickBlock:
    """A sequential logic block plus its abstraction-level tag."""

    __slots__ = ("func", "level", "model")

    def __init__(self, func, level, model):
        self.func = func
        self.level = level        # 'fl' | 'cl' | 'rtl'
        self.model = model

    @property
    def name(self):
        return f"{self.model.full_name()}.{self.func.__name__}"


class _CombBlock:
    """A combinational logic block.  What it reads and writes is its
    body's (:mod:`.bodies`), not a fact stored here."""

    __slots__ = ("func", "model")

    def __init__(self, func, model):
        self.func = func
        self.model = model

    @property
    def name(self):
        return f"{self.model.full_name()}.{self.func.__name__}"


class Model:
    """Base class for all hardware models."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls)
        # Bookkeeping initialized here so user constructors need no
        # super().__init__() call (matching the paper's examples).
        self._connections = []
        self._tick_blocks = []
        self._comb_blocks = []
        self._submodels = []
        self._elaborated = False
        self._telemetry_counters = {}
        self._telemetry_histograms = {}
        self._observed_signals = []
        self.name = None
        self.parent = None
        # Implicit signals every model has (used by RTL reset logic and
        # required for Verilog translation).
        self.clk = InPort(1)
        self.reset = InPort(1)
        return self

    # -- behavioral block decorators --------------------------------------

    def combinational(self, func):
        """Register ``func`` as combinational logic."""
        self._comb_blocks.append(_CombBlock(func, self))
        return func

    def tick_fl(self, func):
        """Register ``func`` as functional-level sequential logic."""
        self._tick_blocks.append(_TickBlock(func, "fl", self))
        return func

    def tick_cl(self, func):
        """Register ``func`` as cycle-level sequential logic."""
        self._tick_blocks.append(_TickBlock(func, "cl", self))
        return func

    def tick_rtl(self, func):
        """Register ``func`` as register-transfer-level sequential logic."""
        self._tick_blocks.append(_TickBlock(func, "rtl", self))
        return func

    # Verilog-flavored alias
    posedge_clk = tick_rtl

    # -- telemetry declaration ----------------------------------------------

    def counter(self, name, desc="", sig=None, state=None):
        """Declare a named performance counter on this model.

        With no backing, returns a python-kind accumulator to bump
        with ``.incr()`` from tick code.  ``sig=`` backs the counter
        by a ``Wire`` the model's RTL already increments; ``state=``
        backs it by a plain int attribute (``("attr",)``) or a flat
        int-list element (``("attr", i)``) — the SimJIT-translatable
        kinds.  The elaborator collects declared counters
        hierarchically for ``sim.telemetry.report()``.

        When telemetry is globally disabled
        (:func:`repro.telemetry.set_enabled`), nothing is registered:
        unbacked declarations return a shared no-op
        :class:`~repro.telemetry.counters.NullCounter`, and backed
        declarations return an unregistered reader.
        """
        from ..telemetry.counters import NULL_COUNTER, Counter, enabled
        if not enabled():
            if sig is None and state is None:
                return NULL_COUNTER
            return Counter(name, desc=desc, owner=self, sig=sig,
                           state=state)
        if name in self._telemetry_counters:
            raise ValueError(
                f"duplicate counter {name!r} on {type(self).__name__}")
        ctr = Counter(name, desc=desc, owner=self, sig=sig, state=state)
        self._telemetry_counters[name] = ctr
        return ctr

    def observe(self, *signals):
        """Mark signals of this model as flight-recorder-worthy.

        Called in the constructor (the DSEL idiom, like
        :meth:`counter`)::

            s.state = Wire(3)
            s.observe(s.state, s.req_addr)

        A :class:`~repro.observe.recorder.FlightRecorder` armed with
        ``signals=None`` records every registration collected across
        the hierarchy.  Accepts Signal/slice objects; registration is
        free until a recorder is armed.  Returns the signals (single
        object if one was passed) for inline use."""
        self._observed_signals.extend(signals)
        return signals[0] if len(signals) == 1 else signals

    def histogram(self, name, desc="", sig=None, when=None):
        """Declare a named histogram; collected like :meth:`counter`.

        With no backing, returns a python-kind histogram to feed with
        ``.observe(value)`` from tick code.  ``sig=`` makes it
        *signal-backed*: the simulator samples the signal once per
        cycle at the post-edge observation point, optionally gated by
        ``when=`` (a one-bit enable signal), and under SimJIT the
        binning is compiled into the generated C kernel."""
        from ..telemetry.counters import NULL_HISTOGRAM, Histogram, enabled
        if not enabled():
            return NULL_HISTOGRAM
        if name in self._telemetry_histograms:
            raise ValueError(
                f"duplicate histogram {name!r} on {type(self).__name__}")
        hist = Histogram(name, desc=desc, owner=self, sig=sig, when=when)
        self._telemetry_histograms[name] = hist
        return hist

    # -- structural connectivity --------------------------------------------

    def connect(self, left, right):
        """Structurally connect two signals (or a signal and a constant).

        Full-signal connections form a net (bidirectional, one shared
        storage).  Slice connections and constants become directional
        connector logic, with the driver inferred from port kinds.
        """
        if isinstance(left, PortBundle) and isinstance(right, PortBundle):
            for sig_a, sig_b in left.connectable(right):
                self._connections.append((sig_a, sig_b))
            return
        valid = (Signal, _SignalSlice, int)
        if not isinstance(left, valid) or not isinstance(right, valid):
            raise TypeError(
                f"connect() arguments must be signals, slices, or ints; "
                f"got {type(left).__name__} and {type(right).__name__}"
            )
        if isinstance(left, int) and isinstance(right, int):
            raise TypeError("cannot connect two constants")
        self._connections.append((left, right))

    def connect_dict(self, mapping):
        """Connect pairs given as a dict (paper Figure 9)."""
        for left, right in mapping.items():
            self.connect(left, right)

    def connect_auto(self, model_a, model_b):
        """Connect same-named ports of two submodels, pairing an
        ``OutPort`` on one side with the same-named ``InPort`` or
        ``Wire`` on the other (paper Figure 9's dpath/ctrl hookup).

        Ports with no same-named counterpart are left unconnected.
        """
        ports_a = _port_dict(model_a)
        ports_b = _port_dict(model_b)
        for name in sorted(set(ports_a) & set(ports_b)):
            a, b = ports_a[name], ports_b[name]
            if isinstance(a, OutPort) and isinstance(b, InPort):
                self.connect(a, b)
            elif isinstance(a, InPort) and isinstance(b, OutPort):
                self.connect(b, a)

    # -- elaboration -----------------------------------------------------------

    def elaborate(self):
        """Elaborate this model as the top of a design hierarchy.

        Names every signal and submodel and resolves connections into
        nets.  Returns ``self`` for chaining.
        """
        from .elaboration import elaborate
        elaborate(self)
        return self

    def is_elaborated(self):
        return self._elaborated

    # -- introspection -----------------------------------------------------------

    def full_name(self):
        """Hierarchical dotted name (``top.child.grandchild``)."""
        # A model may declare its own attribute named ``parent`` (e.g.
        # a ParentReqRespBundle); only a Model parent is the hierarchy
        # pointer.
        if not isinstance(self.parent, Model):
            return self.name or type(self).__name__.lower()
        return f"{self.parent.full_name()}.{self.name}"

    def get_signals(self, kinds=Signal):
        """The signals of the given kind(s) this model itself declares,
        in declaration order — the model/tool API's one answer to "what
        does this model own", the same before and after elaboration.

        Public attributes only (``_``-prefixed ones are bookkeeping:
        ``_observed_signals`` and the top's ``_all_signals`` list
        signals a second time); lists are followed
        :data:`MAX_LIST_DEPTH` levels deep and port bundles are
        expanded into their signals, unless ``kinds`` names a bundle
        class, which selects the bundles themselves.  Submodels'
        signals are theirs: walk ``get_submodels()``.
        """
        found = []
        for name, attr in self.__dict__.items():
            if not name.startswith("_"):
                _collect(attr, kinds, found, 0)
        return found

    def get_ports(self):
        """All InPort/OutPort signals declared on this model."""
        return self.get_signals((InPort, OutPort))

    def get_inports(self):
        return self.get_signals(InPort)

    def get_outports(self):
        return self.get_signals(OutPort)

    def get_wires(self):
        return self.get_signals(Wire)

    def get_submodels(self):
        return list(self._submodels)

    def get_tick_blocks(self):
        return list(self._tick_blocks)

    def get_comb_blocks(self):
        return list(self._comb_blocks)

    def level(self):
        """Highest-detail abstraction level of this model's own blocks:
        'rtl' > 'cl' > 'fl'.  Structural models report 'struct'."""
        levels = {blk.level for blk in self._tick_blocks}
        if self._comb_blocks:
            levels.add("rtl")
        for order in ("rtl", "cl", "fl"):
            if order in levels:
                return order
        return "struct"

    def line_trace(self):
        """One-line textual state trace; models override for debugging."""
        return ""

    def __repr__(self):
        return f"<{type(self).__name__} {self.full_name()}>"


#: How many list levels deep a model attribute may nest signals,
#: bundles or submodels (``s.in_[i][j][k][l]``): the one bound the
#: collector below, the elaborator's naming walk and SimJIT's port
#: adoption share.
MAX_LIST_DEPTH = 4


def _collect(attr, kinds, found, depth):
    """Append to ``found`` what one attribute value holds of ``kinds``
    — the only recursive signal collector (see
    :meth:`Model.get_signals`)."""
    if isinstance(attr, kinds):
        found.append(attr)
    elif isinstance(attr, PortBundle):
        found.extend(s for s in attr.get_signals() if isinstance(s, kinds))
    elif isinstance(attr, list) and depth < MAX_LIST_DEPTH:
        for item in attr:
            _collect(item, kinds, found, depth + 1)


def _port_dict(model):
    """Map of local port name -> port for autoconnection."""
    ports = {}
    for name, attr in model.__dict__.items():
        if isinstance(attr, (InPort, OutPort)) and name not in ("clk", "reset"):
            ports[name] = attr
    return ports
