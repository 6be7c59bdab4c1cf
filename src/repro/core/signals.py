"""Signals: ports and wires with ``.value``/``.next`` semantics.

Signals are the connective tissue of a concurrent-structural model
(paper Section III-A):

- ``InPort`` / ``OutPort`` declare a model's port-based interface;
- ``Wire`` declares internal state/connectivity;
- signals written inside ``@s.combinational`` blocks behave like wires
  and are updated through ``.value``;
- signals written inside ``@s.tick_*`` blocks behave like registers and
  are updated through ``.next`` (the write takes effect at the end of
  the simulated cycle).

Every signal owns a private ``_Net`` at construction time; elaboration
merges the nets of structurally connected signals (union-find) so that
all signals on a net share one storage slot.  Reading ``.value`` works
before a simulator exists (it just reads the net), which keeps
elaboration-time code and test benches simple.

A net is written in exactly two ways, ``_Net.write`` and
``_Net.write_next``; every Python writer (``.value`` / ``.next`` of a
signal or a slice, the queue adapters, a SimJIT engine's pulled
outputs) calls one of them, and ``pygen`` prints the same two rules
inline for lowered blocks:

- ``write`` stores a changed value at once and marks the net's readers
  (``SimulationTool._notify``);
- ``write_next`` stores ``_next`` and enters the net in the
  simulator's pending-flop set only when it differs from ``_value``.
  An entry made by an earlier write of the same cycle stays, and the
  clock edge compares ``_next`` with ``_value`` anyway, so the last
  writer wins whichever way it goes.

Signals also forward arithmetic/comparison operators to their current
value so RTL blocks can write ``s.count + 1`` instead of
``s.count.value + 1`` — matching the paper's examples.
"""

from __future__ import annotations

from .bits import Bits, _make, _norm_slice
from .bitstruct import BitStruct


class _Net:
    """Shared storage for a set of connected signals.

    Before simulation the net is freestanding: writes store immediately
    and nothing is notified.  The ``SimulationTool`` attaches itself and
    a list of dependent combinational blocks at construction time.
    """

    __slots__ = ("nbits", "mask", "_value", "_next", "parent", "sim",
                 "blocks", "id", "sreaders", "treaders")

    def __init__(self, nbits):
        self.nbits = nbits
        self.mask = (1 << nbits) - 1
        self._value = 0
        self._next = 0
        self.parent = self      # union-find parent
        self.sim = None         # owning SimulationTool, if any
        self.blocks = ()        # event-driven blocks sensitive to this net
        self.id = None          # dense index assigned by the simulator
        self.sreaders = ()      # static-schedule slots reading this net
        self.treaders = ()      # gated-tick slots reading this net

    def find(self):
        """Union-find root with path compression."""
        root = self
        while root.parent is not root:
            root = root.parent
        node = self
        while node.parent is not root:
            node.parent, node = root, node.parent
        return root

    def read(self):
        return self._value

    def write(self, value):
        """Store ``value`` (masked by the caller) now; a change marks
        the readers."""
        if value != self._value:
            self._value = value
            sim = self.sim
            if sim is not None:
                sim._notify(self)

    def write_next(self, value):
        """Store ``value`` (masked by the caller) for the clock edge; it
        enters the pending-flop set only when it differs from
        ``_value`` (the module docstring's rule)."""
        self._next = value
        if value != self._value:
            sim = self.sim
            if sim is not None:
                sim._pending_flops[self] = True


def _msg_nbits(msg_type):
    """Width (in bits) of a port message-type specification."""
    if isinstance(msg_type, int):
        return msg_type
    if isinstance(msg_type, Bits):
        return msg_type.nbits
    if isinstance(msg_type, type) and issubclass(msg_type, BitStruct):
        return msg_type.nbits
    if isinstance(msg_type, BitStruct):
        return type(msg_type).nbits
    raise TypeError(f"unsupported message type spec: {msg_type!r}")


def _msg_struct(msg_type):
    """BitStruct class of a message-type spec, or None for plain Bits."""
    if isinstance(msg_type, type) and issubclass(msg_type, BitStruct):
        return msg_type
    if isinstance(msg_type, BitStruct):
        return type(msg_type)
    return None


class _ArrayableMeta(type):
    """Enables the ``InPort[n](msg_type)`` list-of-ports shorthand from
    the paper's Mux example."""

    def __getitem__(cls, count):
        def make(*args, **kwargs):
            return [cls(*args, **kwargs) for _ in range(count)]
        return make


class _ValueOps:
    """Operator forwarding shared by a signal and a slice of one: each
    operator applies to the operand's current ``.value`` (a ``Bits``),
    so ``s.count + 1`` reads like ``s.count.value + 1`` and a slice
    supports exactly the operators its signal does.  Methods are
    defined directly over ``.value`` — no ``super()``, no wrapper
    frame — because behavioural blocks call them at cycle rate."""

    __slots__ = ()

    def __int__(self):
        return int(self.value)

    def __index__(self):
        return int(self.value)

    def __bool__(self):
        return int(self.value) != 0

    def __add__(self, other):
        return self.value + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.value - other

    def __rsub__(self, other):
        return other - self.value

    def __mul__(self, other):
        return self.value * other

    __rmul__ = __mul__

    def __and__(self, other):
        return self.value & other

    __rand__ = __and__

    def __or__(self, other):
        return self.value | other

    __ror__ = __or__

    def __xor__(self, other):
        return self.value ^ other

    __rxor__ = __xor__

    def __invert__(self):
        return ~self.value

    def __lshift__(self, other):
        return self.value << other

    def __rshift__(self, other):
        return self.value >> other

    def __eq__(self, other):
        if isinstance(other, _ValueOps):
            other = other.value
        return self.value == other

    def __ne__(self, other):
        return not self.__eq__(other)

    def __lt__(self, other):
        if isinstance(other, _ValueOps):
            other = other.value
        return self.value < other

    def __le__(self, other):
        if isinstance(other, _ValueOps):
            other = other.value
        return self.value <= other

    def __gt__(self, other):
        if isinstance(other, _ValueOps):
            other = other.value
        return self.value > other

    def __ge__(self, other):
        if isinstance(other, _ValueOps):
            other = other.value
        return self.value >= other


class Signal(_ValueOps, metaclass=_ArrayableMeta):
    """Base class for ports and wires."""

    def __init__(self, msg_type):
        self.msg_type = msg_type
        self.nbits = _msg_nbits(msg_type)
        self._struct = _msg_struct(msg_type)
        self.name = None      # dotted name, assigned at elaboration
        self.parent = None    # owning Model, assigned at elaboration
        self._net = _Net(self.nbits)

    # -- value access ---------------------------------------------------

    @property
    def value(self):
        """Current value as ``Bits`` (or ``BitStruct`` view)."""
        # Hot path: elaboration compresses ``_net`` to the union-find
        # root, so skip the ``find()`` call once compressed.
        net = self._net
        if net.parent is not net:
            net = net.find()
            self._net = net
        if self._struct is not None:
            return self._struct(net._value)
        return _make(net.nbits, net._value & net.mask)

    @value.setter
    def value(self, value):
        net = self._net
        if net.parent is not net:
            net = net.find()
            self._net = net
        net.write(int(value) & net.mask)

    @property
    def next(self):
        raise AttributeError(
            ".next is write-only; read the current value via .value"
        )

    @next.setter
    def next(self, value):
        net = self._net
        if net.parent is not net:
            net = net.find()
            self._net = net
        net.write_next(int(value) & net.mask)

    def uint(self):
        net = self._net
        if net.parent is not net:
            net = net.find()
            self._net = net
        return net._value

    # -- slicing and struct-field access ------------------------------------

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            lo, hi = _norm_slice(idx, self.nbits)
        else:
            i = int(idx)
            if not 0 <= i < self.nbits:
                raise IndexError(
                    f"bit index {i} out of range for {self.nbits}-bit signal"
                )
            lo, hi = i, i + 1
        return _SignalSlice(self, lo, hi)

    def __getattr__(self, name):
        # Only called for attributes not found normally: resolve
        # BitStruct field names to sub-signal slices.
        struct = self.__dict__.get("_struct")
        if struct is not None:
            try:
                lo, hi = struct.field_slice(name)
            except AttributeError:
                pass
            else:
                field = next(f for f in struct._fields if f.name == name)
                return _SignalSlice(self, lo, hi, field.struct_type)
        raise AttributeError(
            f"{type(self).__name__} {self.__dict__.get('name')} "
            f"has no attribute {name!r}"
        )

    def __len__(self):
        return self.nbits

    # -- direct-net shortcuts of the _ValueOps conversions ---------------------

    def __int__(self):
        net = self._net
        return (net if net.parent is net else net.find())._value

    def __index__(self):
        net = self._net
        return (net if net.parent is net else net.find())._value

    def __bool__(self):
        net = self._net
        return (net if net.parent is net else net.find())._value != 0

    def __hash__(self):
        return id(self)

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}({self.name or '?'}, {self.nbits}b)"


class InPort(Signal):
    """An input port of a model."""


class OutPort(Signal):
    """An output port of a model."""


class Wire(Signal):
    """An internal wire (or register, when written via ``.next``)."""


class _SignalSlice(_ValueOps):
    """Read/write view of a bit range of a signal.

    Returned by ``sig[lo:hi]``, ``sig[i]``, and BitStruct field access
    on a signal.  Supports ``.value``/``.next`` and forwards operators,
    so slices compose like full signals in behavioral blocks and can be
    used in ``s.connect``.
    """

    __slots__ = ("signal", "lo", "hi", "nbits", "_struct")

    def __init__(self, signal, lo, hi, struct_type=None):
        self.signal = signal
        self.lo = lo
        self.hi = hi
        self.nbits = hi - lo
        self._struct = struct_type

    @property
    def value(self):
        mask = (1 << self.nbits) - 1
        val = (self.signal._net.find()._value >> self.lo) & mask
        if self._struct is not None:
            return self._struct(val)
        return _make(self.nbits, val)

    @value.setter
    def value(self, value):
        net = self.signal._net.find()
        mask = (1 << self.nbits) - 1
        val = (int(value) & mask) << self.lo
        net.write((net._value & ~(mask << self.lo)) | val)

    @property
    def next(self):
        raise AttributeError(".next is write-only")

    @next.setter
    def next(self, value):
        net = self.signal._net.find()
        # Merge into the pending next value so multiple slice writes to
        # one register within a tick compose.  A net outside the set
        # has no write this cycle that differs from ``_value``.
        sim = net.sim
        raw = (net._next if sim is not None and net in sim._pending_flops
               else net._value)
        mask = (1 << self.nbits) - 1
        val = (int(value) & mask) << self.lo
        net.write_next((raw & ~(mask << self.lo)) | val)

    def __getattr__(self, name):
        struct = object.__getattribute__(self, "_struct")
        if struct is not None:
            lo, hi = struct.field_slice(name)
            field = next(f for f in struct._fields if f.name == name)
            return _SignalSlice(
                self.signal, self.lo + lo, self.lo + hi, field.struct_type
            )
        raise AttributeError(name)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            lo, hi = _norm_slice(idx, self.nbits)
        else:
            i = int(idx)
            lo, hi = i, i + 1
        return _SignalSlice(self.signal, self.lo + lo, self.lo + hi)

    def __len__(self):
        return self.nbits

    def __hash__(self):
        return hash((id(self.signal), self.lo, self.hi))

    def __repr__(self):
        return f"{self.signal!r}[{self.lo}:{self.hi}]"
