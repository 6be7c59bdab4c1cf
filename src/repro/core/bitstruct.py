"""BitStruct: fixed-width message types with named bitfields.

The paper (Section III-C) uses ``BitStructs`` as message types to give
named access to bitfields of control/status buses and network or memory
messages.  A ``BitStruct`` subclass declares its fields at class scope:

    class MemReqMsg(BitStruct):
        type_ = Field(1)
        addr  = Field(32)
        data  = Field(32)

Fields are packed most-significant-first in declaration order, so
``type_`` above occupies the top bit and ``data`` the bottom 32 bits.

A ``BitStruct`` *class* doubles as a port message type (it exposes
``nbits`` and field offsets), while ``BitStruct`` *instances* wrap a
concrete ``Bits`` value and expose each field as an attribute returning
a ``Bits`` slice.  Signals whose message type is a ``BitStruct`` expose
the same field names as writable sub-signal slices (see ``signals.py``).
"""

from __future__ import annotations

from .bits import _make


class Field:
    """Declares one bitfield of a ``BitStruct``.

    ``nbits`` may be an int, or a nested ``BitStruct`` subclass (the
    field then spans that struct's width and reads back as an instance
    of it).
    """

    __slots__ = ("nbits", "struct_type", "name", "lo", "hi")

    def __init__(self, nbits):
        if isinstance(nbits, type) and issubclass(nbits, BitStruct):
            self.struct_type = nbits
            self.nbits = nbits.nbits
        else:
            self.struct_type = None
            self.nbits = int(nbits)
        if self.nbits < 1:
            raise ValueError("Field width must be >= 1")
        self.name = None   # filled in by the metaclass
        self.lo = None
        self.hi = None

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj._bits[self.lo:self.hi]
        if self.struct_type is not None:
            return self.struct_type(value)
        return value

    def __set__(self, obj, value):
        obj._bits = _splice(obj._bits, self.lo, self.hi, value)


def _splice(bits, lo, hi, value):
    """Return ``bits`` with the slice [lo:hi] replaced by ``value``."""
    width = hi - lo
    val = int(value) & ((1 << width) - 1)
    mask = ((1 << width) - 1) << lo
    return _make(bits.nbits, (bits._uint & ~mask) | (val << lo))


class _BitStructMeta(type):
    """Assigns bit offsets to declared fields (MSB-first) and computes
    the total struct width."""

    def __new__(mcs, name, bases, namespace):
        cls = super().__new__(mcs, name, bases, namespace)
        fields = []
        for base in reversed(cls.__mro__):
            for key, attr in vars(base).items():
                if isinstance(attr, Field) and attr not in fields:
                    attr.name = key
                    fields.append(attr)
        total = sum(f.nbits for f in fields)
        offset = total
        for field in fields:
            offset -= field.nbits
            field.lo = offset
            field.hi = offset + field.nbits
        cls._fields = fields
        cls.nbits = max(total, 1) if fields else 0
        return cls


class BitStruct(metaclass=_BitStructMeta):
    """Base class for fixed-width messages with named bitfields."""

    def __init__(self, value=0):
        if isinstance(value, BitStruct):
            value = value._bits
        nbits = type(self).nbits
        if not nbits:
            raise ValueError(f"{type(self).__name__} declares no fields")
        self._bits = _make(nbits, int(value) & ((1 << nbits) - 1))

    @classmethod
    def field_slice(cls, name):
        """Return the (lo, hi) bit range of field ``name``."""
        for field in cls._fields:
            if field.name == name:
                return field.lo, field.hi
        raise AttributeError(f"{cls.__name__} has no field {name!r}")

    @classmethod
    def field_names(cls):
        return [f.name for f in cls._fields]

    def to_bits(self):
        """Return the packed ``Bits`` representation."""
        return self._bits

    def uint(self):
        return self._bits.uint()

    def int(self):
        return self._bits.int()

    def __int__(self):
        return self._bits.uint()

    def __index__(self):
        return self._bits.uint()

    def __eq__(self, other):
        if isinstance(other, BitStruct):
            return self._bits == other._bits
        return self._bits == other

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((type(self).__name__, self._bits))

    def __repr__(self):
        parts = ", ".join(
            f"{f.name}={getattr(self, f.name)}" for f in self._fields
        )
        return f"{type(self).__name__}({parts})"

    def __str__(self):
        return ":".join(str(getattr(self, f.name)) for f in self._fields)


def mk_bitstruct(name, fields):
    """Dynamically create a ``BitStruct`` subclass.

    ``fields`` is a list of ``(name, nbits)`` pairs, most-significant
    field first.

    >>> Msg = mk_bitstruct('Msg', [('dest', 4), ('payload', 8)])
    >>> Msg.nbits
    12
    """
    namespace = {fname: Field(nbits) for fname, nbits in fields}
    return _BitStructMeta(name, (BitStruct,), namespace)
