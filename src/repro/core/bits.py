"""Fixed-bitwidth value type with Verilog-like semantics.

``Bits`` is the workhorse message type of the framework (paper Section
III-A).  A ``Bits`` instance pairs a bitwidth with an unsigned value and
implements wrap-around (modular) arithmetic, bit slicing, concatenation,
and both unsigned and two's-complement signed interpretation.

``Bits`` values are immutable: every operation returns a new instance.
This keeps net storage in the simulator alias-free and makes ``Bits``
hashable (usable as dict keys, e.g. in instruction decoders).

Width rules follow common HDL practice:

- binary arithmetic/bitwise ops between two ``Bits`` produce a result of
  the *maximum* operand width, truncated to that width;
- ints mixed with ``Bits`` are coerced to the ``Bits`` operand's width;
- comparisons compare unsigned values;
- shifts keep the left operand's width.
"""

from __future__ import annotations

import operator


class Bits:
    """An immutable fixed-width bit vector.

    >>> b = Bits(8, 0xAB)
    >>> b.uint(), b.int()
    (171, -85)
    >>> (b + 0xFF).uint()   # wrap-around at 8 bits
    170
    >>> b[0:4].uint()       # little-endian slice: bits 3..0
    11
    """

    __slots__ = ("nbits", "_uint")

    def __init__(self, nbits, value=0, trunc=False):
        if nbits < 1:
            raise ValueError(f"nbits must be >= 1, got {nbits}")
        value = int(value)
        mask = (1 << nbits) - 1
        if trunc:
            value &= mask
        else:
            if value > mask or value < -(1 << (nbits - 1)):
                raise ValueError(
                    f"value {value} does not fit in {nbits} bits"
                )
            value &= mask
        object.__setattr__(self, "nbits", nbits)
        object.__setattr__(self, "_uint", value)

    # -- immutability -----------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("Bits objects are immutable")

    # Immutable values need no copying — sharing the instance is safe,
    # and ``copy.deepcopy`` would otherwise trip over __setattr__.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # -- value access ------------------------------------------------------

    def uint(self):
        """Return the unsigned integer interpretation."""
        return self._uint

    def int(self):
        """Return the two's-complement signed interpretation."""
        if self._uint >> (self.nbits - 1):
            return self._uint - (1 << self.nbits)
        return self._uint

    def __int__(self):
        return self._uint

    def __index__(self):
        return self._uint

    def __bool__(self):
        return self._uint != 0

    def __hash__(self):
        return hash((self.nbits, self._uint))

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"Bits{self.nbits}({self.hex()})"

    def __str__(self):
        nchars = (self.nbits + 3) // 4
        return f"{self._uint:0{nchars}x}"

    def hex(self):
        """Return the value as a fixed-width hex literal string."""
        nchars = (self.nbits + 3) // 4
        return f"0x{self._uint:0{nchars}x}"

    def bin(self):
        """Return the value as a fixed-width binary literal string."""
        return f"0b{self._uint:0{self.nbits}b}"

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _coerce(other, nbits):
        if isinstance(other, Bits):
            return other._uint, other.nbits
        if isinstance(other, int):
            return other & ((1 << nbits) - 1), nbits
        return NotImplemented, 0

    def _binop(self, other, op):
        val, obits = self._coerce(other, self.nbits)
        if val is NotImplemented:
            return NotImplemented
        nbits = max(self.nbits, obits)
        return _make(nbits, op(self._uint, val) & ((1 << nbits) - 1))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._binop(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, operator.sub)

    def __rsub__(self, other):
        return self._binop(other, _rsub)

    def __mul__(self, other):
        return self._binop(other, operator.mul)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return self._binop(other, operator.floordiv)

    def __mod__(self, other):
        return self._binop(other, operator.mod)

    def __neg__(self):
        return _make(self.nbits, -self._uint & ((1 << self.nbits) - 1))

    # -- bitwise -------------------------------------------------------------

    def __and__(self, other):
        return self._binop(other, operator.and_)

    __rand__ = __and__

    def __or__(self, other):
        return self._binop(other, operator.or_)

    __ror__ = __or__

    def __xor__(self, other):
        return self._binop(other, operator.xor)

    __rxor__ = __xor__

    def __invert__(self):
        return _make(self.nbits, ~self._uint & ((1 << self.nbits) - 1))

    def __lshift__(self, other):
        shamt = int(other)
        if shamt >= self.nbits:
            return Bits(self.nbits, 0)
        return _make(self.nbits,
                     (self._uint << shamt) & ((1 << self.nbits) - 1))

    def __rshift__(self, other):
        shamt = int(other)
        if shamt >= self.nbits:
            return Bits(self.nbits, 0)
        return Bits(self.nbits, self._uint >> shamt)

    # -- comparisons (unsigned) ------------------------------------------------

    def _cmp_val(self, other):
        if isinstance(other, Bits):
            return other._uint
        if isinstance(other, int):
            return other & ((1 << max(self.nbits, other.bit_length() or 1)) - 1) \
                if other >= 0 else other
        return NotImplemented

    def __eq__(self, other):
        val = self._cmp_val(other)
        if val is NotImplemented:
            return NotImplemented
        return self._uint == val

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __lt__(self, other):
        val = self._cmp_val(other)
        if val is NotImplemented:
            return NotImplemented
        return self._uint < val

    def __le__(self, other):
        val = self._cmp_val(other)
        if val is NotImplemented:
            return NotImplemented
        return self._uint <= val

    def __gt__(self, other):
        val = self._cmp_val(other)
        if val is NotImplemented:
            return NotImplemented
        return self._uint > val

    def __ge__(self, other):
        val = self._cmp_val(other)
        if val is NotImplemented:
            return NotImplemented
        return self._uint >= val

    # -- slicing ----------------------------------------------------------------

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop = _norm_slice(idx, self.nbits)
            nbits = stop - start
            return _make(nbits, (self._uint >> start) & ((1 << nbits) - 1))
        i = int(idx)
        if not 0 <= i < self.nbits:
            raise IndexError(f"bit index {i} out of range for Bits{self.nbits}")
        return _make(1, (self._uint >> i) & 1)

    def __len__(self):
        return self.nbits

    # -- width adjustment ----------------------------------------------------------

    def zext(self, nbits):
        """Zero-extend to ``nbits`` bits."""
        if nbits < self.nbits:
            raise ValueError("zext target narrower than source")
        return Bits(nbits, self._uint)

    def sext(self, nbits):
        """Sign-extend to ``nbits`` bits."""
        if nbits < self.nbits:
            raise ValueError("sext target narrower than source")
        return Bits(nbits, self.int(), trunc=True)


_new = object.__new__
_set_nbits = Bits.nbits.__set__
_set_uint = Bits._uint.__set__


def _make(nbits, value):
    """``Bits(nbits, value)`` without its checks, for the hot paths
    that have just computed ``value`` themselves.  ``nbits`` must be
    >= 1 and ``value`` an ``int`` already masked to ``nbits`` bits *in
    the caller's own expression* (``x & ((1 << nbits) - 1)``, or a
    slice of a masked value); anything else belongs to ``Bits(...)``,
    which keeps every range check."""
    bits = _new(Bits)
    _set_nbits(bits, nbits)
    _set_uint(bits, value)
    return bits


def _rsub(a, b):
    return b - a


def _norm_slice(idx, nbits):
    """Normalize a little-endian bit slice against a width."""
    if idx.step is not None:
        raise ValueError("Bits slices do not support a step")
    start = 0 if idx.start is None else int(idx.start)
    stop = nbits if idx.stop is None else int(idx.stop)
    if not 0 <= start < stop <= nbits:
        raise IndexError(
            f"invalid slice [{start}:{stop}] for {nbits}-bit value"
        )
    return start, stop


def concat(*values):
    """Concatenate ``Bits`` values, first argument in the most-significant
    position (matching Verilog's ``{a, b, c}``).

    >>> concat(Bits(4, 0xA), Bits(4, 0xB)).hex()
    '0xab'
    """
    if not values:
        raise ValueError("concat requires at least one value")
    result = 0
    nbits = 0
    for value in values:
        if not isinstance(value, Bits):
            # Coerce signals and signal slices through their value.
            coerced = getattr(value, "value", None)
            if isinstance(coerced, Bits):
                value = coerced
            else:
                raise TypeError(
                    "concat arguments must be Bits, signals, or slices"
                )
        result = (result << value.nbits) | value.uint()
        nbits += value.nbits
    return Bits(nbits, result)


def zext(value, nbits):
    """Zero-extend ``value`` to ``nbits``."""
    return value.zext(nbits)


def sext(value, nbits):
    """Sign-extend ``value`` to ``nbits``."""
    return value.sext(nbits)


def clog2(value):
    """Ceiling log2 — the classic HDL 'bits needed to count to N-1'.

    >>> [clog2(n) for n in (1, 2, 3, 4, 8, 9)]
    [0, 1, 2, 2, 3, 4]
    """
    if value < 1:
        raise ValueError("clog2 requires a positive argument")
    return (value - 1).bit_length()


def bw(nports):
    """Bitwidth needed to select among ``nports`` choices (min 1 bit).

    This is the helper the paper's Mux example calls ``bw``.
    """
    return max(1, clog2(nports))
