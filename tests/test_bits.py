"""Unit and property tests for the Bits fixed-width value type."""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Bits, bw, clog2, concat, mk_bitstruct, sext, zext
from repro.core.bits import _make


# -- construction -------------------------------------------------------------


def test_basic_construction():
    b = Bits(8, 0xAB)
    assert b.nbits == 8
    assert b.uint() == 0xAB


def test_default_value_is_zero():
    assert Bits(16).uint() == 0


def test_negative_value_wraps_twos_complement():
    assert Bits(8, -1).uint() == 0xFF
    assert Bits(8, -128).uint() == 0x80


def test_out_of_range_raises():
    with pytest.raises(ValueError):
        Bits(8, 256)
    with pytest.raises(ValueError):
        Bits(8, -129)


def test_trunc_masks_instead_of_raising():
    assert Bits(8, 0x1FF, trunc=True).uint() == 0xFF


def test_zero_width_raises():
    with pytest.raises(ValueError):
        Bits(0)


def test_immutability():
    b = Bits(8, 1)
    with pytest.raises(AttributeError):
        b.nbits = 4


# -- signed/unsigned interpretation ---------------------------------------------


def test_int_interpretation():
    assert Bits(8, 0x7F).int() == 127
    assert Bits(8, 0x80).int() == -128
    assert Bits(8, 0xFF).int() == -1


def test_dunder_int_is_unsigned():
    assert int(Bits(8, 0xFF)) == 255


def test_index_protocol():
    data = list(range(16))
    assert data[Bits(4, 3)] == 3


def test_bool():
    assert Bits(4, 1)
    assert not Bits(4, 0)


# -- arithmetic ---------------------------------------------------------------------


def test_add_wraps():
    assert (Bits(8, 0xFF) + 1).uint() == 0
    assert (Bits(8, 0xFF) + Bits(8, 2)).uint() == 1


def test_sub_wraps():
    assert (Bits(8, 0) - 1).uint() == 0xFF


def test_rsub():
    assert (1 - Bits(8, 2)).uint() == 0xFF


def test_mixed_width_takes_max():
    result = Bits(4, 0xF) + Bits(8, 1)
    assert result.nbits == 8
    assert result.uint() == 0x10


def test_mul():
    assert (Bits(8, 16) * 16).uint() == 0


def test_floordiv_mod():
    assert (Bits(8, 100) // 7).uint() == 14
    assert (Bits(8, 100) % 7).uint() == 2


def test_neg():
    assert (-Bits(8, 1)).uint() == 0xFF


# -- bitwise ------------------------------------------------------------------------


def test_and_or_xor_invert():
    a, b = Bits(8, 0b1100), Bits(8, 0b1010)
    assert (a & b).uint() == 0b1000
    assert (a | b).uint() == 0b1110
    assert (a ^ b).uint() == 0b0110
    assert (~a).uint() == 0xF3


def test_shifts():
    assert (Bits(8, 1) << 3).uint() == 8
    assert (Bits(8, 0x80) >> 7).uint() == 1
    assert (Bits(8, 1) << 8).uint() == 0    # overshift
    assert (Bits(8, 0x80) >> 8).uint() == 0


def test_shift_by_bits():
    assert (Bits(8, 1) << Bits(3, 2)).uint() == 4


# -- comparisons ---------------------------------------------------------------------


def test_eq_with_int_and_bits():
    assert Bits(8, 5) == 5
    assert Bits(8, 5) == Bits(8, 5)
    assert Bits(8, 5) != 6
    assert Bits(8, 0xFF) == 255     # unsigned comparison


def test_ordering_is_unsigned():
    assert Bits(8, 0xFF) > Bits(8, 1)
    assert Bits(8, 1) < 200
    assert Bits(8, 5) <= 5
    assert Bits(8, 5) >= 5


def test_hashable():
    assert len({Bits(8, 1), Bits(8, 1), Bits(4, 1)}) == 2


# -- slicing ---------------------------------------------------------------------------


def test_getitem_single_bit():
    b = Bits(8, 0b10000001)
    assert b[0] == 1
    assert b[7] == 1
    assert b[3] == 0


def test_getitem_slice():
    b = Bits(8, 0xAB)
    assert b[0:4].uint() == 0xB
    assert b[4:8].uint() == 0xA
    assert b[0:4].nbits == 4


def test_open_ended_slices():
    b = Bits(8, 0xAB)
    assert b[:4].uint() == 0xB
    assert b[4:].uint() == 0xA
    assert b[:].uint() == 0xAB


def test_bad_slices_raise():
    b = Bits(8)
    with pytest.raises(IndexError):
        b[8]
    with pytest.raises(IndexError):
        b[4:2]
    with pytest.raises(IndexError):
        b[0:9]
    with pytest.raises(ValueError):
        b[0:4:2]


def test_len():
    assert len(Bits(13)) == 13


# -- extension / concat ---------------------------------------------------------------


def test_zext():
    assert zext(Bits(4, 0xF), 8).uint() == 0x0F
    with pytest.raises(ValueError):
        zext(Bits(8), 4)


def test_sext():
    assert sext(Bits(4, 0x8), 8).uint() == 0xF8
    assert sext(Bits(4, 0x7), 8).uint() == 0x07


def test_concat():
    assert concat(Bits(4, 0xA), Bits(4, 0xB)).uint() == 0xAB
    assert concat(Bits(4, 0xA), Bits(4, 0xB)).nbits == 8
    assert concat(Bits(2, 1), Bits(2, 1), Bits(2, 1)).uint() == 0b010101


def test_concat_requires_bits():
    with pytest.raises(TypeError):
        concat(Bits(4, 1), 3)
    with pytest.raises(ValueError):
        concat()


# -- display ----------------------------------------------------------------------------


def test_repr_and_str():
    assert repr(Bits(8, 0xAB)) == "Bits8(0xab)"
    assert str(Bits(8, 0xAB)) == "ab"
    assert Bits(8, 0xAB).bin() == "0b10101011"
    assert Bits(5, 3).hex() == "0x03"


# -- helpers -------------------------------------------------------------------------------


def test_clog2():
    assert [clog2(n) for n in (1, 2, 3, 4, 8, 9, 1024)] == [0, 1, 2, 2, 3, 4, 10]
    with pytest.raises(ValueError):
        clog2(0)


def test_bw():
    assert bw(1) == 1       # degenerate select still needs one bit
    assert bw(2) == 1
    assert bw(4) == 2
    assert bw(5) == 3


# -- property-based tests: Bits arithmetic == modular arithmetic ----------------------


uint8 = st.integers(min_value=0, max_value=255)
widths = st.integers(min_value=1, max_value=64)


@given(widths, st.integers(), st.integers())
def test_prop_add_is_modular(nbits, a, b):
    mask = (1 << nbits) - 1
    result = Bits(nbits, a, trunc=True) + Bits(nbits, b, trunc=True)
    assert result.uint() == (a + b) & mask


@given(widths, st.integers(), st.integers())
def test_prop_sub_is_modular(nbits, a, b):
    mask = (1 << nbits) - 1
    result = Bits(nbits, a, trunc=True) - Bits(nbits, b, trunc=True)
    assert result.uint() == (a - b) & mask


@given(widths, st.integers(), st.integers())
def test_prop_mul_is_modular(nbits, a, b):
    mask = (1 << nbits) - 1
    result = Bits(nbits, a, trunc=True) * Bits(nbits, b, trunc=True)
    assert result.uint() == (a * b) & mask


@given(widths, st.integers())
def test_prop_double_invert_is_identity(nbits, a):
    b = Bits(nbits, a, trunc=True)
    assert (~~b).uint() == b.uint()


@given(widths, st.integers())
def test_prop_int_uint_roundtrip(nbits, a):
    b = Bits(nbits, a, trunc=True)
    assert Bits(nbits, b.int(), trunc=True).uint() == b.uint()


@given(st.integers(min_value=1, max_value=32), st.integers(), st.data())
def test_prop_slice_then_concat_roundtrip(nbits, a, data):
    b = Bits(nbits, a, trunc=True)
    cut = data.draw(st.integers(min_value=1, max_value=nbits - 1)) \
        if nbits > 1 else None
    if cut is None:
        return
    lo, hi = b[0:cut], b[cut:nbits]
    assert concat(hi, lo).uint() == b.uint()


@given(widths, st.integers(), st.integers(min_value=0, max_value=70))
def test_prop_shift_pair(nbits, a, sh):
    b = Bits(nbits, a, trunc=True)
    mask = (1 << nbits) - 1
    assert (b << sh).uint() == ((b.uint() << sh) & mask if sh < nbits else 0)
    assert (b >> sh).uint() == (b.uint() >> sh if sh < nbits else 0)


@given(widths, st.integers())
def test_prop_sext_preserves_signed_value(nbits, a):
    b = Bits(nbits, a, trunc=True)
    assert sext(b, nbits + 16).int() == b.int()


@given(widths, st.integers())
def test_prop_zext_preserves_unsigned_value(nbits, a):
    b = Bits(nbits, a, trunc=True)
    assert zext(b, nbits + 16).uint() == b.uint()


# -- the unchecked constructor: same values as Bits(...) ---------------------------

wide = st.integers(min_value=1, max_value=130)
BINOPS = [operator.add, operator.sub, operator.mul, operator.floordiv,
          operator.mod, operator.and_, operator.or_, operator.xor,
          operator.lshift]


def _same_as_checked(result, nbits, value):
    """``result`` (built by ``_make``) and ``Bits(nbits, value)`` are
    indistinguishable."""
    ref = Bits(nbits, value & ((1 << nbits) - 1))
    assert type(result) is Bits
    assert result.nbits == ref.nbits
    assert result.uint() == ref.uint()
    assert result == ref
    assert hash(result) == hash(ref)
    assert repr(result) == repr(ref)


@given(wide, wide, st.integers(min_value=0), st.integers(min_value=0),
       st.sampled_from(BINOPS))
def test_prop_make_binops_match_checked_bits(wa, wb, a, b, op):
    x = Bits(wa, a, trunc=True)
    if op is operator.lshift:
        sh = b % (wa + 2)
        value = 0 if sh >= wa else x.uint() << sh
        _same_as_checked(x << sh, wa, value)
        return
    y = Bits(wb, b, trunc=True)
    if op in (operator.floordiv, operator.mod) and not y.uint():
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    nbits = max(wa, wb)
    # Includes negative differences (x < y) and, with an int on the
    # right, the int masked to the Bits operand's width.
    _same_as_checked(op(x, y), nbits, op(x.uint(), y.uint()))
    if op not in (operator.floordiv, operator.mod) or b & ((1 << wa) - 1):
        _same_as_checked(op(x, b), wa, op(x.uint(), b & ((1 << wa) - 1)))


@given(wide, st.integers())
def test_prop_make_unary_and_slices_match_checked_bits(nbits, a):
    x = Bits(nbits, a, trunc=True)
    _same_as_checked(~x, nbits, ~x.uint())
    _same_as_checked(-x, nbits, -x.uint())
    _same_as_checked(x - (x.uint() + 1), nbits, -1)
    for lo in range(0, nbits, max(1, nbits // 5)):
        for hi in (lo + 1, nbits):
            _same_as_checked(x[lo:hi], hi - lo, x.uint() >> lo)
        _same_as_checked(x[lo], 1, x.uint() >> lo)


@given(st.lists(wide, min_size=1, max_size=4), st.integers(), st.data())
def test_prop_make_bitstruct_splices_match_checked_bits(widths, a, data):
    Msg = mk_bitstruct("Msg", [(f"f{i}", w) for i, w in enumerate(widths)])
    msg = Msg(a)
    _same_as_checked(msg.to_bits(), Msg.nbits, a)
    expect = msg.uint()
    for field in Msg._fields:
        value = data.draw(st.integers())
        setattr(msg, field.name, value)
        width = field.hi - field.lo
        keep = expect & ~(((1 << width) - 1) << field.lo)
        expect = keep | ((value & ((1 << width) - 1)) << field.lo)
        _same_as_checked(msg.to_bits(), Msg.nbits, expect)
        _same_as_checked(getattr(msg, field.name), width,
                         expect >> field.lo)


def test_make_is_bits_and_checked_constructor_still_raises():
    assert _make(8, 0xAB) == Bits(8, 0xAB)
    with pytest.raises(ValueError):
        Bits(8, 256)
    with pytest.raises(ValueError):
        Bits(8, -129)
    with pytest.raises(ValueError):
        Bits(0, 0)
