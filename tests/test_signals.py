"""Unit tests for signals, slices, and struct-typed ports."""

import pytest

from repro import (
    Bits,
    BitStruct,
    Field,
    InPort,
    Model,
    OutPort,
    SimulationTool,
    Wire,
)


class PairMsg(BitStruct):
    hi = Field(8)
    lo = Field(8)


def test_port_width_from_int():
    assert InPort(8).nbits == 8


def test_port_width_from_bits_prototype():
    assert InPort(Bits(12)).nbits == 12


def test_port_width_from_bitstruct():
    assert InPort(PairMsg).nbits == 16


def test_port_array_shorthand():
    ports = InPort[4](8)
    assert len(ports) == 4
    assert all(isinstance(p, InPort) and p.nbits == 8 for p in ports)


def test_value_read_write_before_simulation():
    w = Wire(8)
    w.value = 42
    assert w.value == 42
    assert isinstance(w.value, Bits)


def test_value_write_masks():
    w = Wire(4)
    w.value = 0x1F
    assert w.value == 0xF


def test_next_is_write_only():
    w = Wire(8)
    with pytest.raises(AttributeError):
        _ = w.next


def test_struct_port_returns_struct_view():
    p = Wire(PairMsg)
    p.value = (0xAB << 8) | 0xCD
    assert isinstance(p.value, PairMsg)
    assert p.value.hi == 0xAB
    assert p.value.lo == 0xCD


def test_struct_field_access_on_signal():
    p = Wire(PairMsg)
    p.value = (0xAB << 8) | 0xCD
    assert p.hi.value == 0xAB
    assert p.lo.value == 0xCD


def test_struct_field_write_on_signal():
    p = Wire(PairMsg)
    p.hi.value = 0x12
    p.lo.value = 0x34
    assert p.value.to_bits().uint() == 0x1234


def test_slice_read_write():
    w = Wire(8)
    w.value = 0xAB
    assert w[0:4].value == 0xB
    w[0:4].value = 0x5
    assert w.value == 0xA5


def test_single_bit_access():
    w = Wire(8)
    w.value = 0b1000_0000
    assert w[7].value == 1
    assert w[0].value == 0
    w[0].value = 1
    assert w.value == 0b1000_0001


def test_nested_slice():
    w = Wire(16)
    w.value = 0xABCD
    assert w[8:16][0:4].value == 0xB


def test_operator_forwarding():
    w = Wire(8)
    w.value = 10
    assert w + 1 == 11
    assert w - 1 == 9
    assert w * 2 == 20
    assert (w << 1) == 20
    assert (w >> 1) == 5
    assert (w & 0xF) == 10
    assert (w | 0x10) == 0x1A
    assert (w ^ 0xFF) == 0xF5
    assert w == 10
    assert w != 11
    assert w < 11
    assert w > 9
    assert w <= 10
    assert w >= 10
    assert int(w) == 10
    assert bool(w)


def _operands():
    """A 4-bit signal and a 4-bit slice holding the same value as the
    ``Bits`` every operator is defined on."""
    sig, wide = Wire(4), Wire(8)
    sig.value = 0x6
    wide.value = 0xA6
    return {"signal": sig, "slice": wide[0:4]}, Bits(4, 0x6)


_BINARY = ["add", "sub", "mul", "and_", "or_", "xor", "lshift", "rshift",
           "eq", "ne", "lt", "le", "gt", "ge"]
_REFLECTED = ["add", "sub", "mul", "and_", "or_", "xor",
              "eq", "ne", "lt", "le", "gt", "ge"]


@pytest.mark.parametrize("kind", ["signal", "slice"])
def test_operators_agree_with_bits(kind):
    import operator

    operands, bits = _operands()
    operand = operands[kind]

    def same(got, want):
        assert type(got) is type(want) and got == want
        assert getattr(got, "nbits", None) == getattr(want, "nbits", None)

    for other in (3, 9, Bits(4, 0xC)):
        for name in _BINARY:
            op = getattr(operator, name)
            same(op(operand, other), op(bits, other))
        for name in _REFLECTED:
            op = getattr(operator, name)
            same(op(other, operand), op(other, bits))
    same(~operand, ~bits)
    assert (int(operand), operator.index(operand), bool(operand)) == (
        6, 6, True)
    # Signal to signal, either way round.
    for name in _BINARY:
        op = getattr(operator, name)
        same(op(operand, operands["signal"]), op(bits, bits))
        same(op(operands["slice"], operand), op(bits, bits))


class _SliceArith(Model):
    """Operators on a slice that ``ast_ir`` lowers, so the block runs
    in C and Verilog — and must run in the interpreter too."""

    def __init__(s):
        s.a = InPort(8)
        s.out = OutPort(4)
        s.low = OutPort(4)

        @s.combinational
        def logic():
            s.out.value = s.a[0:4] * 2
            s.low.value = 3 & s.a[4:8]


@pytest.mark.parametrize("substrate", ["event", "static", "simjit"])
def test_slice_arithmetic_block_runs_on_every_substrate(substrate):
    from repro import SimJITRTL

    model = _SliceArith().elaborate()
    if substrate == "simjit":
        model = SimJITRTL(model).specialize().elaborate()
        sim = SimulationTool(model)
    else:
        sim = SimulationTool(model, sched=substrate)
    for value in (0x00, 0x35, 0xA6, 0xFF):
        model.a.value = value
        sim.cycle()
        assert int(model.out) == ((value & 0xF) * 2) & 0xF
        assert int(model.low) == 3 & (value >> 4)


def test_signal_to_signal_comparison():
    a, b = Wire(8), Wire(8)
    a.value = 5
    b.value = 5
    assert a == b
    b.value = 6
    assert a < b


def test_out_of_range_bit_index_raises():
    with pytest.raises(IndexError):
        Wire(8)[8]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        Wire(8).no_such_field


class _SlicePipeline(Model):
    """Register with slice writes via .next from a tick block."""

    def __init__(s):
        s.in_ = InPort(8)
        s.out = OutPort(8)

        @s.tick_rtl
        def logic():
            s.out[0:4].next = s.in_[4:8].value
            s.out[4:8].next = s.in_[0:4].value


def test_slice_next_writes_compose():
    model = _SlicePipeline().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    model.in_.value = 0xAB
    sim.cycle()
    assert model.out == 0xBA


class _StructPorts(Model):
    """Struct-typed ports with field access in behavioral blocks."""

    def __init__(s):
        s.in_ = InPort(PairMsg)
        s.out = OutPort(PairMsg)

        @s.combinational
        def swap():
            s.out.hi.value = s.in_.lo.value
            s.out.lo.value = s.in_.hi.value


def test_struct_field_access_in_comb_block():
    model = _StructPorts().elaborate()
    sim = SimulationTool(model)
    msg = PairMsg()
    msg.hi = 0x11
    msg.lo = 0x22
    model.in_.value = msg
    sim.eval_combinational()
    assert model.out.value.hi == 0x22
    assert model.out.value.lo == 0x11


# -- the one .next rule (_Net.write_next) -----------------------------------------


class _Bare(Model):
    """A register nothing drives: the test bench's .next writes are the
    only ones."""

    def __init__(s):
        s.w = Wire(8)


def _bare_sim():
    model = _Bare().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    return model, sim, model.w._net.find()


def test_next_equal_to_value_enters_no_flop():
    model, sim, net = _bare_sim()
    model.w.next = 0
    model.w[0:4].next = 0
    assert not sim._pending_flops
    model.w.next = 5
    assert list(sim._pending_flops) == [net]


def test_next_written_back_keeps_its_entry_and_flops_no_change():
    model, sim, net = _bare_sim()
    model.w.next = 0x5A
    sim.cycle()
    assert model.w == 0x5A
    model.w.next = 0x12
    model.w.next = 0x5A             # last writer: back to the value
    assert net in sim._pending_flops
    sim.cycle()
    assert model.w == 0x5A
    assert not sim._pending_flops


def test_slice_next_after_an_equal_full_write_composes():
    model, sim, _ = _bare_sim()
    model.w.next = 0x5A
    sim.cycle()
    model.w.next = 0x5A             # equal: no entry
    model.w[0:4].next = 0x3
    sim.cycle()
    assert model.w == 0x53
    model.w.next = 0x12             # an entry, then back to the value
    model.w.next = 0x53
    model.w[4:8].next = 0x0
    sim.cycle()
    assert model.w == 0x03


def test_engine_output_pulled_as_next_still_flops():
    from repro import SimJITRTL
    from repro.components import Register

    class Wrapper(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.reg_ = SimJITRTL(Register(8).elaborate()).specialize()
            s.connect(s.in_, s.reg_.in_)
            s.connect(s.reg_.out, s.out)

    model = Wrapper().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    seen = []
    for value in (99, 99, 7, 0, 0, 255):
        model.in_.value = value
        sim.cycle()
        seen.append(int(model.out))
    assert seen == [99, 99, 7, 0, 0, 255]


# -- a BitStruct field may be named like a slice attribute ------------------------


class SignalMsg(BitStruct):
    signal = Field(4)
    data = Field(4)


class _SignalField(Model):
    def __init__(s):
        s.in_ = InPort(SignalMsg)
        s.out = OutPort(4)

        @s.combinational
        def add():
            s.out.value = s.in_.signal + s.in_.data


@pytest.mark.parametrize("sched", ["auto", "static", "event"])
def test_struct_field_named_signal_simulates(sched):
    model = _SignalField().elaborate()
    sim = SimulationTool(model, sched=sched)
    sim.reset()
    msg = SignalMsg()
    msg.signal = 3
    msg.data = 4
    model.in_.value = msg
    sim.eval_combinational()
    assert model.out == 7
    assert model.in_.signal.value == 3


def test_struct_field_named_signal_lints():
    from repro.tools.linter import lint
    assert lint(_SignalField().elaborate()) == []
