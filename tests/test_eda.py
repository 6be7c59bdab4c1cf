"""Tests for the analytic EDA estimator."""

import pytest

from repro.components import IntPipelinedMultiplier, Register
from repro.core import InPort, Model, OutPort, SimulationTool, Wire
from repro.core.ast_ir import TranslationError
from repro.core.translation import translate
from repro.eda import estimate
from repro.mem import CacheRTL, MemMsg
from repro.accel import DotProductRTL, XcelMsg
from repro.proc import ProcRTL


def test_register_area_is_mostly_flops():
    report = estimate(Register(8).elaborate())
    # 8 flop bits plus a small input-mux charge.
    assert 8 * 6.0 <= report.area_ge <= 8 * 6.0 + 8 * 4.0


def test_wider_register_costs_more():
    assert estimate(Register(32).elaborate()).area_ge \
        > estimate(Register(8).elaborate()).area_ge


def test_multiplier_dominates_register():
    mul = estimate(IntPipelinedMultiplier(32, 4).elaborate())
    reg = estimate(Register(32).elaborate())
    assert mul.area_ge > 10 * reg.area_ge


def test_multiplier_depth_grows_with_width():
    narrow = estimate(IntPipelinedMultiplier(8, 1).elaborate())
    wide = estimate(IntPipelinedMultiplier(64, 1).elaborate())
    assert wide.critical_path_levels > narrow.critical_path_levels


def test_concat_costs_its_parts_side_by_side():
    """``concat(a + b, c)`` is the adder's gates and depth, as wide as
    its parts together: a concatenation adds wires, not gates."""
    from repro.core.ast_ir import BinOp, Concat, SigRead, SigRef
    from repro.core.signals import Wire
    from repro.eda.estimator import _expr_cost

    a, b, c = (SigRead(SigRef([Wire(8)])) for _ in range(3))
    add_ge, add_depth, _ = _expr_cost(BinOp("+", a, b), {})
    assert add_ge > 0 and add_depth > 0
    cat = Concat([(BinOp("+", a, b), 8), (c, 4)])
    assert _expr_cost(cat, {}) == (add_ge, add_depth, 12)
    # The width is what an operator on the concatenation is sized by.
    assert _expr_cost(BinOp("^", cat, c), {})[0] == add_ge + 12


class _AddK(Model):
    """``out = in_ + k``: the adder is as wide as ``k``."""

    def __init__(s, k):
        s.in_ = InPort(1)
        s.out = OutPort(9)
        s.k = k

        @s.combinational
        def add():
            s.out.value = s.in_.uint() + s.k


class _TwoAddK(Model):
    def __init__(s):
        s.lo, s.hi = _AddK(1), _AddK(255)


def test_siblings_are_costed_with_their_own_constants():
    """Both ``add`` blocks are one body; each instance's estimate reads
    its own ``k`` (a 1-bit adder, an 8-bit one), as it does alone."""
    report = estimate(_TwoAddK().elaborate())
    lo, hi = (m for m in report.modules if m.kind == "_AddK")
    assert lo.comb_ge < hi.comb_ge
    for module, k in ((lo, 1), (hi, 255)):
        alone, = estimate(_AddK(k).elaborate()).modules
        assert (module.comb_ge, module.delay_levels) == (
            alone.comb_ge, alone.delay_levels)


class _LocalArray(Model):
    """Reads stored in a local array: ``.value`` (``Bits``, whose type
    the typer refuses there) or ``.uint()`` (an int)."""

    def __init__(s, bits):
        s.a, s.o = InPort(8), OutPort(8)
        s.r = Wire(8)

        if bits:
            @s.combinational
            def comb():
                xs = [0] * 2
                xs[0] = s.a.value
                s.o.value = xs[0] + s.r.uint()

            @s.tick_rtl
            def tick():
                xs = [0] * 2
                xs[1] = s.a.value
                s.r.next = xs[1] + 1
        else:
            @s.combinational
            def comb():
                xs = [0] * 2
                xs[0] = s.a.uint()
                s.o.value = xs[0] + s.r.uint()

            @s.tick_rtl
            def tick():
                xs = [0] * 2
                xs[1] = s.a.uint()
                s.r.next = xs[1] + 1


def test_undecided_types_are_costed_like_their_int_twin():
    """A body the typer refuses (C and Verilog refuse it) is still
    hardware: its gates and flops are costed as lowered, the same
    whether a simulator lowered it first or not."""
    def costs(model):
        m, = estimate(model).modules
        return m.comb_ge, m.delay_levels, m.reg_bits

    twin = costs(_LocalArray(False).elaborate())
    assert twin[0] > 0 and twin[2] == 8
    with pytest.raises(TranslationError, match="local array"):
        translate(_LocalArray(True).elaborate())
    assert costs(_LocalArray(True).elaborate()) == twin
    model = _LocalArray(True).elaborate()
    SimulationTool(model, sched="static").cycle()
    assert costs(model) == twin


class _ShiftBy(Model):
    """``q = a << n``: ``Bits`` (0 once ``n`` reaches the width, a test
    the IR spells out) or int."""

    def __init__(s, bits):
        s.a, s.n, s.q = InPort(5), InPort(4), OutPort(16)

        if bits:
            @s.combinational
            def comb():
                s.q.value = s.a.value << s.n
        else:
            @s.combinational
            def comb():
                s.q.value = s.a.uint() << s.n


def test_dynamic_shift_guard_is_no_hardware():
    """A Verilog shift past the width is 0 already: the IR's guard of a
    ``Bits`` dynamic shift costs no comparator and no mux."""
    bits, plain = (estimate(_ShiftBy(b).elaborate()).modules[0]
                   for b in (True, False))
    assert (bits.comb_ge, bits.delay_levels) == (
        plain.comb_ge, plain.delay_levels)


def test_cache_data_array_uses_sram_model():
    report = estimate(CacheRTL(MemMsg(), MemMsg(), 64).elaborate())
    assert any(m.sram_bits > 0 for m in report.modules)


def test_bigger_cache_has_more_area():
    small = estimate(CacheRTL(MemMsg(), MemMsg(), 16).elaborate())
    big = estimate(CacheRTL(MemMsg(), MemMsg(), 256).elaborate())
    assert big.area_ge > small.area_ge


def test_report_properties_consistent():
    report = estimate(ProcRTL().elaborate())
    assert report.area_um2 == pytest.approx(report.area_ge * 0.8)
    assert report.cycle_time_ps > 0
    assert report.max_frequency_mhz > 0
    assert report.energy_per_cycle_pj > 0
    assert "area" in report.summary()


def test_by_module_class():
    report = estimate(DotProductRTL(MemMsg(), XcelMsg()).elaborate())
    classes = report.by_module_class()
    assert "DotProductDpath" in classes
    assert "IntPipelinedMultiplier" in classes


def test_accelerator_is_small_fraction_of_tile():
    """Paper Figure 5b: the accelerator adds ~4% tile area."""
    proc = estimate(ProcRTL().elaborate()).area_ge
    cache = estimate(CacheRTL(MemMsg(), MemMsg(), 64).elaborate()).area_ge
    accel = estimate(DotProductRTL(MemMsg(), XcelMsg()).elaborate()).area_ge
    share = accel / (proc + 2 * cache + accel)
    assert 0.01 < share < 0.15


class _ValueAnd(Model):
    """``o = a and b`` over 8-bit operands: Python yields an operand,
    so the hardware is ``a ? b : a``, not an AND gate."""

    def __init__(s):
        s.a, s.b, s.o = InPort(8), InPort(8), OutPort(8)

        @s.combinational
        def comb():
            s.o.value = s.a.uint() and s.b.uint()


def test_a_value_and_is_costed_as_its_operand_mux():
    """The range pass says the ``and`` is not 0/1; the estimator costs
    its ``select()``: one 8-bit 2:1 mux (2.5 GE a bit, one level) and
    the write's own 8-bit mux charge."""
    from repro.core.ast_ir import BoolOp
    from repro.core.bodies import lowered

    model = _ValueAnd().elaborate()
    blk, = model.get_comb_blocks()
    _, _, ir, _ = lowered(blk, {})
    boolop = ir.body[0].expr
    assert isinstance(boolop, BoolOp) and not boolop.zero_one
    module, = estimate(model).modules
    assert (module.comb_ge, module.delay_levels) == (
        2.5 * 8 + 2.5 * 8, 1)
