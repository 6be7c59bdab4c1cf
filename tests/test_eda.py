"""Tests for the analytic EDA estimator."""

import pytest

from repro.components import IntPipelinedMultiplier, Register
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
    add_ge, add_depth, _ = _expr_cost(BinOp("+", a, b))
    assert add_ge > 0 and add_depth > 0
    cat = Concat([(BinOp("+", a, b), 8), (c, 4)])
    assert _expr_cost(cat) == (add_ge, add_depth, 12)
    # The width is what an operator on the concatenation is sized by.
    assert _expr_cost(BinOp("^", cat, c))[0] == add_ge + 12


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
