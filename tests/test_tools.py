"""Tests for the user-level tools: VCD, linter, visualizer."""

import pytest

from repro import InPort, Model, OutPort, SimulationTool, Wire
from repro.components import Register
from repro.net import MeshNetworkStructural, RouterRTL
from repro.tools import (
    VCDWriter,
    connectivity_report,
    design_stats,
    hierarchy_tree,
    lint,
)
from tests.test_core_smoke import MuxReg


# -- VCD ----------------------------------------------------------------------


def test_vcd_basic_structure(tmp_path):
    path = tmp_path / "trace.vcd"
    model = Register(8).elaborate()
    with VCDWriter(str(path)) as vcd:
        sim = SimulationTool(model, vcd=vcd)
        sim.reset()
        model.in_.value = 0xAB
        sim.cycle()
        model.in_.value = 0xCD
        sim.cycle()
    text = path.read_text()
    assert "$timescale" in text
    assert "$var wire 8" in text
    assert "$enddefinitions" in text
    assert "b10101011" in text


def test_vcd_only_changes_recorded(tmp_path):
    path = tmp_path / "trace.vcd"
    model = Register(8).elaborate()
    with VCDWriter(str(path)) as vcd:
        sim = SimulationTool(model, vcd=vcd)
        sim.reset()
        model.in_.value = 1
        sim.run(5)          # value stable after first cycle
    text = path.read_text()
    # The 'out' signal transitions once to 1; later samples are quiet.
    lines = [l for l in text.splitlines() if l.startswith("b1 ")]
    assert len(lines) <= len(set(lines)) + 1


def test_vcd_hierarchical_scopes(tmp_path):
    path = tmp_path / "trace.vcd"
    model = MuxReg(8, 4).elaborate()
    with VCDWriter(str(path)) as vcd:
        sim = SimulationTool(model, vcd=vcd)
        sim.cycle()
    text = path.read_text()
    assert text.count("$scope module") == 3     # top + reg_ + mux
    assert text.count("$upscope") == 3


def test_vcd_declares_each_signal_once(tmp_path):
    path = tmp_path / "trace.vcd"
    model = MeshNetworkStructural(RouterRTL, 4, 64, 16, 2).elaborate()
    with VCDWriter(str(path)) as vcd:
        SimulationTool(model, vcd=vcd).cycle()
    nvars = sum(line.startswith("$var") for line in path.read_text()
                .splitlines())
    assert nvars == len(model._all_signals) == len(
        {id(sig) for sig in model._all_signals})


# -- linter -------------------------------------------------------------------------


def test_lint_clean_design():
    warnings = lint(MuxReg(8, 4).elaborate())
    assert warnings == []


def test_lint_undriven_output():
    class Bad(Model):
        def __init__(s):
            s.out = OutPort(8)

    warnings = lint(Bad().elaborate())
    assert any(w.check == "undriven-output" for w in warnings)


def test_lint_multiple_drivers():
    class Bad(Model):
        def __init__(s):
            s.a = InPort(8)
            s.out = OutPort(8)

            @s.combinational
            def one():
                s.out.value = s.a.value

            @s.combinational
            def two():
                s.out.value = s.a + 1

    warnings = lint(Bad().elaborate())
    assert any(w.check == "multiple-drivers" for w in warnings)


def test_lint_reports_each_port_once_against_its_owner():
    class Child(Model):
        def __init__(s):
            s.in_ = InPort(4)
            s.out = OutPort(4)
            s.spare = OutPort(4)

            @s.combinational
            def logic():
                s.out.value = s.in_.value

    class Top(Model):
        def __init__(s):
            s.in_ = InPort(4)
            s.out = OutPort(4)
            s.dangling = OutPort(4)
            s.m = Child()
            s.connect(s.in_, s.m.in_)
            s.connect(s.out, s.m.out)

    undriven = [str(w) for w in lint(Top().elaborate())
                if w.check == "undriven-output"]
    # Once, and a child's unconnected port is not the top's.
    assert undriven == [
        "[undriven-output] top: output port 'dangling' has no driver"]


def test_lint_warning_str():
    class Bad(Model):
        def __init__(s):
            s.out = OutPort(8)

    warning = lint(Bad().elaborate())[0]
    assert "undriven-output" in str(warning)


# -- visualization ------------------------------------------------------------------


def test_hierarchy_tree():
    tree = hierarchy_tree(MuxReg(8, 4).elaborate())
    assert "MuxReg" in tree
    assert "Register" in tree
    assert "Mux" in tree
    assert "level=rtl" in tree


def test_design_stats():
    stats = design_stats(
        MeshNetworkStructural(RouterRTL, 4, 64, 16, 2).elaborate())
    assert stats["models"] == 1 + 4 + 4 * 5      # mesh + routers + queues
    assert stats["tick_blocks_rtl"] > 0
    assert stats["nets"] > 0
    assert stats["state_bits"] > 0


def test_design_stats_counts_observed_signals_once():
    class Observing(Model):
        def __init__(s):
            s.a = InPort(8)
            s.o = OutPort(8)
            s.w = Wire(8)
            s.observe(s.w, s.a)
            s.connect(s.a, s.w)
            s.connect(s.w, s.o)

    stats = design_stats(Observing().elaborate())
    assert stats["signals"] == 5            # clk, reset, a, o, w
    assert stats["nets"] == 3 and stats["state_bits"] == 1 + 1 + 8


def test_connectivity_report():
    report = connectivity_report(MuxReg(8, 4).elaborate())
    assert "sel" in report
    assert "mux.sel" in report


def test_connectivity_report_marks_unconnected():
    class Dangling(Model):
        def __init__(s):
            s.in_ = InPort(4)
            s.out = OutPort(4)
            s.connect(s.in_, s.out)
            s.nc = InPort(1)

    report = connectivity_report(Dangling().elaborate())
    assert "(unconnected)" in report


# -- never-observed sinks -----------------------------------------------------


def test_lint_never_observed_sink():
    class Dead(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.debug = Wire(8)            # written, never read

            @s.combinational
            def comb():
                s.out.value = s.in_.value
                s.debug.value = s.in_ + 1

    warnings = lint(Dead().elaborate())
    hits = [w for w in warnings if w.check == "never-observed-sink"]
    assert len(hits) == 1
    assert "'debug'" in hits[0].message
    assert "never" in hits[0].message


def test_lint_read_wire_is_not_a_sink():
    class Chained(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.mid = Wire(8)

            @s.combinational
            def stage1():
                s.mid.value = s.in_ + 1

            @s.combinational
            def stage2():
                s.out.value = s.mid.value

    warnings = lint(Chained().elaborate())
    assert not [w for w in warnings
                if w.check == "never-observed-sink"]


def test_lint_observe_registration_clears_sink():
    class Instrumented(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.debug = Wire(8)
            s.observe(s.debug)           # observatory consumer

            @s.combinational
            def comb():
                s.out.value = s.in_.value
                s.debug.value = s.in_ + 1

    warnings = lint(Instrumented().elaborate())
    assert not [w for w in warnings
                if w.check == "never-observed-sink"]


def test_lint_connected_wire_is_not_a_sink():
    class Bridged(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.mid = Wire(8)
            s.connect(s.mid, s.out)      # net reaches a port

            @s.combinational
            def comb():
                s.mid.value = s.in_ + 1

    warnings = lint(Bridged().elaborate())
    assert not [w for w in warnings
                if w.check == "never-observed-sink"]


def test_lint_wire_list_sinks_flagged_once_per_net():
    class DeadList(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.scratch = [Wire(8) for _ in range(3)]

            @s.combinational
            def comb():
                s.out.value = s.in_.value
                for i in range(3):
                    s.scratch[i].value = s.in_ + i

    warnings = lint(DeadList().elaborate())
    hits = [w for w in warnings if w.check == "never-observed-sink"]
    assert len(hits) == 3


def test_lint_opaque_fl_model_is_conservative():
    class Opaque(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.maybe = Wire(8)

            @s.combinational
            def comb():
                s.out.value = s.in_.value
                s.maybe.value = s.in_ + 1

            @s.tick_fl
            def fl():
                # Untranslatable: dynamic attribute access defeats the
                # read-set analysis, so the model must be treated as
                # possibly reading everything.
                getattr(s, "maybe")

    warnings = lint(Opaque().elaborate())
    assert not [w for w in warnings
                if w.check == "never-observed-sink"]


def test_lint_cache_rtl_has_no_sinks():
    """Regression: CacheRTL's debug-only req_type latch is covered by
    its s.observe(...) registration."""
    from repro.mem import CacheRTL, MemMsg

    msg = MemMsg()
    cache = CacheRTL(msg, msg, nlines=8, assoc=2)
    warnings = lint(cache.elaborate())
    assert not [w for w in warnings
                if w.check == "never-observed-sink"]
