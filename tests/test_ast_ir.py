"""Unit tests for the behavioral-block IR and subset enforcement."""

import pytest

from repro.core import InPort, Model, OutPort, Wire
from repro.core.ast_ir import (
    AssignSig,
    BinOp,
    Const,
    For,
    If,
    SigRead,
    TranslationError,
    lower,
)


def _lower(model, kind="comb", index=0):
    model.elaborate()
    blocks = model.get_comb_blocks() if kind == "comb" \
        else model.get_tick_blocks()
    return lower(blocks[index])


# -- basic lowering ------------------------------------------------------------


def test_simple_assign_lowered():
    class M(Model):
        def __init__(s):
            s.a = InPort(8)
            s.out = OutPort(8)

            @s.combinational
            def logic():
                s.out.value = s.a + 1

    ir = _lower(M())
    assert len(ir.body) == 1
    stmt = ir.body[0]
    assert isinstance(stmt, AssignSig)
    assert not stmt.is_next
    assert isinstance(stmt.expr, BinOp)
    assert stmt.expr.op == "+"


class _Incr(Model):
    def __init__(s):
        s.a = InPort(8)
        s.b = OutPort(8)


_incr = _Incr()


@_incr.combinational
def _incr_logic():
    _incr.b.value = _incr.a.value + 1


def test_block_naming_model_through_global_lowered():
    # The elaborator and the translator agree on which names denote
    # the model: a module global counts as much as a closure cell.
    ir = _lower(_incr)
    blk, = _incr.get_comb_blocks()
    assert [sig.name for sig in blk.reads] == ["a"]
    assert [sig.name for sig in blk.writes] == ["b"] and blk.writes_known
    stmt, = ir.body
    assert isinstance(stmt, AssignSig) and stmt.ref.signal is _incr.b
    assert [ref.signal for ref in ir.sig_reads] == [_incr.a]


def test_constants_fold_in_rtl_blocks():
    class M(Model):
        def __init__(s):
            s.out = OutPort(8)
            s.offset = 5                # elaboration-time constant

            @s.combinational
            def logic():
                s.out.value = s.offset + 1

    ir = _lower(M())
    expr = ir.body[0].expr
    assert isinstance(expr.left, Const)
    assert expr.left.value == 5


def test_for_loop_with_static_bounds():
    class M(Model):
        def __init__(s, n=4):
            s.out = [OutPort(8) for _ in range(n)]
            s.n = n

            @s.combinational
            def logic():
                for i in range(s.n):
                    s.out[i].value = i

    ir = _lower(M())
    loop = ir.body[0]
    assert isinstance(loop, For)
    assert (loop.start, loop.stop, loop.step) == (0, 4, 1)


def test_dynamic_index_becomes_dynamic_sigref():
    class M(Model):
        def __init__(s):
            s.sel = InPort(2)
            s.regs = [Wire(8) for _ in range(4)]
            s.out = OutPort(8)

            @s.combinational
            def logic():
                s.out.value = s.regs[s.sel.uint()].value

    ir = _lower(M())
    read = ir.body[0].expr
    assert isinstance(read, SigRead)
    assert read.ref.is_dynamic()
    assert len(read.ref.signals) == 4


def test_struct_field_becomes_slice():
    from repro.mem import MemReqMsg

    class M(Model):
        def __init__(s):
            s.msg = InPort(MemReqMsg)
            s.addr = OutPort(32)

            @s.combinational
            def logic():
                s.addr.value = s.msg.addr.value

    ir = _lower(M())
    ref = ir.body[0].expr.ref
    assert (ref.lo, ref.hi) == MemReqMsg.field_slice("addr")


def test_bare_signal_truthiness_reads_signal():
    class M(Model):
        def __init__(s):
            s.en = InPort(1)
            s.out = OutPort(1)

            @s.combinational
            def logic():
                if s.en:
                    s.out.value = 1
                else:
                    s.out.value = 0

    ir = _lower(M())
    cond = ir.body[0].cond
    assert isinstance(cond, SigRead)


# -- subset enforcement ------------------------------------------------------------


def _expect_error(model_cls, match, kind="comb"):
    with pytest.raises(TranslationError, match=match):
        _lower(model_cls(), kind=kind)


def test_method_call_rejected():
    class M(Model):
        def helper(s):
            return 1

        def __init__(s):
            s.out = OutPort(8)

            @s.combinational
            def logic():
                s.out.value = s.helper()

    _expect_error(M, "calls")


def test_value_write_in_tick_rejected():
    class M(Model):
        def __init__(s):
            s.out = OutPort(8)

            @s.tick_rtl
            def logic():
                s.out.value = 1

    _expect_error(M, "tick block", kind="tick")


def test_next_write_in_comb_rejected():
    class M(Model):
        def __init__(s):
            s.out = OutPort(8)

            @s.combinational
            def logic():
                s.out.next = 1

    _expect_error(M, "combinational")


def test_plain_state_write_in_rtl_rejected():
    class M(Model):
        def __init__(s):
            s.count = 0
            s.out = OutPort(8)

            @s.tick_rtl
            def logic():
                s.count = s.count + 1
                s.out.next = 0

    _expect_error(M, "CL blocks|Wire", kind="tick")


def test_plain_state_allowed_in_cl():
    class M(Model):
        def __init__(s):
            s.count = 0
            s.out = OutPort(8)

            @s.tick_cl
            def logic():
                s.count = s.count + 1
                s.out.next = s.count

    ir = _lower(M(), kind="tick")
    assert "count" in {ref.name for ref in ir.state_names}


def test_dynamic_range_rejected():
    class M(Model):
        def __init__(s):
            s.n = InPort(4)
            s.out = OutPort(8)

            @s.combinational
            def logic():
                total = 0
                for i in range(s.n.uint()):
                    total = total + i
                s.out.value = total

    _expect_error(M, "constant")


def test_unknown_name_rejected():
    class M(Model):
        def __init__(s):
            s.out = OutPort(8)

            @s.combinational
            def logic():
                s.out.value = undefined_name    # noqa: F821

    _expect_error(M, "unknown name")


def test_error_message_names_model_and_line():
    class M(Model):
        def __init__(s):
            s.out = OutPort(8)

            @s.combinational
            def logic():
                s.out.value = s.missing_thing

    with pytest.raises(TranslationError, match="top.logic"):
        _lower(M())


def test_float_constant_rejected():
    class M(Model):
        def __init__(s):
            s.out = OutPort(8)

            @s.combinational
            def logic():
                s.out.value = 1.5

    _expect_error(M, "constant")


def test_local_array_init_and_store():
    class M(Model):
        def __init__(s):
            s.out = OutPort(8)

            @s.combinational
            def logic():
                xs = [0] * 4
                for i in range(4):
                    xs[i] = i * 2
                s.out.value = xs[3]

    ir = _lower(M())
    assert ir.locals["xs"] == ("array", 4)


# -- lower(blk): the one entry point, kind taken from the block -------------------


class _EveryLevel(Model):
    def __init__(s):
        s.a = InPort(8)
        s.out = OutPort(8)
        s.r = Wire(8)
        s.count = 0

        @s.combinational
        def comb():
            s.out.value = s.r + 1

        @s.tick_rtl
        def rtl():
            s.r.next = s.a.value

        @s.tick_cl
        def cl():
            s.count = s.count + 1

        @s.tick_fl
        def fl():
            s.count = s.count + 2


@pytest.mark.parametrize("name, kind", [
    ("comb", "comb"), ("rtl", "tick_rtl"), ("cl", "tick_cl"),
    ("fl", "tick_cl")])
def test_lower_takes_the_ir_kind_from_the_block(name, kind):
    from repro.core.ast_ir import BlockTranslator

    model = _EveryLevel().elaborate()
    blk, = [b for b in model.get_comb_blocks() + model.get_tick_blocks()
            if b.func.__name__ == name]
    ir = lower(blk)
    assert ir.kind == kind and ir.body
    assert ir == BlockTranslator(model, blk.func, kind).translate()


def test_lint_lowers_each_block_once(monkeypatch):
    from repro.core.ast_ir import BlockTranslator
    from repro.tools import lint

    lowered = []
    translate = BlockTranslator.translate
    monkeypatch.setattr(
        BlockTranslator, "translate",
        lambda self: lowered.append(self.func) or translate(self))
    model = _EveryLevel().elaborate()
    lint(model)
    assert sorted(f.__name__ for f in lowered) == [
        "cl", "comb", "fl", "rtl"]
