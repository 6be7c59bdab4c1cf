"""Unit tests for the behavioral-block IR and subset enforcement."""

import pytest

from repro.core import InPort, Model, OutPort, Wire
from repro.core import bodies
from repro.core.ast_ir import (
    AssignSig,
    BinOp,
    BlockTranslator,
    Const,
    For,
    If,
    SigRead,
    TranslationError,
    block_kind,
)


def _lower(model, kind="comb", index=0):
    model.elaborate()
    blocks = model.get_comb_blocks() if kind == "comb" \
        else model.get_tick_blocks()
    blk = blocks[index]
    return BlockTranslator(blk.model, blk.func, block_kind(blk)).translate()


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
    # A module global denotes the model as much as a closure cell does,
    # and the body the simulator schedules by reads through it.
    from repro.core.bodies import body_of, signals

    ir = _lower(_incr)
    blk, = _incr.get_comb_blocks()
    body, holes = body_of(blk)
    assert [sig.name for sig in signals(holes, body.reads)] == ["a"]
    assert [sig.name for sig in signals(holes, body.writes)] == ["b"]
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


# -- bodies.lowered(blk): the one entry point, kind taken from the block ----------


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
    model = _EveryLevel().elaborate()
    blk, = [b for b in model.get_comb_blocks() + model.get_tick_blocks()
            if b.func.__name__ == name]
    _, _, ir, _ = bodies.lowered(blk, {})
    assert ir.kind == kind and ir.body
    assert ir == BlockTranslator(model, blk.func, kind).translate()


def test_lint_lowers_each_block_once(monkeypatch):
    from repro.tools import lint

    lowered = []
    translate = BlockTranslator.translate
    monkeypatch.setattr(bodies, "_bodies", {})   # from an empty cache
    monkeypatch.setattr(
        BlockTranslator, "translate",
        lambda self: lowered.append(self.func) or translate(self))
    model = _EveryLevel().elaborate()
    lint(model)
    assert sorted(f.__name__ for f in lowered) == [
        "cl", "comb", "fl", "rtl"]


# -- the output dependence ------------------------------------------------------


class _Outputs(Model):
    """One comb block whose outputs need different reads: through a
    condition, a write read back (whole and by slice), a loop a
    ``break`` under a condition cuts short and a local array."""

    def __init__(s):
        s.a, s.b, s.c, s.d, s.e = (InPort(4) for _ in range(5))
        s.tbl = [InPort(4) for _ in range(4)]
        s.x, s.y, s.z, s.w, s.v = (OutPort(8) for _ in range(5))

        @s.combinational
        def logic():
            if s.c:
                s.x.value = s.a
            else:
                s.x.value = s.b
            s.y.value = s.x + 1
            t = 0
            for k in range(4):
                if s.tbl[k] == s.d:
                    break
                t = t + 1
            s.z.value = t
            s.w[0:4].value = s.a
            s.w[4:8].value = s.w[0:4]
            xs = [0] * 2
            xs[s.e[0:1].uint()] = s.b
            s.v.value = xs[0]


def test_each_output_needs_its_own_reads():
    """``Body.deps`` bound to nets (``scheduling.comb_output_nets``):
    a condition's reads, what a write read back needs (its own net is
    the self-write rule's), a loop's ``break`` condition for what the
    loop computes, and every store of a local array."""
    from repro.core.scheduling import comb_output_nets
    model = _Outputs().elaborate()
    blk, = model.get_comb_blocks()
    body, holes = bodies.body_of(blk)
    name = {id(sig._net.find()): sig.name for sig in model.get_signals()}
    needs = {name[id(net)]: sorted(name[id(r)] for r in reads)
             for _, (net,), reads in comb_output_nets(
                 bodies.outputs(body, holes))}
    assert needs == {
        "x": ["a", "b", "c"], "y": ["a", "b", "c"],
        "z": ["d", *(f"tbl[{i}]" for i in range(4))],
        "w": ["a"], "v": ["b", "e"]}
    assert body.spelled[body.writes[0]] == "x"
