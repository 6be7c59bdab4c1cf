"""Value ranges in the IR and the C they let SimJIT print.

The typer's range pass (``repro.core.ast_ir._Spans``) bounds every int
expression of a ``Bits``-exact body; ``cgen`` prints a ``//`` / ``%``
whose operands it places in ``[0, 2**63)`` as C's ``/`` / ``%``, and
an ``and`` / ``or`` none of whose later operands can fault as ``&`` /
``|``.  These are the pinned cases: the spans' arithmetic, the mesh
router's arbitration, guards that must keep C's short circuit, a
constant hole the facts read (a guard of the body), loops that widen,
and the named refusal of CL state ``int64_t`` cannot hold.  The
generated cases are in ``test_generated_blocks.py``.
"""

import linecache
import re

import pytest

from repro import InPort, Model, OutPort, SimulationTool
from repro.core import bodies
from repro.core.ast_ir import ANY, Span, TranslationError, _arith
from repro.core.simjit import JITModel, SimJITCL, SimJITRTL, auto_specialize
from repro.net import MeshNetworkStructural, RouterRTL


@pytest.mark.parametrize("op, left, right, want", [
    ("+", Span(0, 8), Span(0, 5), Span(0, 12)),
    ("-", Span(0, 8), Span(1, 2), Span(-1, 7)),
    ("*", Span(-2, 3), Span(0, 4), Span(-6, 7)),
    ("%", Span(0, 12), Span(5, 6), Span(0, 5)),
    ("%", Span(-7, 3), Span(5, 6), Span(0, 5)),
    ("%", Span(0, 8), Span(-5, -4), ANY),
    ("//", Span(0, 16), Span(2, 3), Span(0, 8)),
    ("//", Span(-1, 16), Span(2, 3), ANY),
    ("&", ANY, Span(3, 4), Span(0, 4)),
    ("&", Span(-4, 0), Span(-1, 0), ANY),
    ("|", Span(0, 5), Span(0, 9), Span(0, 16)),
    (">>", Span(0, 1 << 44), Span(42, 43), Span(0, 4)),
    ("<<", Span(1, 2), Span(0, 1 << 64), Span(1, None)),
])
def test_spans_bound_python_arithmetic(op, left, right, want):
    assert _arith(op, left, right) == want


def _mesh4_c():
    spec = SimJITRTL(MeshNetworkStructural(RouterRTL, 4, 256, 32, 2)
                     .elaborate())
    spec.specialize()
    return spec.c_source


def _function(c_source, name):
    """The text of the first C function whose name ends in ``name``."""
    return re.search(rf"static void \w*_{name}\(.*?\n}}\n", c_source,
                     re.S)[0]


def test_the_router_arbitrates_in_native_c():
    """The mesh router's hot bodies: every ``%`` / ``//`` is C's, and
    the round-robin condition is one branch-free ``&`` chain.  The hold
    loop's ``claimed[i]`` indexes five entries by a 3-bit read, which
    the spans cannot place inside: that ``and`` keeps ``&&``."""
    c_source = _mesh4_c()
    for name in ("switch_logic", "priority_logic"):
        text = _function(c_source, name)
        assert "py_mod(" not in text and "py_floordiv(" not in text, text
    switch = _function(c_source, "switch_logic").splitlines()
    round_robin = [line for line in switch
                   if "l_choice) < " in line and "l_claimed" in line]
    hold = [line for line in switch if "l_claimed[(int)(l_i)]) ==" in line
            and "l_choice" not in line]
    assert len(round_robin) == len(hold) == 1, switch
    assert "&&" not in round_robin[0] and round_robin[0].count(" & ") == 3
    assert hold[0].count("&&") == 2


class _Guards(Model):
    """Later operands that fault unless the earlier ones say not to:
    a zero divisor, an index past ``xs``; and one that cannot."""

    def __init__(s):
        s.n, s.d, s.i = InPort(8), InPort(8), InPort(8)
        s.out = OutPort(3)

        @s.combinational
        def logic():
            xs = [0] * 4
            xs[s.n.uint() & 3] = 1
            q = 0
            if s.d.uint() != 0 and s.n.uint() % s.d.uint() == 0:
                q = 1
            if s.i.uint() >= 4 or xs[s.i.uint()] == 1:
                q = q + 2
            if s.d.uint() and xs[s.i.uint() & 3]:
                q = q + 4
            s.out.value = q


def _sweep(models, sims, inputs):
    for sim in sims:
        sim.reset()
    for values in inputs:
        for model in models:
            for name, value in values.items():
                getattr(model, name).value = value
        for sim in sims:
            sim.cycle()
        assert int(models[1].out) == int(models[0].out), values


def test_a_guarded_operand_keeps_the_short_circuit():
    """``d != 0 and n % d == 0`` run with ``d == 0``, ``i >= 4 or
    xs[i]`` with ``i`` past the array: C evaluates the later operand
    only where Python does, and agrees with the event column."""
    models = [_Guards().elaborate()]
    spec = SimJITRTL(_Guards().elaborate())
    models.append(spec.specialize().elaborate())
    text = _function(spec.c_source, "logic")
    ifs = [line for line in text.splitlines() if line.lstrip()
           .startswith("if ")]
    assert ["&&" in line or "||" in line for line in ifs] == [
        True, True, False]
    # ``n % d`` is C's (both non-negative): the && keeps d == 0 out.
    assert " & " in ifs[2] and "py_mod(" not in text
    sims = [SimulationTool(models[0], sched="event"),
            SimulationTool(models[1])]
    _sweep(models, sims, [dict(n=n, d=d, i=i) for n in (0, 6, 7)
                          for d in (0, 3) for i in (0, 2, 3, 200)])


class _ModK(Model):
    def __init__(s, m):
        s.a = InPort(8)
        s.out = OutPort(8)
        s.m = m

        @s.combinational
        def logic():
            s.out.value = s.a.uint() % s.m


class _TwoModK(Model):
    def __init__(s, ma, mb):
        s.a = InPort(8)
        s.out, s.out_b = OutPort(8), OutPort(8)
        s.x, s.y = _ModK(ma), _ModK(mb)
        for sub in (s.x, s.y):
            s.connect(s.a, sub.a)
        s.connect(s.x.out, s.out)
        s.connect(s.y.out, s.out_b)


def test_a_constant_the_facts_read_is_a_guard():
    """``a % s.m``: ``m`` is a constant hole, and the fact that the
    ``%`` is C's reads its class, ``0 <= m < 2**63``.  A sibling with
    ``m`` outside it is a second body (``-5`` keeps ``py_mod``); one
    inside it shares, ``m`` a per-instance constant."""
    split = _TwoModK(5, -5).elaborate()
    blocks = [sub.get_comb_blocks()[0] for sub in (split.x, split.y)]
    assert bodies.body_of(blocks[0])[0] is not bodies.body_of(blocks[1])[0]
    spec = SimJITRTL(_TwoModK(5, -5).elaborate())
    jit = spec.specialize().elaborate()
    assert "py_mod(" in spec.c_source
    assert re.search(r"\(int64_t\)\(\(5LL\)\)\)", spec.c_source)
    ref = _TwoModK(5, -5).elaborate()
    sims = [SimulationTool(ref, sched="event"), SimulationTool(jit)]
    for sim in sims:
        sim.reset()
    for a in (0, 3, 9, 255):
        for model in (ref, jit):
            model.a.value = a
        for sim in sims:
            sim.cycle()
        assert (int(jit.out), int(jit.out_b)) == (int(ref.out),
                                                  int(ref.out_b))
    same = _TwoModK(5, 7).elaborate()
    assert bodies.body_of(same.x.get_comb_blocks()[0])[0] is \
        bodies.body_of(same.y.get_comb_blocks()[0])[0]
    spec = SimJITRTL(_TwoModK(5, 7).elaborate())
    spec.specialize()
    assert spec.kernel_info["functions"] == 1
    assert "py_mod(" not in _function(spec.c_source, "logic")


class _Loops(Model):
    def __init__(s):
        s.a = InPort(8)
        s.up, s.down, s.idx = OutPort(8), OutPort(8), OutPort(8)

        @s.combinational
        def logic():
            up = s.a.uint()
            down = s.a.uint()
            idx = 0
            for i in range(6):
                up = up + i
                down = down - 1
                idx = idx + i % 4
            s.up.value = up % 7
            s.down.value = down % 7
            s.idx.value = idx


def test_a_loop_widens_what_it_grows():
    """The loop head's fixpoint, one walk per trip of the six: ``up``
    only grows, to less than ``255 + 15`` (C's ``%``), ``down`` may go
    negative (``py_mod``), and ``i % 4`` of a loop variable in ``[0,
    6)`` is C's."""
    spec = SimJITRTL(_Loops().elaborate())
    jit = spec.specialize().elaborate()
    text = _function(spec.c_source, "logic")
    assert text.count("py_mod(") == 1
    assert "((int64_t)(l_up) % (int64_t)((7LL)))" in text
    assert "((int64_t)(l_i) % (int64_t)((4LL)))" in text
    ref = _Loops().elaborate()
    sims = [SimulationTool(ref, sched="event"), SimulationTool(jit)]
    for sim in sims:
        sim.reset()
    for a in (0, 1, 2, 200, 255):
        for model in (ref, jit):
            model.a.value = a
        for sim in sims:
            sim.cycle()
        assert [int(jit.up), int(jit.down), int(jit.idx)] == [
            int(ref.up), int(ref.down), int(ref.idx)]


class _LoopVars(Model):
    """A body that assigns its loop variable, and reads of loop
    variables after their loops."""

    def __init__(s):
        s.a = InPort(8)
        s.trips, s.after, s.last = OutPort(8), OutPort(8), OutPort(8)

        @s.combinational
        def logic():
            n = 0
            for i in range(4):
                n = n + 1
                i = 7
            s.trips.value = n
            m = s.a.uint() & 3
            for j in range(4):
                m = m + 1
            s.after.value = m + j
            for k in range(0, 10, 3):
                m = m + k
            s.last.value = k % 4


def test_loop_variables_follow_python_in_c():
    """C loops over a hidden counter: a body that assigns its loop
    variable still runs every trip, and after the loop the variable
    holds its last value, not the bound; the range pass then bounds it
    (``k % 4`` of ``k`` in ``[0, 10)`` is C's ``%``)."""
    ref = _LoopVars().elaborate()
    spec = SimJITRTL(_LoopVars().elaborate())
    jit = spec.specialize().elaborate()
    sims = [SimulationTool(ref, sched="event"), SimulationTool(jit)]
    for sim in sims:
        sim.reset()
    for a in (0, 1, 3, 255):
        for model in (ref, jit):
            model.a.value = a
        for sim in sims:
            sim.cycle()
        want = [4, (a & 3) + 4 + 3, 9 % 4]
        assert [int(ref.trips), int(ref.after), int(ref.last)] == want
        assert [int(jit.trips), int(jit.after), int(jit.last)] == want
    assert "py_mod(" not in _function(spec.c_source, "logic")


class _NestedLoops(Model):
    def __init__(s):
        s.o = OutPort(8)

        @s.combinational
        def logic():
            n = 0
            for i in range(2):
                for j in range(3):
                    n = n + i + j
            s.o.value = n


def test_loop_variables_follow_python_in_verilog():
    """The emitted Verilog loops as C does: over a hidden ``integer``
    counter per nesting depth, the loop variable assigned at the top of
    each trip, so a body that assigns it (``i = 7``) still runs four
    trips, and a read after the loop (``m + j``, ``k % 4``) sees the
    last value, not the bound."""
    from repro.core.translation import TranslationTool
    text = TranslationTool(_LoopVars().elaborate()).verilog
    heads = re.findall(r"for \((\w+) = (\d+); (\w+) < (\d+); "
                       r"(\w+) = (\w+) \+ (\d+)\) begin\n\s*(\w+) = (\w+);",
                       text)
    assert [(h[1], h[3], h[6], h[7]) for h in heads] == [
        ("0", "4", "1", "i"), ("0", "4", "1", "j"), ("0", "10", "3", "k")]
    # one counter tested, stepped and assigned to the variable
    assert all(len({h[0], h[2], h[4], h[5], h[8]}) == 1 for h in heads)
    counter = heads[0][0]
    assert counter not in ("i", "j", "k")
    assert re.search(rf"^  integer {counter};$", text, re.M)
    assert re.search(r"^\s*i = 7;$", text, re.M)
    assert "(m + j)" in text and "(k % 4)" in text
    text = TranslationTool(_NestedLoops().elaborate()).verilog
    outer, inner = re.findall(r"for \((\w+) = 0;", text)
    assert outer != inner
    assert f"i = {outer};" in text and f"j = {inner};" in text


class _WideAcc(Model):
    """CL state that starts past ``int64_t``; only its low byte is
    read."""

    def __init__(s):
        s.out = OutPort(8)
        s.acc = (1 << 63) | 5

        @s.tick_cl
        def tick():
            s.out.next = s.acc & 0xFF


def test_cl_state_too_wide_for_int64_is_a_named_refusal():
    """SimJIT-CL names the state variable; ``auto_specialize`` leaves
    the model interpreted, says why, and the output reads 5."""
    with pytest.raises(TranslationError, match="CL state 'acc' starts at"):
        SimJITCL(_WideAcc().elaborate()).specialize()
    top = auto_specialize(_WideAcc())
    assert not isinstance(top, JITModel)
    sim = SimulationTool(top.elaborate())
    sim.reset()
    sim.cycle()
    assert int(top.out) == 5
    why = sim.sched_info()["simjit"]["interpreted"]["top"]
    assert why.startswith("top.tick: CL state 'acc' starts at"), why


class _Stores(Model):
    def __init__(s):
        s.a, s.b = InPort(8), InPort(8)
        s.fit, s.grow, s.hit = OutPort(9), OutPort(8), OutPort(1)

        @s.combinational
        def blk():
            s.fit.value = s.a.uint() + s.b.uint()
            s.grow.value = s.a.uint() + s.b.uint()
            x = s.a.uint() == s.b.uint()
            s.hit.value = x & (s.a.uint() < 100)


def test_the_lowered_python_masks_a_write_unless_it_fits():
    """The range pass alone decides a signal write's mask on the CPython
    rung: a 9-bit sum into 9 bits is stored as it is, into 8 bits it is
    masked, and so is a comparison, through a local and ``&``, so the
    net holds the int a closure stores (``1``, not ``True``)."""
    models = [_Stores().elaborate() for _ in range(2)]
    sims = [SimulationTool(models[0], sched="event"),
            SimulationTool(models[1], sched="static")]
    func, = sims[1]._static_order
    stores = [line.strip() for line in linecache.getlines(
        func.__code__.co_filename) if line.strip().startswith("_v = ")]
    assert [line.endswith(mask) for line, mask in zip(
        stores, ("_h1._value)", "& 0xff", "& 0x1"))] == [True] * 3, stores
    for a, b in ((200, 100), (7, 7)):
        for model in models:
            model.a.value, model.b.value = a, b
        for sim in sims:
            sim.cycle()
        for model in models:
            assert [model.fit.uint(), model.grow.uint(), model.hit.uint()] \
                == [a + b, (a + b) & 0xFF, int(a == b < 100)]
            assert type(model.hit.uint()) is int
