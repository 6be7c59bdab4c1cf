"""Lowered blocks (``repro.core.pygen``): what the static schedule
holds on the CPython rung, that it computes what the user's closures
compute, and that one lowering serves the instances it may serve.

The generated-design properties are in ``test_generated_blocks.py``;
these are the pinned cases: the ``Bits`` gap (a 9-bit sum of two 8-bit
signals), ``.int()``, ``and`` / ``or`` as a value, every refusal, body
sharing between siblings, stats and profiles keyed by block, which
loops print unrolled, the write shapes, and what a traceback shows."""

import gc
import linecache
import re
import traceback
import weakref

import pytest

from repro import SimulationTool
from repro.accel.tile import Tile
from repro.core import ast_ir, bodies
from repro.core.adapters import BlockingTickRunner
from repro.core.ast_ir import TranslationError
from repro.core.simjit import SimJITRTL, auto_specialize
from repro.net import MeshNetworkStructural, RouterRTL
from repro.net.traffic import NetworkTrafficHarness
from tests.test_scheduling import load_generated


def _design(body, decls=()):
    """A one-block model: 8-bit ``a``/``b``, 5-bit ``c``, 16-bit
    ``o``/``p``, plus ``decls``; ``body`` is the block's lines."""
    pad = "\n            "
    source = f"""
from repro import *
from repro.core.bits import concat, sext, zext


class D(Model):
    def __init__(s):
        s.a, s.b, s.c = InPort(8), InPort(8), InPort(5)
        s.o, s.p = OutPort(16), OutPort(16)
        {(pad[:-4]).join(decls)}

        @s.combinational
        def blk():
            {pad.join(body)}
"""
    return load_generated(source)["D"]


def _columns(build, jit=False):
    """event (the reference: the user's closures), static with
    ``collect_stats`` (lowered, every block wrapped in its counter),
    static (lowered) — and SimJIT on request."""
    models = [build().elaborate() for _ in range(3)]
    sims = [SimulationTool(models[0], sched="event"),
            SimulationTool(models[1], sched="static", collect_stats=True),
            SimulationTool(models[2], sched="static")]
    if jit:
        models.append(SimJITRTL(build().elaborate()).specialize().elaborate())
        sims.append(SimulationTool(models[3]))
    return models, sims


def _drive(models, sims, **values):
    for model in models:
        for name, value in values.items():
            getattr(model, name).value = value
    for sim in sims:
        sim.cycle()


def _lowered(sim):
    return sim.sched_info()["lowered"]


# -- the Bits gap ----------------------------------------------------------------


def test_nine_bit_sum_of_eight_bit_signals_wraps_where_bits_does():
    """``Bits._binop`` wraps at the operands' width; an IR that
    computes wide reads 300."""
    D = _design(["s.o9.value = s.a + s.b", "s.o.value = s.a.uint() + s.b.uint()",
                 "s.p.value = 0"], decls=["s.o9 = OutPort(9)"])
    models, sims = _columns(D)
    assert _lowered(sims[2]) == {"blocks": 1, "bodies": 1, "kept": {}}
    _drive(models, sims, a=200, b=100)
    assert [int(m.o9) for m in models] == [44, 44, 44]
    assert [int(m.o) for m in models] == [300, 300, 300]


@pytest.mark.parametrize("body, expect", [
    # mixed widths: the wider operand decides, an int is masked first
    (["s.o.value = s.a + s.c", "s.p.value = (s.c + s.a) * 2"],
     [(200 + 31) & 0xFF, ((200 + 31) * 2) & 0xFF]),
    (["s.o.value = s.a.value - 300", "s.p.value = 300 - s.a.value"],
     [(200 - 300) & 0xFF, (300 - 200) & 0xFF]),
    (["s.o.value = s.a.value // 300", "s.p.value = s.a.value % 300"],
     [200 // (300 & 0xFF), 200 % (300 & 0xFF)]),
    # << keeps the left width and is 0 from the width on
    (["s.o.value = s.a << 3", "s.p.value = s.a.value << s.c"],
     [(200 << 3) & 0xFF, 0]),
    (["s.o.value = ~s.c", "s.p.value = -s.c.value"],
     [31 ^ 0x1F, -31 & 0x1F]),
    # a Bits-typed local carries its width
    (["x = s.a + s.b", "s.o.value = x + 256", "s.p.value = x >> 1"],
     [44, 22]),
    (["x = s.a[2:7]", "s.o.value = x + 31", "s.p.value = (x + 31) > 31"],
     [(((200 >> 2) & 31) + 31) & 31, 0]),
    # int() / .uint() end the Bits typing, zext / sext / concat set it
    (["s.o.value = int(s.a + s.b) + 256",
      "s.p.value = (s.a + s.b).uint() * 256"], [300, 44 * 256]),
    (["s.o.value = zext(s.a.value, 12) + s.b.value * 40",
      "s.p.value = sext(s.c.value, 9) + 1"],
     [200 + (4000 & 0xFF), (0x1FF + 1) & 0x1FF]),
    (["s.o.value = concat(s.c, s.a) + 1", "s.p.value = concat(s.a, s.c) >> 13"],
     [((31 << 8) | 200) + 1, 0]),
])
def test_bits_arithmetic_is_masked_where_bits_masks(body, expect):
    models, sims = _columns(_design(body))
    assert _lowered(sims[2])["kept"] == {}
    _drive(models, sims, a=200, b=100, c=31)
    for model in models:
        assert [int(model.o), int(model.p)] == expect


@pytest.mark.parametrize("body, reason", [
    # Bits on one path and an int on another, used in arithmetic
    (["x = 0", "if s.c:", "    x = s.a.value", "s.o.value = x + 1"],
     "Bits on one path"),
    (["s.o.value = (s.a.value if s.c else 3) + 1"], "Bits on one path"),
    (["x = s.a.value", "for i in range(2):", "    s.o.value = x + 256",
      "    x = s.a.uint()"], "Bits on one path"),
    # what raises TypeError in the closure
    (["s.o.value = 1000 // s.a.value if s.b == 999 else 0"], "raises TypeError"),
    (["s.o.value = 1 << s.c if s.b == 999 else 0"], "raises TypeError"),
    (["s.o.value = s.a // 2 if s.b == 999 else 0"], "raises TypeError"),
    (["s.o.value = -s.a if s.b == 999 else 0"], "unary - on a sig"),
    (["xs = [0] * 2", "xs[0] = s.a.value", "s.o.value = xs[0]"],
     "array elements are ints"),
])
def test_undecidable_types_keep_the_closure_and_its_values(body, reason):
    models, sims = _columns(_design(body + ["s.p.value = s.a"]))
    info = _lowered(sims[2])
    assert info["blocks"] == 0 and reason in info["kept"]["top.blk"], info
    # ... and the same function object: the closure, not a copy.
    assert sims[2]._static_order == [models[2].get_comb_blocks()[0].func]
    for a, c in ((200, 0), (255, 31), (7, 1)):
        _drive(models, sims, a=a, b=100, c=c)
        assert len({(int(m.o), int(m.p)) for m in models}) == 1


def test_an_ambiguous_value_is_fine_where_only_its_value_is_used():
    """A comparison, a truth test, an index, a write."""
    body = ["x = 0", "if s.c:", "    x = s.a[0:2].value",
            "s.o.value = x", "s.p.value = (x == 3) and x and s.tbl[x]"]
    models, sims = _columns(
        _design(body, decls=["s.tbl = [Wire(4) for _ in range(4)]"]))
    assert _lowered(sims[2])["kept"] == {}
    for model in models:
        model.tbl[3].value = 11
    _drive(models, sims, a=0xFF, b=0, c=1)
    assert [(int(m.o), int(m.p)) for m in models] == [(3, 11)] * 3


# -- .int() and and/or: every backend --------------------------------------------


def test_int_accessor_is_twos_complement_on_every_substrate():
    """``.int()`` was stripped like ``.uint()``: 0x80 read 128, so
    ``< 0`` was 0 under SimJITRTL (and in the emitted Verilog)."""
    D = _design(["s.o.value = s.a.value.int() < 0",
                 "s.p.value = s.a.value.int() + s.c[1:5].value.int()"])
    models, sims = _columns(D, jit=True)
    assert _lowered(sims[2])["kept"] == {}
    _drive(models, sims, a=0x80, b=0, c=0b10110)
    assert [int(m.o) for m in models] == [1, 1, 1, 1]
    assert [int(m.p) for m in models] == [(-128 - 5) & 0xFFFF] * 4
    _drive(models, sims, a=0x7F, b=0, c=0b00110)
    assert [(int(m.o), int(m.p)) for m in models] == [(0, 127 + 3)] * 4


def test_int_accessor_needs_a_static_width():
    D = _design(["s.o.value = (s.a + s.b).int()", "s.p.value = 0"])
    with pytest.raises(TranslationError, match=r"\.int\(\) is only"):
        SimJITRTL(D().elaborate()).specialize()


def test_and_or_as_a_value_yield_an_operand_on_every_substrate():
    """``BoolOp`` printed ``(x != 0) && (y != 0)`` in every context:
    2 and 3 read 1, 2 or 3 read 1."""
    D = _design(["s.o.value = s.a.uint() and s.b.uint()",
                 "s.p.value = s.a.uint() or s.b.uint() or s.c.uint()"])
    models, sims = _columns(D, jit=True)
    assert _lowered(sims[2])["kept"] == {}
    _drive(models, sims, a=2, b=3, c=0)
    assert [(int(m.o), int(m.p)) for m in models] == [(3, 2)] * 4
    _drive(models, sims, a=0, b=0, c=9)
    assert [(int(m.o), int(m.p)) for m in models] == [(0, 9)] * 4


def test_and_or_over_zero_one_values_stay_the_logical_operators():
    """What keeps the generated C of every design in ``src/`` as it
    was: over 1-bit reads, comparisons, ``not`` and locals only ever
    given such values an ``and`` / ``or`` is ``zero_one`` (the 0/1
    operator); one wide local in the chain and it is not (a select)."""
    D = _design([
        "idle = s.a == 3", "go = idle and s.c[0].value.uint()",
        "wide = s.b.uint()", "x = go or wide",
        "s.o.value = go and not s.c[1]", "s.p.value = x"])
    blk, = D().elaborate().get_comb_blocks()
    _, _, ir, _ = bodies.lowered(blk, {})
    kinds = [type(stmt.expr).__name__ for stmt in ir.body]
    assert kinds == ["Cmp", "BoolOp", "SigRead", "BoolOp", "BoolOp",
                     "LocalRead"]
    assert [stmt.expr.zero_one for stmt in ir.body
            if isinstance(stmt.expr, ast_ir.BoolOp)] == [True, False, True]
    models, sims = _columns(D, jit=True)
    _drive(models, sims, a=3, b=6, c=1)
    assert [(int(m.o), int(m.p)) for m in models] == [(1, 1)] * 4
    _drive(models, sims, a=0, b=6, c=1)
    assert [(int(m.o), int(m.p)) for m in models] == [(0, 6)] * 4


# -- one lowering per body -------------------------------------------------------


def _count_lowerings(monkeypatch):
    calls = []
    translate = ast_ir.BlockTranslator.translate

    def counted(self):
        calls.append(f"{self.model.full_name()}.{self.func.__name__}")
        return translate(self)
    monkeypatch.setattr(ast_ir.BlockTranslator, "translate", counted)
    return calls


def test_mesh64_is_832_blocks_on_five_bodies(monkeypatch):
    # Bodies live as long as the block functions' code objects, which
    # RouterRTL's and NormalQueue's constructors hold: drop what an
    # earlier test lowered, to count from nothing.
    bodies._bodies.clear()
    calls = _count_lowerings(monkeypatch)
    net = MeshNetworkStructural(RouterRTL, 64, 256, 32, 2).elaborate()
    sim = SimulationTool(net)
    assert _lowered(sim) == {"blocks": 832, "bodies": 5, "kept": {}}
    assert len(calls) == 5, calls
    assert "/python " in repr(sim)
    # A second simulator binds; it lowers nothing.
    twin = MeshNetworkStructural(RouterRTL, 64, 256, 32, 2).elaborate()
    ref = SimulationTool(twin, sched="event")
    assert len(calls) == 5
    assert _lowered(ref) == {"blocks": 0, "bodies": 0, "kept": {}}
    runs = [NetworkTrafficHarness(n, sim=s, seed=7).run_uniform_random(
                0.3, 50, drain=0) for n, s in ((net, sim), (twin, ref))]
    assert runs[0] == runs[1] and runs[0].injected > 0
    assert net.line_trace() == twin.line_trace()


_SIBLINGS = """
from repro import *


class Leaf(Model):
    def __init__(s, k, width=8, depth=4, trips=3):
        s.k = k
        s.trips = trips
        s.depth = depth
        s.in_ = InPort(width)
        s.sel = InPort(2)
        s.out = OutPort(16)
        s.tbl = [Wire(width) for _ in range(depth)]

        @s.tick_rtl
        def fill():
            for i in range(s.depth):
                s.tbl[i].next = s.in_ + i

        @s.combinational
        def comb():
            acc = 0
            for i in range(s.trips):
                acc = acc + s.tbl[(s.sel.uint() + i) % len(s.tbl)].uint()
            s.out.value = acc + s.k + (s.in_ + s.k)


class Pair(Model):
    def __init__(s, a, b):
        s.a, s.b = Leaf(**a), Leaf(**b)
        s.in_a, s.in_b, s.sel = InPort(a.get("width", 8)), \\
            InPort(b.get("width", 8)), InPort(2)
        s.out_a, s.out_b = OutPort(16), OutPort(16)
        s.connect(s.in_a, s.a.in_)
        s.connect(s.in_b, s.b.in_)
        s.connect(s.sel, s.a.sel)
        s.connect(s.sel, s.b.sel)
        s.connect(s.a.out, s.out_a)
        s.connect(s.b.out, s.out_b)
"""


@pytest.mark.parametrize("b, bodies", [
    (dict(k=9), 2),                 # a constant is a hole: shared
    (dict(k=5, width=9), 4),        # a width is not
    (dict(k=5, depth=3), 4),        # nor a dynamic table's length
    (dict(k=5, trips=2), 3),        # nor a folded range bound (comb only)
])
def test_siblings_share_a_body_unless_a_guard_differs(b, bodies):
    Pair = load_generated(_SIBLINGS)["Pair"]
    models = [Pair(dict(k=5), b).elaborate() for _ in range(2)]
    sims = [SimulationTool(models[0], sched="event"),
            SimulationTool(models[1])]
    assert _lowered(sims[1]) == {"blocks": 4, "bodies": bodies, "kept": {}}
    for sim in sims:
        sim.reset()
    for cycle in range(12):
        for model in models:
            model.in_a.value = (37 * cycle + 200) & 0xFF
            model.in_b.value = (91 * cycle + 300) & 0xFF
            model.sel.value = cycle & 3
        for sim in sims:
            sim.cycle()
        assert [int(models[1].out_a), int(models[1].out_b)] == [
            int(models[0].out_a), int(models[0].out_b)], cycle


@pytest.mark.parametrize("how", ["SimJITRTL", "auto_specialize"])
@pytest.mark.parametrize("b, functions, bodies", [
    (dict(k=9), 2, 2),              # a constant: one function, a K table
    # A width is a body, so it gets its own function, even where the
    # text never masks at it (``comb`` reads whole nets).
    (dict(k=5, width=9), 4, 4),
    (dict(k=5, depth=3), 4, 4),     # a dynamic table's length
    (dict(k=5, trips=2), 3, 3),     # and a folded range bound
    (dict(k=1 << 63), 3, 2),        # K is int64_t: one body, two functions
])
def test_siblings_share_a_c_function_unless_a_guard_differs(
        how, b, functions, bodies):
    """SimJIT's side of the test above: each body prints its C template
    once, and the blocks of one body share one function through
    per-instance tables unless a varying constant does not fit ``K``."""
    Pair = load_generated(_SIBLINGS)["Pair"]
    sources = []
    if how == "SimJITRTL":
        spec = SimJITRTL(Pair(dict(k=5), b).elaborate())
        jit = spec.specialize()
        sources.append(spec.c_source)
    else:
        jit = auto_specialize(Pair(dict(k=5), b))
    info = jit.jit_engine.kernel_info
    assert (info["blocks"], info["functions"], info["bodies"]) == (
        4, functions, bodies)
    for source in sources:
        assert ("K[0]" in source) == (b == dict(k=9))
        assert (f"{1 << 63}ULL" in source) == (b == dict(k=1 << 63))
    models = [Pair(dict(k=5), b).elaborate(), jit.elaborate()]
    sims = [SimulationTool(models[0], sched="event"),
            SimulationTool(models[1])]
    for sim in sims:
        sim.reset()
    for cycle in range(12):
        for model in models:
            model.in_a.value = (37 * cycle + 200) & 0xFF
            model.in_b.value = (91 * cycle + 300) & 0xFF
            model.sel.value = cycle & 3
        for sim in sims:
            sim.cycle()
        assert [int(models[1].out_a), int(models[1].out_b)] == [
            int(models[0].out_a), int(models[0].out_b)], cycle


_AND_K = """
from repro import *


class Leaf(Model):
    def __init__(s, k):
        s.k = k
        s.a = InPort(1)
        s.out = OutPort(8)

        @s.combinational
        def comb():
            s.out.value = s.a.uint() and s.k


class Pair(Model):
    def __init__(s, ka, kb):
        s.a, s.b = Leaf(ka), Leaf(kb)
        s.in_, s.out_a, s.out_b = InPort(1), OutPort(8), OutPort(8)
        s.connect(s.in_, s.a.a)
        s.connect(s.in_, s.b.a)
        s.connect(s.a.out, s.out_a)
        s.connect(s.b.out, s.out_b)
"""


def test_a_constant_that_decides_and_as_a_value_is_a_guard():
    """``bit and s.k`` lowers to the 0/1 ``BoolOp`` when ``s.k`` is 0
    or 1 and to an operand select otherwise, which C prints
    differently: the sibling with ``k=5`` is a body of its own."""
    Pair = load_generated(_AND_K)["Pair"]
    jit = SimJITRTL(Pair(1, 5).elaborate()).specialize()
    assert jit.jit_engine.kernel_info["bodies"] == 2
    ref = Pair(1, 5).elaborate()
    sims = [SimulationTool(ref, sched="event"),
            SimulationTool(jit.elaborate())]
    for model in (ref, jit):
        model.in_.value = 1
    for sim in sims:
        sim.cycle()
    assert [int(jit.out_a), int(jit.out_b)] == [
        int(ref.out_a), int(ref.out_b)] == [1, 5]


_REFUSALS = """
from repro import *


class Leaf(Model):
    def __init__(s, m=None, width=8):
        s.m = Wire(8) if m is None else m
        s.c, s.a = InPort(1), InPort(width)
        s.out, s.neg = OutPort(16), OutPort(1)

        @s.combinational
        def pick():
            s.out.value = (s.m if s.c else s.a) + 1

        @s.combinational
        def sign():
            s.neg.value = s.a.value.int() < 0


class Pair(Model):
    def __init__(s, a, b):
        s.a, s.b = Leaf(**a), Leaf(**b)
"""

_AMBIG = ("operand of + is Bits on one path and an int (or another width) "
          "on another")


@pytest.mark.parametrize("a, b, kept, lowerings", [
    # An int ``m`` makes ``pick`` undecidable; the sibling whose ``m``
    # is a Wire has other guards and is lowered, whichever comes first.
    (dict(m=3), dict(), {"top.a.pick": _AMBIG}, 3),
    (dict(), dict(m=3), {"top.b.pick": _AMBIG}, 3),
    # Equal guards share the refusal as they would the function.
    (dict(m=3), dict(m=4), {"top.a.pick": _AMBIG, "top.b.pick": _AMBIG}, 2),
    # The translator's own refusal is each instance's own, and is not
    # remembered: the event sim and the static one each translate it.
    (dict(width=80), dict(),
     {"top.a.pick": _AMBIG,
      "top.a.sign": "top.a.sign (line 3): .int() of a value wider than "
                    "64 bits"}, 5),
])
def test_a_refusal_holds_for_the_guards_it_was_seen_under(
        monkeypatch, a, b, kept, lowerings):
    Pair = load_generated(_REFUSALS)["Pair"]
    calls = _count_lowerings(monkeypatch)
    models = [Pair(a, b).elaborate() for _ in range(2)]
    sims = [SimulationTool(models[0], sched="event"),
            SimulationTool(models[1])]
    info = _lowered(sims[1])
    assert info["kept"] == kept
    assert info["blocks"] == 4 - len(kept)
    assert len(calls) == lowerings, calls
    for c, value in ((0, 0x7F), (1, 0x80), (1, 0xFF)):
        for model in models:
            for leaf in (model.a, model.b):
                leaf.c.value, leaf.a.value = c, value
        for sim in sims:
            sim.cycle()
        assert [[int(leaf.out), int(leaf.neg)]
                for leaf in (models[1].a, models[1].b)] == [
            [int(leaf.out), int(leaf.neg)]
            for leaf in (models[0].a, models[0].b)], (c, value)


def test_a_body_keeps_no_instance_and_goes_with_its_code_object():
    namespace = load_generated(_SIBLINGS)
    model = namespace["Leaf"](3).elaborate()
    sim = SimulationTool(model)
    assert _lowered(sim)["bodies"] == 2
    codes = [blk.func.__code__ for blk in
             model.get_comb_blocks() + model.get_tick_blocks()]
    files = [body.filename for code in codes
             for body in bodies._bodies[id(code)]]
    assert all(name in linecache.cache for name in files)
    gone = weakref.ref(model)
    del model, sim
    gc.collect()
    assert gone() is None           # the bodies are still there
    assert all(id(code) in bodies._bodies for code in codes)
    keys = [id(code) for code in codes]
    del codes, namespace
    gc.collect()
    assert not any(key in bodies._bodies for key in keys)
    assert not any(name in linecache.cache for name in files)



def test_a_body_goes_from_the_dict_it_was_entered_in(monkeypatch):
    """A test may swap ``bodies._bodies`` (the lowering counters do);
    a code object that dies meanwhile takes its bodies out of the dict
    they were entered in, not out of the one in place then."""
    entered = {}
    monkeypatch.setattr(bodies, "_bodies", entered)
    namespace = load_generated(_SIBLINGS)
    SimulationTool(namespace["Leaf"](3).elaborate())
    keys = list(entered)
    files = [body.filename for key in keys for body in entered[key]]
    assert keys and files
    swapped = {}
    monkeypatch.setattr(bodies, "_bodies", swapped)
    del namespace
    gc.collect()
    monkeypatch.setattr(bodies, "_bodies", entered)
    assert not any(key in entered or key in swapped for key in keys)
    assert not any(name in linecache.cache for name in files)

# -- what stays a closure, and says so -------------------------------------------


def test_fl_tile_keeps_exactly_its_untranslatable_blocks():
    tiles = [Tile(("fl", "rtl", "rtl")).elaborate() for _ in range(2)]
    sims = [SimulationTool(tiles[0], sched="event"), SimulationTool(tiles[1])]
    info = _lowered(sims[1])
    by_func = {}
    for model in tiles[1]._all_models:
        for blk in model.get_comb_blocks() + model.get_tick_blocks():
            by_func[blk.func] = blk.name
    ran = sims[1]._static_order + [f for _slot, f in sims[1]._tick_plan]
    lowered = [f for f in ran
               if (getattr(f, "__doc__", None) or "").startswith("lowered ")]
    closures = {by_func[f] for f in ran if f in by_func}
    # What the schedule holds is a lowered block, a named closure, a
    # connector or a blocking FL tick's runner; nothing else.
    assert info["blocks"] == len(lowered) > 0
    assert closures == {"top.proc.logic", "top.mem.logic"}
    assert all(info["kept"][name] == "tick_fl block" for name in closures)
    others = [f for f in ran if f not in lowered and f not in by_func]
    assert all(isinstance(f, BlockingTickRunner)
               or f.__name__.startswith("connect(") for f in others)
    # ... and the event partition is named too.
    event = {by_func[f] for f in sims[1].schedule.event_funcs
             if f in by_func}
    assert event and set(info["kept"]) == closures | event
    assert all(info["kept"][name].startswith("event partition: ")
               for name in event)
    for sim in sims:
        sim.reset()
        sim.run(300)
    assert tiles[0].line_trace() == tiles[1].line_trace()
    assert sims[0].ncycles == sims[1].ncycles
    for sim in sims:
        sim.close()


def test_ints_are_read_at_construction():
    """What lowering assumes and the closure does not (DESIGN 4,
    "Lowered blocks"): a plain int a block reads is a hole filled when
    the simulator is constructed, as SimJIT assumes of it too.  A
    bench that assigns it afterwards is seen by the closures only.
    This is the documented rule, not a gap to close: a live attribute
    read per hole would undo what the holes buy."""
    D = _design(["s.o.value = s.a + s.threshold", "s.p.value = LIMIT"],
                decls=["s.threshold = 1"])
    D.__init__.__globals__["LIMIT"] = 7
    models, sims = _columns(D, jit=True)
    for model in models[:3]:
        model.threshold = 5
    D.__init__.__globals__["LIMIT"] = 9
    _drive(models, sims, a=10)
    assert [(int(m.o), int(m.p)) for m in models] == [
        (15, 9), (11, 7), (11, 7), (11, 7)]
    # A simulator built after the assignment reads the new values.
    sim = SimulationTool(models[2])
    sim.cycle()
    assert _lowered(sim)["blocks"] == 1
    assert (int(models[2].o), int(models[2].p)) == (15, 9)


def test_the_closures_are_one_existing_argument_away():
    net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    sim = SimulationTool(net, sched="event")
    assert _lowered(sim) == {"blocks": 0, "bodies": 0, "kept": {}}
    funcs = {blk.func for m in net._all_models
             for blk in m.get_comb_blocks() + m.get_tick_blocks()}
    assert {func for _slot, func in sim._tick_plan} <= funcs
    assert set(sim._static_order) <= funcs


def test_lowered_is_not_in_the_report_bytes_or_the_repr():
    net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
    sim = SimulationTool(net)
    assert _lowered(sim)["blocks"] == 52
    assert "lowered" not in sim.telemetry.report().to_json()
    assert repr(sim) == ("<SimulationTool MeshNetworkStructural "
                         "sched=static/python comb=24 ticks=28(28 gated) "
                         "cycles=0>")


def test_stats_and_profile_count_the_blocks_that_run():
    """``collect_stats`` and ``profile`` run the lowered blocks, keyed by
    the block: ``activity()`` and ``profile.report()`` name the blocks
    and count the calls the closures gave (pinned from a run in which
    both options still kept the closures)."""
    def run(**kwargs):
        net = MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()
        sim = SimulationTool(net, sched="static", **kwargs)
        assert _lowered(sim)["blocks"] == 52
        NetworkTrafficHarness(net, sim=sim, seed=5).run_uniform_random(
            0.3, 60, drain=0)
        return sim
    sim = run(collect_stats=True)
    activity = sim.telemetry.activity()
    assert (activity.ncycles, activity.num_events) == (62, 455)
    comb = dict(activity.hot_blocks)
    router = "top.routers[0]."
    assert {name.removeprefix(router): calls for name, calls in comb.items()
            if name.startswith(router)} == {
        "switch_logic": 43, **{f"queues[{i}].comb_logic": calls
                               for i, calls in enumerate((30, 2, 16, 14, 2))}}
    sim = run(profile=True)
    rows = {row["name"]: row["calls"]
            for row in sim.profiler.report(sim, top=100)["hot_blocks"]}
    assert {name: rows[name] for name in comb} == comb
    assert {name.removeprefix(router): calls for name, calls in rows.items()
            if name.startswith(router) and name not in comb} == {
        "priority_logic": 41, "telemetry_logic": 42,
        **{f"queues[{i}].seq_logic": calls
           for i, calls in enumerate((38, 2, 22, 19, 2))}}


# -- printing: unrolled loops and the write shapes ----------------------------------


def _printed(func):
    """The text of lowered function ``func`` (its body's file holds the
    bind first, the function last)."""
    lines = linecache.getlines(func.__code__.co_filename)
    return "".join(lines[func.__code__.co_firstlineno - 1:])


def _loops(func):
    """The ``for`` statements of ``func``'s text, the reader-marking
    loops of a comb write aside."""
    return [line.strip() for line in _printed(func).splitlines()
            if line.strip().startswith("for ")
            and not line.strip().startswith("for _j in ")]


def test_a_constant_trip_loop_prints_unrolled():
    """No ``for`` left; the variable holds its last value after the
    loop; a traceback still names the generated line and the block."""
    D = _design(["acc = 0", "for i in range(3):",
                 "    acc = acc + s.tbl[s.c.uint() + i].uint() * (i + 1)",
                 "s.o.value = acc", "s.p.value = i"],
                decls=["s.tbl = [Wire(8) for _ in range(4)]"])
    models, sims = _columns(D)
    func, = sims[2]._static_order
    assert _lowered(sims[2])["kept"] == {} and _loops(func) == []
    for model in models:
        for k, wire in enumerate(model.tbl):
            wire.value = 10 * k + 1
    for c in (0, 1):
        _drive(models, sims, c=c)
        assert len({(int(m.o), int(m.p)) for m in models}) == 1
    assert (int(models[2].o), int(models[2].p)) == (11 + 2 * 21 + 3 * 31, 2)
    for model in models:
        model.c.value = 2
    with pytest.raises(IndexError) as caught:
        sims[2].cycle()
    text = "".join(traceback.format_exception(caught.value))
    assert 'File "<lowered D.__init__.<locals>.blk ' in text
    assert ", in blk\n    acc = (acc + (_h1[(_h0._value + 2)]._value" in text


@pytest.mark.parametrize("body, loops", [
    # a break of its own
    (["acc = 0", "for i in range(4):", "    if s.tbl[i].uint() > s.a.uint():",
      "        break", "    acc = acc + 1", "s.o.value = acc",
      "s.p.value = i"], 1),
    # a body that assigns the loop variable
    (["acc = 0", "for i in range(4):", "    i = i * 2 + s.c.uint()",
      "    acc = acc + i", "s.o.value = acc", "s.p.value = i"], 1),
    # more trips than the cap
    (["acc = 0", "for i in range(9):",
      "    acc = acc + ((s.a.uint() >> i) & 1)",
      "s.o.value = acc", "s.p.value = i"], 1),
    # a nest over the line budget: the outer loop stays rolled, the
    # inner ones fit and unroll
    (["acc = 0", "for i in range(8):", "    for j in range(8):",
      "        for k in range(8):",
      "            if (s.a.uint() >> k) & (s.b.uint() >> j) & 1:",
      "                acc = acc + i",
      "s.o.value = acc", "s.p.value = i + j + k"], 1),
])
def test_loops_that_may_not_unroll_stay_rolled(body, loops):
    models, sims = _columns(
        _design(body, decls=["s.tbl = [Wire(8) for _ in range(4)]"]))
    func, = sims[2]._static_order
    assert _lowered(sims[2])["kept"] == {}
    assert len(_loops(func)) == loops, _printed(func)
    for model in models:
        for k, wire in enumerate(model.tbl):
            wire.value = 50 * k
    for a, c in ((0, 0), (0b1010, 3), (0xFF, 31), (0x80, 1)):
        _drive(models, sims, a=a, b=0x5A, c=c)
        assert len({(int(m.o), int(m.p)) for m in models}) == 1, (a, c)


def test_a_zero_trip_loop_prints_nothing():
    D = _design(["acc = s.a.uint()", "if s.c:", "    for i in range(0):",
                 "        acc = acc + i", "s.o.value = acc", "s.p.value = 1"])
    models, sims = _columns(D)
    func, = sims[2]._static_order
    assert _loops(func) == [] and "        pass\n" in _printed(func)
    for a, c in ((7, 0), (9, 1)):
        _drive(models, sims, a=a, c=c)
        assert [int(m.o) for m in models] == [a] * 3


def _count_down(start, stop, step):
    return _design(["acc = 0", f"for i in range({start}, {stop}, {step}):",
                    "    acc = acc * 2 + s.q[i].uint()",
                    "s.o.value = acc", "s.p.value = 0"],
                   decls=["s.q = [InPort(1) for _ in range(4)]"])


def test_a_loop_with_a_negative_step_counts_down_on_every_backend():
    """``range(3, -1, -1)`` runs four times: in the lowered kernel, in
    SimJIT's C (whose loop once tested ``i < -1`` and never ran), in the
    Verilog loop and in the estimator's trip count."""
    from repro.core.translation import translate
    from repro.eda import estimate

    D = _count_down(3, -1, -1)
    models, sims = _columns(D, jit=True)
    models.append(D().elaborate())
    sims.append(SimulationTool(models[-1]))         # sched="auto"
    for model in models:
        model.q[0].value = model.q[1].value = 1
    for sim in sims:
        sim.cycle()
    assert [int(m.o) for m in models] == [3] * 5
    assert re.search(r"for \((\w+) = 3; \1 > -1; \1 = \1 \+ -1\) begin\n"
                     r"\s+blk__i = \1;", translate(D().elaborate()))
    up, down = (estimate(_count_down(*r)().elaborate()).modules[0]
                for r in ((0, 4, 1), (3, -1, -1)))
    assert down.comb_ge == up.comb_ge > 0


def test_a_zero_step_is_refused_as_python_refuses_it():
    blk, = _count_down(0, 4, 0)().elaborate().get_comb_blocks()
    with pytest.raises(TranslationError, match="step must not be zero"):
        bodies.lowered(blk, {})


_TWICE = """
from repro import *


class R(Model):
    def __init__(s):
        s.en, s.a = InPort(1), InPort(8)
        s.r, s.q = Wire(8), Wire(8)
        s.out_r, s.out_q = OutPort(8), OutPort(8)

        @s.tick_rtl
        def seq():
            s.r.next = s.r + 1
            s.r.next = s.r
            s.q[0:4].next = s.q[0:4] + 1
            s.q[0:4].next = s.q[0:4]
            if s.en:
                s.r.next = s.a
                s.q[4:8].next = s.a[0:4]

        @s.combinational
        def comb():
            s.out_r.value = s.r
            s.out_q.value = s.q
"""


def test_a_register_written_away_and_back_keeps_its_value():
    """A ``.next`` write equal to the value does not enter the pending
    dict, but it still stores ``_next``: the earlier, different write
    of the same cycle is what the edge would flop otherwise.  Whole
    register and slice alike."""
    R = load_generated(_TWICE)["R"]
    models, sims = _columns(R)
    assert _lowered(sims[2]) == {"blocks": 2, "bodies": 2, "kept": {}}
    seen = []
    for cycle, (en, a) in enumerate([(1, 0x35), (0, 1), (0, 2), (1, 0xC7),
                                     (0, 3), (0, 3), (0, 4)]):
        _drive(models, sims, en=en, a=a)
        seen.append({(int(m.out_r), int(m.out_q)) for m in models})
    assert seen == [{(0x35, 0x50)}] * 3 + [{(0xC7, 0x70)}] * 4


_HYBRID = """
from repro import *


class H(Model):
    def __init__(s):
        s.a, s.sel = InPort(8), InPort(1)
        s.mid, s.x, s.y = Wire(8), Wire(8), Wire(8)
        s.out = OutPort(8)

        @s.combinational
        def src():
            s.mid.value = s.a + 1

        @s.combinational
        def first():
            s.x.value = s.mid if s.sel else s.y

        @s.combinational
        def second():
            s.y.value = s.x + 1 if s.sel else 0

        @s.combinational
        def sink():
            s.out.value = s.y
"""


def test_a_lowered_write_wakes_an_event_partition_reader():
    H = load_generated(_HYBRID)["H"]
    models, sims = _columns(H)
    info = _lowered(sims[2])
    assert set(info["kept"]) == {"top.first", "top.second"}
    assert info["blocks"] == 2
    for a, sel in ((4, 1), (9, 1), (9, 0), (200, 1), (255, 1)):
        _drive(models, sims, a=a, sel=sel)
        assert [int(m.out) for m in models] == [(a + 2) & 0xFF if sel
                                                else 0] * 3


def test_traceback_shows_the_generated_line_and_whose_block_it_is():
    D = _design(["s.o.value = s.tbl[s.c.uint()].uint()", "s.p.value = 0"],
                decls=["s.tbl = [Wire(8) for _ in range(4)]"])
    model = D().elaborate()
    sim = SimulationTool(model)
    func, = sim._static_order
    blk, = model.get_comb_blocks()
    assert func is not blk.func
    assert (func.__name__, func.__qualname__) == (
        "blk", "D.__init__.<locals>.blk")
    code = blk.func.__code__
    assert func.__doc__ == (f"lowered from {code.co_filename}:"
                            f"{code.co_firstlineno} ({func.__qualname__})")
    model.c.value = 9
    with pytest.raises(IndexError) as caught:
        sim.cycle()
    text = "".join(traceback.format_exception(caught.value))
    assert 'File "<lowered D.__init__.<locals>.blk ' in text
    assert ", in blk\n    _v = _h1[_h0._value]._value" in text
