"""SimJIT compiles each distinct block body once.

Blocks whose generated C differs only in which nets, CL state and
integer constants it names share one function and read those through
their ``S``/``K`` entries in the instance's layout
(``core/simjit/cgen.py``).  These tests
pin what must share and what must not, that a shared body still
simulates every instance exactly as the event-driven interpreter does —
through probes and a mid-run checkpoint too — and that the generated
text depends on nothing but the design.
"""

import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Model, SimulationTool
from repro.core.probe import Probe
from repro.core.signals import InPort, OutPort, Wire
from repro.core.simjit import JITModel, SimJITCL, SimJITRTL, auto_specialize
from repro.net import MeshNetworkStructural, RouterRTL


# -- leaves --------------------------------------------------------------------


class _AddK(Model):
    """A register plus an elaboration-time constant."""

    STATE = ("acc",)

    def __init__(s, nbits=8, k=1):
        s.in_ = InPort(nbits)
        s.out = OutPort(nbits)
        s.acc = Wire(nbits)
        s.k = k

        @s.tick_rtl
        def seq():
            if s.reset:
                s.acc.next = 0
            else:
                s.acc.next = s.acc + s.in_

        @s.combinational
        def comb():
            s.out.value = s.acc ^ s.k


class _Pick(Model):
    """Four registers written and read through dynamic indices."""

    STATE = ("ptr", "regs[2]")

    def __init__(s, nbits=8):
        s.in_ = InPort(nbits)
        s.out = OutPort(nbits)
        s.regs = [Wire(nbits) for _ in range(4)]
        s.ptr = Wire(2)

        @s.tick_rtl
        def seq():
            if s.reset:
                s.ptr.next = 0
            else:
                s.regs[s.ptr].next = s.in_
                s.ptr.next = s.ptr + 1

        @s.combinational
        def comb():
            s.out.value = s.regs[s.in_[0:2]]


class _CountCL(Model):
    """CL int and int-list state, ``nhist`` ints long."""

    STATE = ("total", "hist[1]")

    def __init__(s, nbits=8, nhist=4):
        s.in_ = InPort(nbits)
        s.out = OutPort(nbits)
        s.total = 0
        s.hist = [0] * nhist

        @s.tick_cl
        def acc():
            if s.reset.uint():
                s.total = 0
                for i in range(nhist):
                    s.hist[i] = 0
            else:
                s.total = (s.total + s.in_.uint()) % 251
                s.hist[s.in_.uint() % nhist] = \
                    s.hist[s.in_.uint() % nhist] + 1
            s.out.next = s.total + s.hist[s.in_.uint() % nhist]


class _Mix(Model):
    """One block whose C text depends on ``rounds`` (a loop bound) and
    ``width`` (a mask) but not on ``k`` (a constant)."""

    def __init__(s, rounds, width, k):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.acc = Wire(width)
        s.rounds = rounds
        s.k = k

        @s.tick_rtl
        def seq():
            if s.reset:
                s.acc.next = 0
                s.out.next = 0
            else:
                x = s.acc.uint() + s.k
                for i in range(s.rounds):
                    x = x + s.in_.uint() + i
                s.acc.next = x
                s.out.next = s.acc[0:8]


# -- tops ----------------------------------------------------------------------


class _Bank(Model):
    """Every leaf between its own pair of top-level ports."""

    def __init__(s, leaves):
        s.leaves = leaves
        s.in_ = [InPort(leaf.in_.nbits) for leaf in leaves]
        s.out = [OutPort(leaf.out.nbits) for leaf in leaves]
        for i, leaf in enumerate(leaves):
            s.connect(s.in_[i], leaf.in_)
            s.connect(leaf.out, s.out[i])


class _Chain(Model):
    """The leaves in series between one pair of ports."""

    def __init__(s, leaves):
        s.leaves = leaves
        s.in_ = [InPort(8)]
        s.out = [OutPort(8)]
        prev = s.in_[0]
        for leaf in leaves:
            s.connect(prev, leaf.in_)
            prev = leaf.out
        s.connect(prev, s.out[0])


class _Pair:
    """One design under ``sched="event"`` and under SimJIT, driven in
    lockstep."""

    def __init__(self, build, specializer=SimJITRTL):
        self.ref = build().elaborate()
        self.spec = specializer(build().elaborate())
        self.jit = self.spec.specialize().elaborate()
        self.sims = (SimulationTool(self.ref, sched="event"),
                     SimulationTool(self.jit))
        self.info = self.sims[1].sched_info()["simjit"]
        for sim in self.sims:
            sim.reset()

    def run(self, ncycles, seed):
        """Random stimulus; every output equal every cycle.  Returns
        the outputs seen."""
        rnd = random.Random(seed)
        seen = []
        for _ in range(ncycles):
            for p_ref, p_jit in zip(self.ref.in_, self.jit.in_):
                p_ref.value = p_jit.value = rnd.getrandbits(p_ref.nbits)
            for sim in self.sims:
                sim.cycle()
            outs = [int(port) for port in self.jit.out]
            assert outs == [int(port) for port in self.ref.out]
            seen.append(outs)
        return seen

    def probes(self, path):
        return [Probe.resolve(sim, path) for sim in self.sims]


def _bodies(c_source):
    """``{function name: body}`` of the generated block functions."""
    return dict(re.findall(
        r"^static void ((?:comb|tick)_\w+)\(inst_t \*I[^)]*\) (\{\n.*?\n\})$",
        c_source, re.M | re.S))


def _entries(pair):
    """Each block's ``(function, S entries, K entries)`` in the layout
    of ``pair``'s engine."""
    return [(f, len(s), len(k))
            for f, s, k in pair.jit.jit_engine.layout.blocks]


# -- (a) the mesh --------------------------------------------------------------


def test_mesh16_is_five_functions():
    spec = SimJITRTL(MeshNetworkStructural(
        RouterRTL, 16, 256, 32, 2).elaborate())
    top = spec.specialize().elaborate()
    info = SimulationTool(top).sched_info()["simjit"]
    # Per router: switch, priority and telemetry logic plus five
    # queues of two blocks each.
    assert info["blocks"] == 16 * 13 == 208
    assert info["functions"] == 5
    # The text grows with the per-instance layout, not with copies of
    # RouterRTL (it was 208 functions and 344 225 bytes).
    assert len(spec.c_source) < 120000, len(spec.c_source)
    bodies = _bodies(spec.c_source)
    assert len(bodies) == 5
    assert len(set(bodies.values())) == 5
    # Every block runs one of the five, each of which some block runs,
    # with slot entries of its own.
    blocks = top.jit_engine.layout.blocks
    assert len(blocks) == 208
    assert {f for f, _, _ in blocks} == set(range(5))
    assert all(s for _, s, _ in blocks)


# -- (b) what shares and what does not -----------------------------------------

BIG = 1 << 63

# id -> (leaves, specializer, functions, text the C must / must not hold,
#        each block's (function, S entries, K entries) in the layout:
#        the comb blocks, then the ticks)
CASES = {
    # comb reads K; the tick is the same text with nothing constant
    "constant": (lambda: [_AddK(8, 1), _AddK(8, 2), _AddK(8, 200)],
                 SimJITRTL, 2, ["K[0]"], [],
                 [(0, 2, 1)] * 3 + [(1, 2, 0)] * 3),
    "width": (lambda: [_AddK(8), _AddK(12)],
              SimJITRTL, 4, [], ["*S", "*K"],
              [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]),
    "dynamic-index": (lambda: [_Pick(), _Pick()],
                      SimJITRTL, 2, ["(S + "], ["tbl0", "K["],
                      [(0, 6, 0)] * 2 + [(1, 6, 0)] * 2),
    # K is int64_t: the two comb blocks stay literal, the ticks share
    "constant-over-int64": (
        lambda: [_AddK(64, BIG + 5), _AddK(64, 2 * BIG - 1)],
        SimJITRTL, 3, [f"((((u128)0ULL) << 64) | {BIG + 5}ULL)",
                       f"((((u128)0ULL) << 64) | {2 * BIG - 1}ULL)"],
        ["K["], [(0, 0, 0), (1, 0, 0), (2, 2, 0), (2, 2, 0)]),
    "nothing": (lambda: [_AddK(8), _AddK(8)],
                SimJITRTL, 2, ["S[1]"], ["K["],
                [(0, 2, 0)] * 2 + [(1, 2, 0)] * 2),
    "cl-state": (lambda: [_CountCL(), _CountCL(), _CountCL()],
                 SimJITCL, 1, ["I->st[S["], ["st_m"], [(0, 4, 0)] * 3),
    # a list length is a body: the two of length 4 share, 6 is literal
    "cl-state-lengths": (
        lambda: [_CountCL(8, 4), _CountCL(8, 6), _CountCL(8, 4)],
        SimJITCL, 2, ["I->st[S[", "(6LL)", "_k < 6;"], ["st_m"],
        [(0, 4, 0), (1, 0, 0), (0, 4, 0)]),
}


@pytest.mark.parametrize("case", CASES)
def test_sharing_table(case):
    leaves, specializer, functions, present, absent, entries = CASES[case]
    pair = _Pair(lambda: _Bank(leaves()), specializer)
    source = pair.spec.c_source
    assert pair.info["functions"] == functions == len(_bodies(source))
    assert pair.info["blocks"] == sum(
        len(leaf.get_comb_blocks()) + len(leaf.get_tick_blocks())
        for leaf in leaves())
    for text in present:
        assert text in source, text
    for text in absent:
        assert text not in source, text
    assert _entries(pair) == entries

    pair.run(40, seed=1)

    # Probes reach the last instance of the shared body: read, write,
    # and the written value is what the design carries on from.
    last = len(pair.ref.leaves) - 1
    for n, name in enumerate(pair.ref.leaves[last].STATE):
        ref, jit = pair.probes(f"leaves[{last}].{name}")
        assert jit.location != "net"
        assert jit.read() == ref.read()
        for probe, sim in zip((ref, jit), pair.sims):
            probe.write(sim, 3 - n)
        assert jit.read() == ref.read() == 3 - n
    pair.run(20, seed=2)

    # A checkpoint taken mid-run replays the same tail.
    saved = [sim.save_checkpoint() for sim in pair.sims]
    tail = pair.run(25, seed=3)
    for sim, checkpoint in zip(pair.sims, saved):
        sim.restore_checkpoint(checkpoint)
    assert pair.run(25, seed=3) == tail


# -- (c) any mix of leaves -----------------------------------------------------

_SHAPES = [(1, 8), (2, 8), (3, 8), (1, 11), (2, 11)]


@settings(max_examples=12, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SHAPES), st.integers(0, 255)),
                min_size=2, max_size=6),
       st.integers(0, 1 << 16))
def test_functions_equal_distinct_shapes(leaves, seed):
    pair = _Pair(lambda: _Chain(
        [_Mix(rounds, width, k) for (rounds, width), k in leaves]))
    assert pair.info["blocks"] == len(leaves)
    assert pair.info["functions"] == pair.info["bodies"] == len(
        {shape for shape, _ in leaves})
    pair.run(50, seed)


# -- (d) determinism -----------------------------------------------------------

_SHA_OF_MESH4 = """
import hashlib
from repro.core.simjit import SimJITCL
from repro.net import MeshNetworkStructural, RouterCL, RouterRTL
for router in (RouterRTL, RouterCL):
    spec = SimJITCL(MeshNetworkStructural(router, 4, 256, 32, 2).elaborate())
    spec.specialize()
    print(hashlib.sha256(spec.c_source.encode()).hexdigest())
"""


def test_generated_c_is_independent_of_the_hash_seed():
    """Fleet workers must reach the same ``.so`` cache key."""
    shas = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        shas.add(subprocess.run(
            [sys.executable, "-c", _SHA_OF_MESH4], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert len(shas) == 1 and len(shas.pop().split()) == 2


# -- (e) nothing repeated, nothing shared --------------------------------------


def test_design_without_a_repeated_body_has_no_tables():
    pair = _Pair(lambda: _Bank([_AddK(8), _Pick()]))
    source = pair.spec.c_source
    assert pair.info["functions"] == pair.info["blocks"] == 4
    assert "*S" not in source and "*K" not in source
    # Each block its own function, with no entries.
    assert _entries(pair) == [(f, 0, 0) for f in range(4)]
    pair.run(30, seed=4)


class _Slices(Model):
    """Two slice connectors of one shape: each output is the high
    nibble of its input."""

    def __init__(s):
        s.in_ = [InPort(8) for _ in range(2)]
        s.out = [OutPort(4) for _ in range(2)]
        for i in range(2):
            s.connect(s.in_[i][4:8], s.out[i])


def test_a_connector_is_a_function_of_its_own():
    """A connector is not a block and has no body, so equal text does
    not make two of them one function."""
    pair = _Pair(_Slices)
    source = pair.spec.c_source
    assert (pair.info["blocks"], pair.info["functions"],
            pair.info["bodies"]) == (2, 2, 0)
    functions = _bodies(source)
    assert sorted(functions) == ["comb_0_connector0", "comb_1_connector1"]
    assert "*S" not in source
    pair.run(40, seed=8)


def test_sched_info_says_which_path_each_block_took():
    """There is one path: every block, ``tick_cl`` ones included, is
    bound to a block body (lowered and printed once)."""
    pair = _Pair(lambda: _Bank([_CountCL(), _AddK(8, 1), _CountCL(),
                                _AddK(8, 2)]), SimJITCL)
    engine, = pair.info["engines"]
    for info in (pair.info, engine):
        assert (info["blocks"], info["functions"], info["bodies"]) == (
            6, 3, 3)
        assert "per_instance" not in info
    pair.run(30, seed=5)


def test_compile_span_says_what_was_shared():
    from repro.telemetry import tracing
    spec = SimJITRTL(MeshNetworkStructural(
        RouterRTL, 4, 256, 32, 2).elaborate())
    tracer = tracing.arm()
    try:
        spec.specialize()
    finally:
        tracing.disarm()
    span, = [e for e in tracer.events if e["name"] == "simjit.compile"]
    assert span["args"]["functions"] == 5
    assert span["args"]["bodies"] == 5
    assert span["args"]["c_source_bytes"] == len(spec.c_source)


# -- (f) one path: every block is a body ---------------------------------------


def test_cl_blocks_are_bodies_lowered_once_with_state_of_their_own(
        lowerings):
    """A ``tick_cl`` block is bound to its body like an RTL one, its CL
    state a hole: a list length is a guard, so three instances over two
    lengths are two bodies, each translated once, and every instance
    keeps state of its own."""
    leaves, specializer, *_ = CASES["cl-state-lengths"]
    pair = _Pair(lambda: _Bank(leaves()), specializer)
    assert (pair.info["blocks"], pair.info["functions"],
            pair.info["bodies"]) == (3, 2, 2)
    assert lowerings["_CountCL.__init__.<locals>.acc"] == 2
    pair.run(40, seed=6)
    totals = []
    for i, leaf in enumerate(pair.ref.leaves):
        names = ["total"] + [f"hist[{j}]" for j in range(len(leaf.hist))]
        for name in names:
            ref, jit = pair.probes(f"leaves[{i}].{name}")
            assert jit.location == "state"
            assert jit.read() == ref.read(), (i, name)
        totals.append(pair.probes(f"leaves[{i}].total")[1].read())
    assert len(set(totals)) == 3, totals


class _Scalar(Model):
    """CL state ``s.x`` read as an int."""

    def __init__(s, x):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.x = x

        @s.tick_cl
        def acc():
            s.x = (s.x + s.in_.uint()) % 256
            s.out.next = s.x


class _Second(Model):
    """CL state ``s.x`` read as a list, at a static index."""

    def __init__(s, x):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        s.x = x

        @s.tick_cl
        def acc():
            s.x[1] = (s.x[1] + s.in_.uint()) % 256
            s.out.next = s.x[1]


@pytest.mark.parametrize("leaf, good, bad, why", [
    (_Scalar, 0, [0], "needs an index"),
    (_Second, [0, 0], [0], "index 1 out of range"),
    (_Second, [0, 0], [None, 0], "must hold ints"),
])
def test_a_sibling_that_fails_a_state_check_is_not_bound(leaf, good, bad, why):
    """What the translator checked of a CL state attribute — an int or
    a list, its length, ints only — guards the body: a sibling that
    fails a check is lowered on its own, and refused."""
    top = auto_specialize(_Bank([leaf(good), leaf(bad)]))
    assert isinstance(top.leaves[0], JITModel)
    assert not isinstance(top.leaves[1], JITModel)
    info = SimulationTool(top.elaborate()).sched_info()["simjit"]
    assert why in info["interpreted"]["top.leaves[1]"]


class _Clash(Model):
    """A comb block whose free variables have the names a bind takes
    for its own when nothing clashes: ``_m`` and ``_c`` (constants),
    ``_x`` and ``_o0`` (slice and range bounds)."""

    def __init__(s, k, hi):
        s.in_ = InPort(8)
        s.out = OutPort(8)
        _m, _c, _x, _o0 = k, 2, 1, hi

        @s.combinational
        def comb():
            _f = s.in_[_x:_o0].value.uint() + _m
            for _g in range(_o0):
                _f = _f + _g * _c
            s.out.value = _f


def test_a_bind_picks_names_clear_of_the_blocks():
    """The bind renames itself instead of refusing the block, and still
    guards what the names hold: a slice bound is a second body, a
    constant a K table."""
    pair = _Pair(lambda: _Bank([_Clash(3, 5), _Clash(200, 5), _Clash(7, 6)]))
    assert (pair.info["blocks"], pair.info["functions"],
            pair.info["bodies"]) == (3, 2, 2)
    assert "K[0]" in pair.spec.c_source
    pair.run(30, seed=7)
