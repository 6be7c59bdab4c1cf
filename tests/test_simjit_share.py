"""SimJIT compiles each distinct block body once.

Blocks whose generated C differs only in which nets, CL state and
integer constants it names share one function and read those through
per-instance ``S``/``K`` tables (``core/simjit/cgen.py``).  These tests
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
from repro.core.simjit import SimJITCL, SimJITRTL
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
    """CL int and int-list state."""

    STATE = ("total", "hist[1]")

    def __init__(s, nbits=8):
        s.in_ = InPort(nbits)
        s.out = OutPort(nbits)
        s.total = 0
        s.hist = [0] * 4

        @s.tick_cl
        def acc():
            if s.reset.uint():
                s.total = 0
                for i in range(4):
                    s.hist[i] = 0
            else:
                s.total = (s.total + s.in_.uint()) % 251
                s.hist[s.in_.uint() % 4] = s.hist[s.in_.uint() % 4] + 1
            s.out.next = s.total + s.hist[s.in_.uint() % 4]


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
    bodies = _bodies(spec.c_source)
    assert len(bodies) == 5
    assert len(set(bodies.values())) == 5
    calls = re.findall(r"^  ((?:comb|tick)_\w+)\(I, S_\d+_\d+, \w+\);$",
                       spec.c_source, re.M)
    assert len(calls) == 208 and set(calls) == set(bodies)


# -- (b) what shares and what does not -----------------------------------------

BIG = 1 << 63

# id -> (leaves, specializer, functions, text the C must / must not hold)
CASES = {
    # comb reads K; the tick is the same text with nothing constant
    "constant": (lambda: [_AddK(8, 1), _AddK(8, 2), _AddK(8, 200)],
                 SimJITRTL, 2, ["K[0]", "const int64_t K_"], []),
    "width": (lambda: [_AddK(8), _AddK(12)],
              SimJITRTL, 4, [], ["*S", "*K"]),
    "dynamic-index": (lambda: [_Pick(), _Pick()],
                      SimJITRTL, 2, ["(S + "], ["tbl0", "K_"]),
    # K is int64_t: the two comb blocks stay literal, the ticks share
    "constant-over-int64": (
        lambda: [_AddK(64, BIG + 5), _AddK(64, 2 * BIG - 1)],
        SimJITRTL, 3, [f"((((u128)0ULL) << 64) | {BIG + 5}ULL)",
                       f"((((u128)0ULL) << 64) | {2 * BIG - 1}ULL)"],
        ["K_"]),
    "nothing": (lambda: [_AddK(8), _AddK(8)],
                SimJITRTL, 2, ["(I, S_0_1, 0);"], ["K_", "K["]),
    "cl-state": (lambda: [_CountCL(), _CountCL(), _CountCL()],
                 SimJITCL, 1, ["I->st[S["], ["st_m"]),
}


@pytest.mark.parametrize("case", CASES)
def test_sharing_table(case):
    leaves, specializer, functions, present, absent = CASES[case]
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
    assert pair.info["functions"] == len({shape for shape, _ in leaves})
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
    assert "static const int S_" not in source
    assert len(re.findall(r"^  (?:comb|tick)_\w+\(I\);$", source,
                          re.M)) == 4
    pair.run(30, seed=4)


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
    assert span["args"]["c_source_bytes"] == len(spec.c_source)
