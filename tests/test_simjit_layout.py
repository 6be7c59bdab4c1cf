"""SimJIT's C is block bodies only; an instance is a layout.

The translation unit of a design is its prelude, one function per
distinct block body and ``run_block`` (``core/simjit/cgen.py``).  The
kernel that runs it is the SimJIT runtime's (``runtime.c``), compiled
once per cache.  Which nets there are, which block runs which function
over which slots, the initial values and the design library's
``run_block`` are the engine's per-instance layout, handed to
``new_instance``.  These tests pin that the text holds no kernel and
does not grow with the instance count, that two designs whose bodies
print the same text are one ``.so`` with two layouts, that a design
compiled at another ``opt`` runs on the one kernel, and the checkpoint
blob the layout describes: ``cur | nxt | [prev] | [st]``, ``cur`` at
the handle, a net one word or two, ``nxt`` the flop nets' words.
"""

import os
import random
import re
import subprocess
import sys

import pytest

from repro.core import SimulationTool
from repro.core.simjit import SimJITCL, SimJITRTL
from repro.net import MeshNetworkStructural, RouterRTL
from tests.test_simjit_share import _AddK, _Bank, _CountCL, _Pair


def _mesh_c(n):
    spec = SimJITRTL(MeshNetworkStructural(
        RouterRTL, n, 256, 32, 2).elaborate())
    spec.specialize()
    return spec


def test_mesh_c_does_not_grow_with_the_instance_count():
    """mesh4, mesh16 and mesh64 are one text up to integer literals:
    no per-member table, no list of per-block calls."""
    specs = [_mesh_c(n) for n in (4, 16, 64)]
    masked = {re.sub(r"\d+", "N", spec.c_source) for spec in specs}
    assert len(masked) == 1
    for spec in specs:
        source = spec.c_source
        assert "static const" not in source
        # Each body function is named once in run_block's switch.
        calls = re.findall(r"^  case \d+: ((?:comb|tick)_\w+)\(I",
                           source, re.M)
        assert len(calls) == len(set(calls)) == 5
        assert spec.kernel_info["functions"] == 5
    assert [spec.kernel_info["blocks"] for spec in specs] == [52, 208, 832]


def test_design_c_holds_no_kernel():
    """The kernel, the instrumentation and the test bench are the
    runtime's: a design's C defines none of them, nor ``layout_t``."""
    for n in (4, 64):
        source = _mesh_c(n).c_source
        assert re.findall(r"^(?!static )\w[\w ]*\b(\w+)\(", source, re.M) == [
            "run_block"]
        for name in ("new_instance", "settle", "edge", "cycle", "obs_",
                     "tb_uniform", "layout_t"):
            assert name not in source, name


# Two meshes whose buffer depths make two texts, in a process that
# counts its gcc runs.
_TWO_DESIGNS = """
import subprocess
from repro.core.simjit import SimJITRTL
from repro.net import MeshNetworkStructural, RouterRTL
gcc, run = [], subprocess.run
def counted(cmd, *args, **kwargs):
    gcc.extend(cmd[:1])
    return run(cmd, *args, **kwargs)
subprocess.run = counted
for nentries in (2, 4):
    SimJITRTL(MeshNetworkStructural(
        RouterRTL, 4, 256, 32, nentries).elaborate()).specialize()
assert gcc == [], gcc
"""


def test_two_designs_compile_the_runtime_once(gcc_runs):
    """Two designs on an empty cache are three gcc runs, the runtime
    first; a new process on the warm cache makes none."""
    paths = set()
    for nentries in (2, 4):
        spec = SimJITRTL(MeshNetworkStructural(
            RouterRTL, 4, 256, 32, nentries).elaborate())
        spec.specialize()
        paths.add(spec.lib_path)
    assert len(paths) == 2
    assert gcc_runs == ["runtime", "design", "design"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", _TWO_DESIGNS], env=env,
                   check=True, timeout=120)


def _outputs(mesh):
    return [(int(mesh.out[i].val), int(mesh.out[i].msg), int(mesh.in_[i].rdy))
            for i in range(len(mesh.out))]


def test_design_at_o0_runs_on_the_o2_kernel():
    """A design's ``opt`` is its bodies': a mesh4 built at ``-O0``
    runs on the one ``-O2`` kernel, bit-identical to its
    ``sched="event"`` twin for 40 interleaved cycles."""
    def mesh4():
        return MeshNetworkStructural(RouterRTL, 4, 256, 32, 2).elaborate()

    spec = SimJITRTL(mesh4(), opt="-O0")
    jit, ref = spec.specialize().elaborate(), mesh4()
    sims = [SimulationTool(jit), SimulationTool(ref, sched="event")]
    assert "/simjit " in repr(sims[0])
    for sim in sims:
        sim.reset()
    rnd = random.Random(4)
    for _ in range(40):
        stimulus = [(rnd.getrandbits(1), rnd.getrandbits(ref.in_[i].msg.nbits),
                     int(rnd.random() < 0.7)) for i in range(4)]
        for model, sim in zip((jit, ref), sims):
            for i, (val, msg, rdy) in enumerate(stimulus):
                model.in_[i].val.value = val
                model.in_[i].msg.value = msg
                model.out[i].rdy.value = rdy
            sim.cycle()
        assert _outputs(jit) == _outputs(ref)


def test_two_layouts_share_one_library(gcc_runs):
    """Two banks of two and three ``_AddK`` leaves print the same
    bodies: one gcc run, the same ``.so``, each instance simulating its
    own design exactly."""
    pairs = [_Pair(lambda: _Bank([_AddK(8, k) for k in (1, 2)])),
             _Pair(lambda: _Bank([_AddK(8, k) for k in (3, 4, 5)]))]
    first, second = (pair.spec for pair in pairs)
    assert first.c_source == second.c_source
    assert first.lib_path == second.lib_path
    assert second.overheads["cache_hit"]
    assert gcc_runs == ["runtime", "design"]
    assert [len(pair.jit.jit_engine.layout.blocks) for pair in pairs] == [
        4, 6]
    for c in range(40):
        for n, pair in enumerate(pairs):
            pair.run(1, seed=100 * n + c)


# name -> (specializer of a fresh design, CL state elements): a
# single-pass mesh16, a fixpoint design (``prev``), CL state.
BLOBS = {
    "mesh16": (lambda: SimJITRTL(MeshNetworkStructural(
        RouterRTL, 16, 256, 32, 2).elaborate()), 0),
    "fixpoint": (lambda: SimJITRTL(
        _Bank([_AddK(8, 1), _AddK(8, 2)]).elaborate(), schedule=False), 0),
    "cl-state": (lambda: SimJITCL(
        _Bank([_CountCL(), _CountCL(8, 6)]).elaborate()), (1 + 4) + (1 + 6)),
}


@pytest.mark.parametrize("name", list(BLOBS))
def test_checkpoint_blob_is_cur_nxt_prev_st(name):
    make, nstate = BLOBS[name]
    spec = make()
    nnets = len(spec.orig._all_nets)
    top = spec.specialize().elaborate()
    engine = top.jit_engine
    parts = 3 if name == "fixpoint" else 2
    assert engine.kernel_info["comb"] == (
        "fixpoint" if name == "fixpoint" else "single-pass")
    sim = SimulationTool(top)
    sim.reset()
    rnd = random.Random(name)
    for _ in range(20):
        for port in top.get_inports():
            if port.name not in ("clk", "reset"):
                port.value = rnd.getrandbits(port.nbits)
        sim.cycle()
    blob = engine.snapshot_raw()
    layout = engine.layout
    # A net is one word, two past 64 bits; nxt is the flop nets' words,
    # which lead cur.
    nwords = sum(1 + (width > 64) for width in layout.net_width)
    assert len(layout.net_width) == nnets
    assert len(blob) == 8 * (nwords * (parts - 1) + layout.flop_words
                             + nstate)

    def cur(slot):
        at = 8 * (layout.flop_words + layout.net_word[slot])
        size = 16 if layout.net_width[slot] > 64 else 8
        return int.from_bytes(blob[at:at + size], "little")

    assert [cur(slot) for slot in range(nnets)] == [
        engine.raw_get(slot) for slot in range(nnets)]
    for port in top.get_outports():
        assert cur(engine.slot_of(port)) == int(port), port.name
    # CL state follows the nets: element j of state entry i.
    st = 8 * (nwords * (parts - 1) + layout.flop_words)
    for idx in range(len(engine.layout.state_off) - 1):
        for elem in range(engine.layout.state_off[idx + 1]
                          - engine.layout.state_off[idx]):
            at = st + 8 * (engine.layout.state_off[idx] + elem)
            value = int.from_bytes(blob[at:at + 8], "little", signed=True)
            assert value == engine.lib.get_state_at(engine.inst, idx, elem)
