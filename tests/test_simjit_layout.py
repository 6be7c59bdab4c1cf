"""SimJIT's C is block bodies only; an instance is a layout.

The translation unit of a design is its prelude, one function per
distinct block body and one fixed kernel (``core/simjit/cgen.py``).
Which nets there are, which block runs which function over which slots
and the initial values are the engine's per-instance layout, handed to
``new_instance``.  These tests pin that the text does not grow with
the instance count, that two designs whose bodies print the same text
are one ``.so`` with two layouts, and the checkpoint blob the layout
describes: ``cur | nxt | [prev] | [st]``, ``cur`` at the handle.
"""

import random
import re

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
    assert gcc_runs == ["design"]
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
    assert len(blob) == 16 * nnets * parts + 8 * nstate

    def cur(slot):
        return int.from_bytes(blob[16 * slot:16 * slot + 16], "little")

    assert [cur(slot) for slot in range(nnets)] == [
        engine.raw_get(slot) for slot in range(nnets)]
    for port in top.get_outports():
        assert cur(engine.slot_of(port)) == int(port), port.name
    # CL state follows the nets: element j of state entry i.
    st = 16 * nnets * parts
    for idx in range(len(engine.layout.state_off) - 1):
        for elem in range(engine.layout.state_off[idx + 1]
                          - engine.layout.state_off[idx]):
            at = st + 8 * (engine.layout.state_off[idx] + elem)
            value = int.from_bytes(blob[at:at + 8], "little", signed=True)
            assert value == engine.lib.get_state_at(engine.inst, idx, elem)
