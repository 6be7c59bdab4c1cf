"""The generated C of SimJIT, pinned by sha256.

``golden/simjit_c_sha256.json`` holds the sha256 of every ``c_source``
the designs below compile, keyed ``"<design> <engine> <class>"``:
three RTL meshes under ``SimJITRTL``, the mesh4 pair the hash-seed test
builds under ``SimJITCL`` and a ``RouterCL`` mesh16 (``tick_cl`` blocks
bound to their bodies, CL state as holes), the accelerator and the
arbiter of the nine tiles with an RTL accelerator, each specialized on
its own (``Tile(levels, jit=True)`` compiles nothing: every block of a
tile is lowered and statically scheduled, so the other ten of the
nineteen rows compile nothing too, and have no entry), the jit points
of the three
DUT builders and the seven ``test_simjit_share`` rows.  None of them
holds the SimJIT runtime (``runtime.c``: the kernel, the
instrumentation, the test bench).  The C text is the ``.so``
cache key, so a refactor of how it is produced must leave
every entry as it is (new rows for a refactor are written by the code
it replaces: run ``--write`` on the parent with these designs).  The
text is a design's block bodies and ``run_block``; what names an
instance is its layout, not text, so the three RTL meshes differ only
in integer literals and two designs whose bodies print alike share a
row's hash.  A change that alters the generated C on purpose
regenerates the table and says so::

    PYTHONPATH=src python tests/test_simjit_golden.py --write
"""

import hashlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from repro.core.simjit import SimJITCL, SimJITRTL  # noqa: E402
from repro.core.simjit.specializer import _Specializer  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "simjit_c_sha256.json")

TILE_LEVELS = [
    ("rtl", "rtl", "rtl"), ("rtl", "rtl", "cl"), ("rtl", "rtl", "fl"),
    ("rtl", "cl", "rtl"), ("rtl", "cl", "cl"), ("rtl", "cl", "fl"),
    ("rtl", "fl", "rtl"), ("rtl", "fl", "cl"), ("rtl", "fl", "fl"),
    ("cl", "rtl", "rtl"), ("cl", "rtl", "cl"), ("cl", "rtl", "fl"),
    ("cl", "cl", "rtl"), ("cl", "fl", "rtl"), ("fl", "rtl", "rtl"),
    ("fl", "rtl", "cl"), ("fl", "rtl", "fl"), ("fl", "cl", "rtl"),
    ("fl", "fl", "rtl"),
]


def _mesh(router, n):
    from repro.net import MeshNetworkStructural
    return MeshNetworkStructural(router, n, 256, 32, 2).elaborate()


def _designs():
    """``{name: build}``; ``build()`` specializes whatever it compiles."""
    from repro.net import RouterCL, RouterRTL
    from repro.proc import assemble
    from repro.verif import make_cache_dut, make_mesh_dut, make_proc_dut
    from tests.test_simjit_share import CASES, _Bank

    designs = {}
    for n in (4, 16, 64):
        designs[f"mesh{n}-rtl"] = (
            lambda n=n: SimJITRTL(_mesh(RouterRTL, n)).specialize())
    for router in (RouterRTL, RouterCL):
        designs[f"mesh4-{router.__name__}-simjitcl"] = (
            lambda router=router: SimJITCL(_mesh(router, 4)).specialize())
    designs["mesh16-RouterCL-simjitcl"] = (
        lambda: SimJITCL(_mesh(RouterCL, 16)).specialize())
    for levels in TILE_LEVELS:
        designs["tile-" + "-".join(levels)] = (
            lambda levels=levels: tile_with_engines(levels))
    designs["dut-cache"] = lambda: make_cache_dut("j", "rtl", jit=True)
    designs["dut-proc"] = lambda: make_proc_dut(
        "j", "rtl", assemble("halt"), jit=True)
    designs["dut-mesh"] = lambda: make_mesh_dut("j", "rtl", jit=True)
    for case, (leaves, specializer, *_) in CASES.items():
        designs[f"share-{case}"] = (
            lambda leaves=leaves, specializer=specializer:
            specializer(_Bank(leaves()).elaborate()).specialize())
    return designs


def tile_with_engines(levels):
    """An un-elaborated ``Tile(levels)`` whose accelerator and arbiter,
    where the accelerator is RTL, are each a SimJIT engine spliced in by
    hand, as ``auto_specialize`` splices a subtree's: the engines in an
    event-driven parent that ``jit=True`` built while the scheduler
    demoted their comb blocks as a cycle."""
    from repro.accel import Tile
    tile = Tile(levels)
    if levels[2] == "rtl":
        for name in ("accel", "arbiter"):
            vars(tile)[name] = SimJITRTL(
                getattr(tile, name).elaborate()).specialize()
    return tile


def _sources(name, build):
    """``{"<name> <engine> <class>": C source}`` of everything
    ``build()`` compiles, in the order it compiles it."""
    sources = []
    compile_ = _Specializer._compile

    def recording(self, c_source):
        sources.append((type(self.orig).__name__, c_source))
        return compile_(self, c_source)

    _Specializer._compile = recording
    try:
        build()
    finally:
        _Specializer._compile = compile_
    return {f"{name} {i} {cls}": src for i, (cls, src) in enumerate(sources)}


def _shas(name, build):
    return {key: hashlib.sha256(src.encode()).hexdigest()
            for key, src in _sources(name, build).items()}


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", list(_designs()))
def test_generated_c_matches_the_golden_table(name):
    want = {key: sha for key, sha in _golden().items()
            if key.rsplit(" ", 2)[0] == name}
    sources = _sources(name, _designs()[name])
    # Ten tiles have no RTL accelerator: no entry.
    assert want or not sources, f"{name} is not in {GOLDEN}"
    assert {key: hashlib.sha256(src.encode()).hexdigest()
            for key, src in sources.items()} == want
    # The SimJIT runtime (runtime.c) is no design's.
    for key, src in sources.items():
        assert "obs_" not in src and "tb_uniform" not in src, key


def test_the_table_covers_every_tile_engine():
    """Two components of each of the nine RTL-accelerator tiles."""
    assert sum(key.startswith("tile-") for key in _golden()) == 18


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    table = {}
    for name, build in _designs().items():
        table.update(_shas(name, build))
    with open(GOLDEN, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(table)} entries -> {GOLDEN}")
