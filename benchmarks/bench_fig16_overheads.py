"""Figure 16: SimJIT specialization overheads.

The paper tabulates per-phase overheads (elaboration, code generation,
verilation, compilation, Python wrapping, simulator creation) for
SimJIT-CL and SimJIT-RTL on 16- and 64-node meshes, observing that
compile time dominates and grows with design size.

Our phases map as: elab = elaboration + net flattening; veri = IR
lowering + static scheduling (the translation role Verilator plays in
the paper's RTL flow); cgen = C emission; comp = gcc; wrap = dlopen +
engine construction; simc = wrapper-model creation.
"""

import pytest

from common import (build_network, format_table, specializer_for,
                    write_json_result, write_result)

CONFIGS = [("cl", 16), ("cl", 64), ("rtl", 16), ("rtl", 64)]
PHASES = ["elab", "veri", "cgen", "comp", "wrap", "simc"]


def _measure(level, nrouters):
    net = build_network(level, nrouters)
    spec = specializer_for(level)(net, cache=False)
    spec.specialize()
    return dict(spec.overheads, c_source_bytes=len(spec.c_source),
                blocks=spec.kernel_info["blocks"],
                functions=spec.kernel_info["functions"])


def test_fig16_overheads_table(benchmark):
    rows = []
    measured = {}

    def run_all():
        for level, nrouters in CONFIGS:
            measured[(level, nrouters)] = _measure(level, nrouters)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    for level, nrouters in CONFIGS:
        overheads = measured[(level, nrouters)]
        total = sum(overheads.get(p, 0.0) for p in PHASES)
        rows.append(
            [f"{level.upper()} {nrouters}"]
            + [f"{overheads.get(p, 0.0):.2f}" for p in PHASES]
            + [f"{total:.2f}"]
        )
    text = format_table(
        "Figure 16: SimJIT specialization overheads (seconds)",
        ["config"] + PHASES + ["total"],
        rows,
    )
    write_result("fig16_overheads.txt", text)
    write_json_result("fig16", [
        {"config": f"{level.upper()} {nrouters}",
         **{p: round(overheads.get(p, 0.0), 4) for p in PHASES},
         **{k: overheads[k]
            for k in ("c_source_bytes", "blocks", "functions")}}
        for (level, nrouters), overheads in measured.items()])

    # Paper shape 1: compilation is the largest single phase of every
    # configuration.  Not "more than the others together": gcc sees one
    # function per distinct block body, which leaves an RTL mesh's comp
    # within a small factor of its veri (EXPERIMENTS.md, Figure 16).
    for (level, nrouters), overheads in measured.items():
        assert overheads["comp"] == max(
            overheads.get(p, 0.0) for p in PHASES), (level, nrouters)

    # Paper shape 2: overheads grow with design size.
    for level in ("cl", "rtl"):
        small = sum(measured[(level, 16)].get(p, 0.0) for p in PHASES)
        big = sum(measured[(level, 64)].get(p, 0.0) for p in PHASES)
        assert big > small, level


def test_fig16_caching_removes_compile_overhead(benchmark):
    """Paper Section IV-A: SimJIT-RTL caches translation results, so a
    second specialization of the same design skips verilation+compile."""
    from common import NENTRIES
    net_a = build_network("rtl", 16)
    spec_a = specializer_for("rtl")(net_a)   # cache on

    def first():
        spec_a.specialize()

    benchmark.pedantic(first, rounds=1, iterations=1)

    net_b = build_network("rtl", 16)
    spec_b = specializer_for("rtl")(net_b)
    spec_b.specialize()
    assert spec_b.overheads["cache_hit"]
    assert spec_b.overheads["comp"] <= 0.2
