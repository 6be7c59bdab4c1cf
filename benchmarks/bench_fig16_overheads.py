"""Figure 16: SimJIT specialization overheads.

The paper tabulates per-phase overheads (elaboration, code generation,
verilation, compilation, Python wrapping, simulator creation) for
SimJIT-CL and SimJIT-RTL on 16- and 64-node meshes, observing that
compile time dominates and grows with design size.

Our phases map as: elab = elaboration + net flattening; veri = IR
lowering + static scheduling (the translation role Verilator plays in
the paper's RTL flow); cgen = C emission; comp = gcc; wrap = dlopen +
engine construction; simc = wrapper-model creation.

For each level ``common.best_of_paired`` times a cold 64-node build
(the network, then a cache-off specialization) against the 16-node one
on the wall clock, as gcc runs in a child process.  The 64-node entry
carries the ratio (``slowdown_vs_mesh16``, lower is better) for the
insight gate: the paper's "overheads grow with design size", which
would also rise if the routers stopped sharing one compiled body.  The
table prints each side's fastest call; ``BENCH_QUICK=1`` runs fewer
pairs.
"""

import time

from common import (QUICK, Pedantic, best_of_paired, build_network,
                    format_table, paired_entry, specializer_for,
                    write_json_result, write_result)

LEVELS = ("cl", "rtl")
PHASES = ["elab", "veri", "cgen", "comp", "wrap", "simc"]
REPS = 3 if QUICK else 5


def _total(overheads):
    return sum(overheads.get(p, 0.0) for p in PHASES)


def _cold_specializations(level, nrouters, runs):
    """A ``best_of_paired`` workload whose every call (whatever cycle
    count it is given) builds the network and specializes it cold,
    appending the specializer's phases to ``runs``."""
    def specialize(_ncycles):
        spec = specializer_for(level)(build_network(level, nrouters),
                                      cache=False)
        spec.specialize()
        runs.append(dict(spec.overheads,
                         c_source_bytes=len(spec.c_source),
                         blocks=spec.kernel_info["blocks"],
                         functions=spec.kernel_info["functions"]))
    return specialize


def measure(level):
    """The 16-node row (phases only) and the gated 64-node row."""
    small, big = [], []
    # A zero rep floor: calibration takes its first call, one
    # specialization per rep.
    timing = best_of_paired(
        _cold_specializations(level, 16, small),
        _cold_specializations(level, 64, big), REPS, 0.0,
        warmup_b=True, clock=time.perf_counter)

    def row(runs):
        best = min(runs, key=_total)
        return {**{p: round(best.get(p, 0.0), 4) for p in PHASES},
                **{k: best[k]
                   for k in ("c_source_bytes", "blocks", "functions")}}

    return [{"config": f"{level.upper()} 16", **row(small)},
            paired_entry(f"{level.upper()} 64", "mesh16", timing,
                         **row(big), seconds=round(timing.best_b, 4),
                         base_seconds=round(timing.best_a, 4))]


def test_fig16_overheads_table(benchmark):
    entries = []

    def run_all():
        for level in LEVELS:
            entries.extend(measure(level))

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [[e["config"]] + [f"{e[p]:.2f}" for p in PHASES]
            + [f"{_total(e):.2f}",
               f"{e['slowdown_vs_mesh16']:.2f}x"
               if "slowdown_vs_mesh16" in e else "-"]
            for e in entries]
    text = format_table(
        "Figure 16: SimJIT specialization overheads (seconds; "
        "vs 16: paired wall-clock ratio of the cold builds)",
        ["config"] + PHASES + ["total", "vs 16"],
        rows,
    )
    write_result("fig16_overheads.txt", text)
    write_json_result("fig16", entries, quick=QUICK)

    # Paper shape 1: compilation is the largest single phase of every
    # configuration.  Not "more than the others together": gcc sees one
    # function per distinct block body, which leaves an RTL mesh's comp
    # within a small factor of its veri (EXPERIMENTS.md, Figure 16).
    for entry in entries:
        assert entry["comp"] == max(entry[p] for p in PHASES), entry

    # Paper shape 2: overheads grow with design size.
    for entry in entries:
        if "slowdown_vs_mesh16" in entry:
            assert entry["slowdown_vs_mesh16"] > 1.0, entry


def test_fig16_caching_removes_compile_overhead(benchmark):
    """Paper Section IV-A: SimJIT-RTL caches translation results, so a
    second specialization of the same design skips verilation+compile."""
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


if __name__ == "__main__":
    test_fig16_overheads_table(Pedantic())
