"""Shared infrastructure for the paper-reproduction benchmarks.

Provides:

- mesh builders at FL/CL/RTL detail (interpreted or SimJIT-compiled);
- an all-in-C uniform-random traffic driver generated alongside the
  SimJIT model — the "efficiency-level-language reference" role played
  in the paper by hand-written C++ / verilated simulators (DESIGN.md
  documents this substitution);
- result-table helpers that print the rows each figure reports and
  persist them under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import sys
import time

from repro.core.simjit import SimJITCL, SimJITRTL
from repro.net import (
    MeshNetworkStructural,
    NetMsg,
    NetworkFL,
    NetworkTrafficHarness,
    RouterCL,
    RouterRTL,
)

NMSGS = 256
DATA_NBITS = 32
NENTRIES = 2

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def build_network(level, nrouters):
    """Fresh elaborated network model at the requested level."""
    if level == "fl":
        return NetworkFL(nrouters, NMSGS, DATA_NBITS, NENTRIES).elaborate()
    router = RouterCL if level == "cl" else RouterRTL
    return MeshNetworkStructural(
        router, nrouters, NMSGS, DATA_NBITS, NENTRIES
    ).elaborate()


def specializer_for(level):
    return SimJITCL if level == "cl" else SimJITRTL


def build_jit_network(level, nrouters, extra_c="", extra_cdef="",
                      cache=True):
    """SimJIT-specialized mesh; returns (wrapper_model, specializer)."""
    net = build_network(level, nrouters)
    spec = specializer_for(level)(
        net, extra_c=extra_c, extra_cdef=extra_cdef, cache=cache)
    wrapper = spec.specialize().elaborate()
    return wrapper, spec


# -- all-C traffic driver ----------------------------------------------------------

_DRIVER_CDEF = """
void run_traffic(void *p, int ncycles, int rate_milli, unsigned seed,
                 int64_t *stats);
"""

_DRIVER_TEMPLATE = r"""
/* ---- generated all-C uniform-random traffic driver ---- */

#define NTERM %(nterm)d

static const int drv_in_msg[NTERM] = {%(in_msg)s};
static const int drv_in_val[NTERM] = {%(in_val)s};
static const int drv_in_rdy[NTERM] = {%(in_rdy)s};
static const int drv_out_msg[NTERM] = {%(out_msg)s};
static const int drv_out_val[NTERM] = {%(out_val)s};
static const int drv_out_rdy[NTERM] = {%(out_rdy)s};

void run_traffic(void *p, int ncycles, int rate_milli, unsigned seed,
                 int64_t *stats) {
    inst_t *I = (inst_t *)p;
    unsigned lcg = seed * 2654435761u + 1u;
    int64_t injected = 0, ejected = 0, lat_sum = 0, lat_n = 0;
    long long pending[NTERM];
    int have[NTERM];
    for (int i = 0; i < NTERM; i++) { have[i] = 0; pending[i] = 0; }
    for (int i = 0; i < NTERM; i++)
        I->cur[drv_out_rdy[i]] = 1;

    unsigned seq = 0;
    for (int cyc = 0; cyc < ncycles; cyc++) {
        for (int i = 0; i < NTERM; i++) {
            if (!have[i]) {
                lcg = lcg * 1664525u + 1013904223u;
                if ((lcg >> 8) %% 1000 < (unsigned)rate_milli) {
                    lcg = lcg * 1664525u + 1013904223u;
                    unsigned dest = (lcg >> 8) %% NTERM;
                    long long ts = cyc + 1;
                    long long msg =
                        ((long long)dest << %(dest_shift)d) |
                        ((long long)i << %(src_shift)d) |
                        ((long long)(seq++ %% %(nmsgs)d)
                         << %(seq_shift)d) |
                        (ts & 0xFFFFFFFFLL);
                    pending[i] = msg;
                    have[i] = 1;
                    injected++;
                }
            }
            if (have[i]) {
                I->cur[drv_in_msg[i]] = (u128)pending[i];
                I->cur[drv_in_val[i]] = 1;
            } else {
                I->cur[drv_in_val[i]] = 0;
            }
        }
        int accepted[NTERM];
        for (int i = 0; i < NTERM; i++)
            accepted[i] = have[i] && (int)I->cur[drv_in_rdy[i]];
        cycle(p, 1);
        for (int i = 0; i < NTERM; i++)
            if (accepted[i]) have[i] = 0;
        for (int i = 0; i < NTERM; i++) {
            if ((int)I->cur[drv_out_val[i]]) {
                long long ts =
                    (long long)(I->cur[drv_out_msg[i]] & 0xFFFFFFFF);
                ejected++;
                if (ts) { lat_sum += (cyc + 1) - ts; lat_n++; }
            }
        }
    }
    stats[0] = injected;
    stats[1] = ejected;
    stats[2] = lat_sum;
    stats[3] = lat_n;
}
"""


def make_traffic_driver_source(net, slot_of):
    """Generate the all-C driver for an elaborated network model."""
    nterm = len(net.in_)
    msg_type = net.msg_type
    dest_lo, _ = msg_type.field_slice("dest")
    src_lo, _ = msg_type.field_slice("src")
    seq_lo, _ = msg_type.field_slice("opaque")

    def slots(ports):
        return ", ".join(str(slot_of(p)) for p in ports)

    return _DRIVER_TEMPLATE % {
        "nterm": nterm,
        "in_msg": slots([b.msg for b in net.in_]),
        "in_val": slots([b.val for b in net.in_]),
        "in_rdy": slots([b.rdy for b in net.in_]),
        "out_msg": slots([b.msg for b in net.out]),
        "out_val": slots([b.val for b in net.out]),
        "out_rdy": slots([b.rdy for b in net.out]),
        "dest_shift": dest_lo,
        "src_shift": src_lo,
        "seq_shift": seq_lo,
        "nmsgs": NMSGS,
    }


def build_c_reference(level, nrouters, cache=True):
    """Compile mesh + all-C driver; returns a callable
    run(ncycles, rate, seed) -> dict of stats, plus the specializer."""
    net = build_network(level, nrouters)
    # Slot mapping must match the specializer's (_all_nets order).
    slot_index = {id(n): i for i, n in enumerate(net._all_nets)}

    def slot_of(sig):
        return slot_index[id(sig._net.find())]

    driver = make_traffic_driver_source(net, slot_of)
    spec = specializer_for(level)(
        net, extra_c=driver, extra_cdef=_DRIVER_CDEF, cache=cache)
    wrapper = spec.specialize()
    engine = wrapper.jit_engine
    stats_buf = engine._ffi.new("int64_t[4]")

    def run(ncycles, rate, seed=1):
        engine.lib.run_traffic(
            engine.inst, ncycles, int(rate * 1000), seed, stats_buf)
        injected, ejected, lat_sum, lat_n = list(stats_buf)
        return {
            "injected": injected,
            "ejected": ejected,
            "avg_latency": lat_sum / lat_n if lat_n else float("nan"),
        }

    return run, spec


# -- measurement helpers --------------------------------------------------------------


def time_interp_network(level, nrouters, ncycles, rate=0.25, seed=1):
    net = build_network(level, nrouters)
    harness = NetworkTrafficHarness(net, seed=seed)
    start = time.perf_counter()
    harness.run_uniform_random(rate, ncycles, drain=0)
    return time.perf_counter() - start


def time_jit_network(level, nrouters, ncycles, rate=0.25, seed=1,
                     include_overheads=False):
    start_total = time.perf_counter()
    wrapper, spec = build_jit_network(level, nrouters,
                                      cache=not include_overheads)
    harness = NetworkTrafficHarness(wrapper, seed=seed)
    start_sim = time.perf_counter()
    harness.run_uniform_random(rate, ncycles, drain=0)
    end = time.perf_counter()
    if include_overheads:
        return end - start_total
    return end - start_sim


def time_c_reference(level, nrouters, ncycles, rate=0.25, seed=1):
    run, _ = build_c_reference(level, nrouters)
    start = time.perf_counter()
    run(ncycles, rate, seed)
    return time.perf_counter() - start


# -- paired order-alternating timing harness ------------------------------------------
#
# One shared implementation of the measurement idiom every overhead
# bench uses (and the insight gate consumes): calibrate the rep length
# until one rep clears the timer floor, then time the two workloads in
# alternating order so slow drift in host CPU speed (thermal /
# frequency scaling) hits both equally — the only honest way to
# resolve a small ratio between them.


class PairedTiming:
    """Result of one paired order-alternating measurement.

    Holds the per-rep times for both workloads (same ``ncycles``
    each), exposes best-of rates, the paired slowdown estimate, and
    ``pair_spread`` — the relative spread of the per-rep slowdown
    ratios, i.e. the *observed* noise floor of this measurement.  The
    regression gate (:mod:`repro.insight.gate`) widens its tolerance
    by a multiple of this recorded spread, so noisy hosts gate
    loosely and quiet hosts gate tightly.
    """

    def __init__(self, ncycles, times_a, times_b):
        self.ncycles = ncycles
        self.times_a = list(times_a)
        self.times_b = list(times_b)

    @property
    def best_a(self):
        return min(self.times_a)

    @property
    def best_b(self):
        return min(self.times_b)

    @property
    def cps_a(self):
        return self.ncycles / self.best_a

    @property
    def cps_b(self):
        return self.ncycles / self.best_b

    @property
    def slowdown(self):
        """Best-of paired slowdown of b relative to a."""
        return self.best_b / self.best_a

    @property
    def pair_spread(self):
        """Relative spread of the per-rep b/a ratios: how much the
        slowdown estimate itself wobbled across reps."""
        ratios = [tb / ta for ta, tb in zip(self.times_a, self.times_b)
                  if ta > 0]
        if len(ratios) < 2:
            return 0.0
        low = min(ratios)
        return (max(ratios) - low) / low if low > 0 else 0.0

    def __iter__(self):
        # Legacy tuple shape: (ncycles, cps_a, cps_b).
        return iter((self.ncycles, self.cps_a, self.cps_b))


def calibrate(fn, min_rep_seconds, start_cycles=64):
    """Grow the rep length until one rep runs at least
    ``min_rep_seconds`` — idle-mesh kernel cycles are sub-microsecond,
    far below timer resolution at fixed small N."""
    ncycles = start_cycles
    while True:
        start = time.process_time()
        fn(ncycles)
        elapsed = time.process_time() - start
        if elapsed >= min_rep_seconds:
            return ncycles, elapsed
        ncycles *= 4


def best_of(fn, reps, min_rep_seconds):
    """Best-of-``reps`` rate for a single workload: (ncycles, cyc/s)."""
    ncycles, first = calibrate(fn, min_rep_seconds)
    best = first
    for _ in range(reps - 1):
        start = time.process_time()
        fn(ncycles)
        best = min(best, time.process_time() - start)
    return ncycles, ncycles / best


def best_of_paired(fn_a, fn_b, reps, min_rep_seconds, warmup_b=False):
    """Time two workloads at the same cycle count with alternating
    reps; returns a :class:`PairedTiming`.

    Which workload goes first swaps every rep: under thermal
    throttling the second slot is systematically slower, and the
    alternation cancels that bias out of the ratio.  ``warmup_b``
    runs ``fn_b`` once at the calibrated length before timing starts
    (``fn_a`` is warm from calibration) — for workloads with one-shot
    transients like buffer growth.
    """
    ncycles, _ = calibrate(fn_a, min_rep_seconds)
    if warmup_b:
        fn_b(ncycles)
    times_a, times_b = [], []
    for rep in range(2 * reps):
        first, second = (fn_a, fn_b) if rep % 2 == 0 else (fn_b, fn_a)
        start = time.process_time()
        first(ncycles)
        mid = time.process_time()
        second(ncycles)
        end = time.process_time()
        t_first, t_second = mid - start, end - mid
        t_a, t_b = ((t_first, t_second) if rep % 2 == 0
                    else (t_second, t_first))
        times_a.append(t_a)
        times_b.append(t_b)
    return PairedTiming(ncycles, times_a, times_b)


# -- reporting -----------------------------------------------------------------------


def write_result(name, text):
    """Persist a result table under benchmarks/results/, stamped with
    the commit it ran on, and print it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(f"{text}\n(commit {git_sha()})\n")
    print()
    print(text)
    return path


def git_sha():
    """Short commit sha of the working tree (``-dirty`` when it has
    uncommitted changes), or "unknown"."""
    import subprocess
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(__file__), capture_output=True,
            text=True, timeout=10,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def host_fingerprint():
    """Describe the measuring host: cpu budget, arch, interpreter.

    Stamped into every ``repro-bench-v1`` envelope so the regression
    gate can tell a same-host A/B comparison from a cross-machine one
    (absolute rates only transfer within the former).
    """
    import platform
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return {
        "host_cpus": cpus,
        "machine": platform.machine(),
        "platform": sys.platform,
        "python": platform.python_version(),
    }


def write_json_result(name, results, **extra):
    """Persist machine-readable benchmark output as ``BENCH_<name>.json``.

    ``results`` is a list of measurement dicts (design, mode,
    cycles_per_sec, ...).  The ``repro-bench-v1`` envelope stamps the
    schema id, the git sha, and the host fingerprint so numbers stay
    attributable — and gateable (:mod:`repro.insight.gate`) — after
    the fact.
    """
    import json
    payload = {
        "schema": "repro-bench-v1",
        "bench": name,
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "results": results,
    }
    payload.update(extra)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n[json] {path}")
    return path


def format_table(title, headers, rows):
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
        else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
