"""Shared infrastructure for the paper-reproduction benchmarks.

Provides:

- mesh builders at FL/CL/RTL detail (interpreted or SimJIT-compiled);
- the paired order-alternating timing harness every gated ratio comes
  from;
- result-table helpers that print the rows each figure reports and
  persist them under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

from repro.core.simjit import SimJITCL, SimJITRTL
from repro.net import MeshNetworkStructural, NetworkFL, RouterCL, RouterRTL

NMSGS = 256
DATA_NBITS = 32
NENTRIES = 2

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: ``BENCH_QUICK=1`` shrinks a bench's workload for CI smoke runs.
QUICK = os.environ.get("BENCH_QUICK", "0").strip().lower() not in (
    "", "0", "false", "no")


class Pedantic:
    """pytest-benchmark's fixture, for a bench run as a script: its
    ``pedantic`` calls the function once."""

    def pedantic(self, fn, rounds=1, iterations=1):
        fn()


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


def build_jit_network(level, nrouters, cache=True):
    """SimJIT-specialized mesh; returns (wrapper_model, specializer)."""
    net = build_network(level, nrouters)
    spec = specializer_for(level)(net, cache=cache)
    wrapper = spec.specialize().elaborate()
    return wrapper, spec


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
    ``pair_spread`` — the relative interquartile spread of the per-rep
    slowdown ratios, i.e. the *observed* noise floor of this
    measurement.  The regression gate (:mod:`repro.insight.gate`)
    widens its tolerance by a multiple of this recorded spread, so
    noisy hosts gate loosely and quiet hosts gate tightly.
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

    def _ratios(self):
        return [tb / ta for ta, tb in zip(self.times_a, self.times_b)
                if ta > 0]

    @property
    def slowdown(self):
        """Paired slowdown of b relative to a: the median of the
        per-rep b/a ratios.  Unlike a ratio of the two best-of times,
        it does not move when the host's speed shifts between reps."""
        return statistics.median(self._ratios())

    @property
    def pair_spread(self):
        """Interquartile range of the per-rep b/a ratios over their
        median: how much the slowdown estimate itself wobbled across
        reps, without letting the one rep a burst of host load landed
        on decide it."""
        ratios = self._ratios()
        if len(ratios) < 2:
            return 0.0
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        return (q3 - q1) / median if median > 0 else 0.0


def calibrate(fn, min_rep_seconds, start_cycles=64,
              clock=time.process_time):
    """Grow the rep length until one rep runs at least
    ``min_rep_seconds`` — idle-mesh kernel cycles are sub-microsecond,
    far below timer resolution at fixed small N."""
    ncycles = start_cycles
    while True:
        start = clock()
        fn(ncycles)
        elapsed = clock() - start
        if elapsed >= min_rep_seconds:
            return ncycles, elapsed
        ncycles *= 4


def best_of(fn, reps, min_rep_seconds, start_cycles=64):
    """Best-of-``reps`` rate for a single workload: (ncycles, cyc/s)."""
    ncycles, first = calibrate(fn, min_rep_seconds, start_cycles)
    best = first
    for _ in range(reps - 1):
        start = time.process_time()
        fn(ncycles)
        best = min(best, time.process_time() - start)
    return ncycles, ncycles / best


def best_of_paired(fn_a, fn_b, reps, min_rep_seconds, warmup_b=False,
                   clock=time.process_time, start_cycles=64):
    """Time two workloads at the same cycle count with alternating
    reps; returns a :class:`PairedTiming`.

    Which workload goes first swaps every rep: under thermal
    throttling the second slot is systematically slower, and the
    alternation cancels that bias out of the ratio.  ``warmup_b``
    runs ``fn_b`` once at the calibrated length before timing starts
    (``fn_a`` is warm from calibration) — for workloads with one-shot
    transients like buffer growth.  ``clock`` is this process's CPU
    time unless the workload's cost lies in a child process (gcc),
    which a clock adding the children's CPU time (``getrusage``) or
    the wall clock sees.  ``start_cycles`` is the shortest
    rep calibration tries, for workloads with a start-up transient.
    """
    ncycles, _ = calibrate(fn_a, min_rep_seconds, start_cycles, clock)
    if warmup_b:
        fn_b(ncycles)
    times_a, times_b = [], []
    for rep in range(2 * reps):
        first, second = (fn_a, fn_b) if rep % 2 == 0 else (fn_b, fn_a)
        start = clock()
        first(ncycles)
        mid = clock()
        second(ncycles)
        end = clock()
        t_first, t_second = mid - start, end - mid
        t_a, t_b = ((t_first, t_second) if rep % 2 == 0
                    else (t_second, t_first))
        times_a.append(t_a)
        times_b.append(t_b)
    return PairedTiming(ncycles, times_a, times_b)


def paired_entry(config, base, timing, **extra):
    """One gated ``repro-bench-v1`` entry: ``config`` timed against
    the workload named ``base`` by :func:`best_of_paired`.  The ratio
    is lower-is-better, so the insight gate reads it as it is."""
    return {"config": config, "base": base,
            f"slowdown_vs_{base}": timing.slowdown,
            "pair_spread": timing.pair_spread, **extra}


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
