#!/usr/bin/env python3
"""Perf ladder: five long-run workloads, three end-to-end metrics, and
a per-layer account measured from outside the program.

Two ways to run ``python3 benchmarks/ladder/run.py``:

``run.py --workload W --seed S --seconds N --trace 0|1``
    One workload in this process.  Prints every metric by name with
    its unit and, as the last line of standard output, one JSON object
    with ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.  This is the command ``BENCHMARK.json`` names.

``run.py [--seed S] [--seconds N] [--trace] [--smoke] [--check-spread]``
    The suite: the five workloads one after another, each in a fresh
    subprocess of the first form.  Writes ``results/latest.json`` (a
    ``repro-bench-v1`` envelope) and, with ``--trace``,
    ``results/trace.json`` (``.work/smoke-results/`` with ``--smoke``).
    ``--check-spread`` makes two sets of ``--rounds`` runs of the same
    code, alternating run by run within each workload, writes
    ``results/spread.json`` and exits non-zero if the two sets' medians
    of an end-to-end metric differ by more than its bound.

Segment and set-up times are corrected for the host's speed with a
calibration loop timed on both sides of each (``make_host_unit``);
README.md beside this file says why, and what each workload and metric
is.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
# Committed results are full-size; a --smoke suite writes beside the
# scratch files instead, so that a test run never rewrites them.
RESULTS = os.path.join(HERE, "results")
SMOKE_RESULTS = os.path.join(WORK_ROOT, "smoke-results")

DEFAULT_SECONDS = 8

# A run times at least this many segments, and every kind of segment
# at least MIN_PER_KIND times, however short ``--seconds`` is: the
# median of fewer says little.  Peak memory is read when the first
# MIN_SEGMENTS are done: how many more fit into ``--seconds`` depends
# on the host's speed, and memory must not.
MIN_SEGMENTS = 12
MIN_PER_KIND = 3

# An untraced set-up is cut into pieces of at least this long where the
# workload allows it, with the calibration loop between them.
MIN_PIECE_S = 0.25

# What the calibration loop reads on this host between segments when
# nothing disturbs it (6.6 to 7.0 ms in the quiet runs of 2026-09-26;
# 6.3 ms on its own, with warm caches).  A timed region's wall time is
# multiplied by NOMINAL/observed, so that on the undisturbed host a
# corrected second is a wall-clock one.
HOST_UNIT_NOMINAL_S = 0.0068


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, i):
        self.value = i
        self.next = i + 1

    def flop(self):
        self.value = self.next & 0xFFFF


def make_host_unit():
    """The calibration loop: a fixed amount of pure-Python work of the
    two kinds the simulator does (integer arithmetic in a tight loop;
    attribute writes, method calls and dict look-ups over 20 000
    objects in shuffled order, about 2.5 MB).  Returns a function that
    runs it three times and returns the median time in seconds, which
    moves with the host's speed and not with the program's.
    """
    cells = [_Cell(i) for i in range(20_000)]
    random.Random(0).shuffle(cells)
    table = dict(enumerate(cells))

    def piece():
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i & 3
        for cell in cells:
            cell.next = cell.value + 3
            cell.flop()
        for i in range(0, 20_000, 2):
            total += table[i].value
        return perf_counter() - start

    def host_unit():
        return statistics.median(piece() for _ in range(3))

    return host_unit


def _import_program():
    """Put the checkout's ``src`` first on the path and import the
    workloads; a directory without the program is an error."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spans
    import workloads
    return spans, workloads


def _cpu_s():
    """CPU seconds of this process and every child it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def _peak_kib(wl):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.rss_includes_children:
        peak = max(peak, resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak


@contextmanager
def _scratch_dir():
    """A directory under ``.work/`` that is this process's TMPDIR (gcc
    and tempfile honour it, so nothing lands outside the checkout)
    until the block ends, when it is removed."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    saved = {key: os.environ.get(key)
             for key in ("TMPDIR", "SIMJIT_CACHE_DIR")}
    os.environ["TMPDIR"] = work
    tempfile.tempdir = None
    try:
        yield work
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)


def run_workload(name, seed=1, seconds=DEFAULT_SECONDS, trace=False,
                 smoke=False, pinned=None):
    """Run one workload in this process; returns the detail dict.

    ``pinned`` maps workload name to the exact statistics seed 1 must
    reproduce (``None`` reads ``pinned_seed1.json``).
    """
    spans, workloads = _import_program()
    rec = spans.Recorder(name, enabled=trace)
    wl = workloads.WORKLOADS[name](seed, smoke, rec)
    if pinned is None:
        with open(os.path.join(HERE, "pinned_seed1.json")) as handle:
            pinned = json.load(handle)["smoke" if smoke else "full"]
    with _scratch_dir() as work:
        return _measure(wl, rec, work, seconds,
                        pinned.get(name) if seed == 1 else None)


@dataclass
class Segment:
    kind: int               # segments of one kind do identical work
    cycles: int             # 0 when a check failed
    wall_s: float
    traced: bool
    host_speed: float = 1.0

    @property
    def corrected_s(self):
        return self.wall_s * self.host_speed


def host_speed(unit_before, unit_after):
    """The host's speed between two runs of the calibration loop:
    1.0 undisturbed, 0.6 beside a busy neighbour."""
    return 2 * HOST_UNIT_NOMINAL_S / (unit_before + unit_after)


class PiecewiseTimer:
    """Times a region in pieces, with the calibration loop before the
    first, between them and after the last; the loop's own time is not
    counted.  A region of seconds has spells of the host inside it
    that the loop at its two ends alone does not see."""

    def __init__(self, host_unit):
        self.host_unit = host_unit
        self.wall_s = self.corrected_s = 0.0
        self.pieces = 0
        self.unit = host_unit()
        self.start = perf_counter()

    def tick(self, last=False):
        """End a piece here, unless it has only just begun."""
        wall = perf_counter() - self.start
        if wall < MIN_PIECE_S and not last:
            return
        unit = self.host_unit()
        self.wall_s += wall
        self.corrected_s += wall * host_speed(self.unit, unit)
        self.pieces += 1
        self.unit = unit
        self.start = perf_counter()


def corrected_rate(segs):
    """Cycles per corrected second over ``segs``: every kind of
    segment counts once, at the median of its corrected times.  With
    one kind that is the median of the per-segment rates."""
    times, cycles = {}, {}
    for seg in segs:
        times.setdefault(seg.kind, []).append(seg.corrected_s)
        cycles[seg.kind] = seg.cycles   # pinned: the same every time
    total = sum(statistics.median(rows) for rows in times.values())
    return sum(cycles.values()) / total if total else 0.0


def _measure(wl, rec, work, seconds, pinned):
    spans, workloads = _import_program()
    trace, smoke = rec.enabled, wl.smoke
    totals = workloads.Ops(attempted=0)
    host_unit = make_host_unit()

    def op(hook, *args):
        """Call one hook as one or more counted operations: a raised
        exception or a newly recorded failed expectation fails it."""
        before = len(wl.failures)
        try:
            ops = hook(*args) or workloads.Ops()
        except Exception:
            wl.failures.append(f"{wl.name}: {hook.__name__} raised:\n"
                               + traceback.format_exc(limit=12))
            ops = workloads.Ops(failed=1)
        if len(wl.failures) > before and not ops.failed:
            ops = workloads.Ops(0, ops.attempted, 1)
        totals.attempted += ops.attempted
        totals.failed += ops.failed
        return ops

    def empty_cache():
        os.environ["SIMJIT_CACHE_DIR"] = tempfile.mkdtemp(
            prefix="simjit-", dir=work)

    # Imports, .pyc files and the first gcc/cffi load are paid by the
    # smallest design of the same kind, untimed.
    empty_cache()
    op(wl.warm)

    # Cold set-ups.  An untraced one is cut wherever the workload
    # ticks (after every ``specialize``); a traced one is left whole,
    # so that no calibration loop runs inside its spans.
    setups = []
    for _ in range(1 if trace or smoke else wl.setup_reps):
        wl.state = None         # the previous rep's design goes first
        empty_cache()
        gc.collect()
        timer = PiecewiseTimer(host_unit)
        if not trace:
            wl.tick = timer.tick
        with spans.attached(wl.setup_meters), rec.span("setup"):
            op(wl.setup)
        timer.tick(last=True)
        wl.tick = lambda: None
        setups.append(timer)
    setup_ok = wl.state is not None

    if setup_ok:
        op(wl.reference)

    # The timed run.  A segment is pinned work; a round is one segment
    # of every kind (one, except for the tiles).  The calibration loop
    # runs before every segment and after the last, so each segment
    # has the host's speed on both sides of it.
    segs, units = [], []
    timed = traced_wall = cpu_used = 0.0
    peak_kib = 0
    need = max(MIN_SEGMENTS, MIN_PER_KIND * wl.round)
    while setup_ok and (len(segs) < need or timed < seconds
                        or len(segs) % wl.round):
        traced = trace and len(segs) // wl.round % 2 == 0
        op(wl.prepare, traced)
        if len(segs) % wl.round == 0:
            gc.collect()
        units.append(host_unit())
        meters = wl.cycle_meters() if traced else []
        cpu_start = _cpu_s()
        start = perf_counter()
        with spans.attached(meters), rec.span("segment", index=len(segs)):
            ops = op(wl.segment)
        elapsed = perf_counter() - start
        cpu_used += _cpu_s() - cpu_start
        timed += elapsed
        if traced:
            traced_wall += elapsed
            wl.traced_segments += 1
        segs.append(Segment(ops.kind, ops.cycles, elapsed, traced))
        if len(segs) == MIN_SEGMENTS:
            peak_kib = _peak_kib(wl)
        if ops.failed and not ops.cycles:
            break                   # a segment that fails will fail again
    units.append(host_unit())
    for seg, before, after in zip(segs, units, units[1:]):
        seg.host_speed = host_speed(before, after)

    good = [seg for seg in segs if seg.cycles]
    end_to_end = {
        "cycles_per_s": corrected_rate(good),
        "setup_s": statistics.median(
            timer.corrected_s for timer in setups),
        "peak_rss_mb": (peak_kib or _peak_kib(wl)) / 1024.0,
    }
    # One rate per whole round, for the spread inside the run.
    rounds = [segs[i:i + wl.round]
              for i in range(0, len(segs) - wl.round + 1, wl.round)]
    rounds = [rnd for rnd in rounds if all(seg.cycles for seg in rnd)]
    round_rates = [sum(seg.cycles for seg in rnd)
                   / sum(seg.corrected_s for seg in rnd) for rnd in rounds]
    wall_rates = [sum(seg.cycles for seg in rnd)
                  / sum(seg.wall_s for seg in rnd) for rnd in rounds]

    layers = {}
    if trace:
        layers = {name: 0.0 for name, _, _ in workloads.PER_LAYER}
        if setup_ok and good:
            op(wl.layers, layers, traced_wall)
            on = [seg for seg in good if seg.traced]
            off = [seg for seg in good if not seg.traced]
            if on and off:
                layers["bench.trace_overhead"] = 1.0 - (
                    corrected_rate(on) / corrected_rate(off))
            layers["bench.segment_iqr"] = spans.iqr_share(round_rates)
            layers["bench.cpu_share"] = cpu_used / timed / wl.parallelism
            layers["bench.host_spin_ms"] = statistics.median(units) * 1e3
            layers["bench.host_spin_spread"] = spans.iqr_share(units)
            layers["bench.setup_span_cover"] = rec.child_cover("setup")

    if pinned is not None:
        op(wl.check_pinned, pinned)

    q1, median, q3 = (spans.quartiles(round_rates) if round_rates
                      else (0.0, 0.0, 0.0))
    speeds = [seg.host_speed for seg in segs]
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": seconds,
        "traced": bool(trace),
        "smoke": bool(smoke),
        "ops_attempted": totals.attempted,
        "ops_failed": totals.failed,
        "failures": wl.failures,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "segments": {
            "count": len(segs), "rounds": len(rounds), "timed_s": timed,
            "round_rates": round_rates, "rate_q1": q1,
            "rate_median": median, "rate_q3": q3,
            "wall_rate_median": (statistics.median(wall_rates)
                                 if wall_rates else 0.0),
            "host_speed_median": (statistics.median(speeds)
                                  if speeds else 0.0),
            "host_speed_min": min(speeds, default=0.0),
            "host_speed_max": max(speeds, default=0.0)},
        "setup_reps": [{"wall_s": timer.wall_s,
                        "corrected_s": timer.corrected_s,
                        "pieces": timer.pieces} for timer in setups],
        "exact": wl.exact,
        "trace": rec.to_json() if trace else None,
    }


def contract_line(detail, workloads):
    """The one JSON object the benchmark contract asks for."""
    table, values = ((workloads.PER_LAYER, detail["per_layer"])
                     if detail["traced"]
                     else (workloads.END_TO_END, detail["end_to_end"]))
    return json.dumps({
        "correct": detail["ops_failed"] == 0,
        "attempted": max(1, detail["ops_attempted"]),
        "failed": detail["ops_failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table},
    })


def print_metrics(detail, workloads):
    values = {**detail["end_to_end"], **detail["per_layer"]}
    segs = detail["segments"]
    print(f"== {detail['workload']}  seed {detail['seed']}  "
          f"{'traced' if detail['traced'] else 'untraced'}  "
          f"{segs['count']} segments in {segs['timed_s']:.1f} s  "
          f"host speed {segs['host_speed_median']:.2f} "
          f"({segs['host_speed_min']:.2f}..{segs['host_speed_max']:.2f})  "
          f"uncorrected {segs['wall_rate_median']:.6g} cycles/s  ops "
          f"{detail['ops_attempted']} attempted / "
          f"{detail['ops_failed']} failed")
    for name, unit, _ in workloads.END_TO_END + workloads.PER_LAYER:
        if name in values:
            print(f"  {name:<40} {values[name]:>16.6g} {unit}")
    for line in detail["failures"]:
        print("  FAILED " + line)


# -- the suite: one fresh subprocess per workload ----------------------


def _child(name, args, trace, out_dir):
    """Run one workload in a fresh interpreter; returns its detail."""
    out = os.path.join(out_dir, f"{name}-{int(trace)}.json")
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(trace)),
           "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"run.py: {name} exited with code {done.returncode}")
    with open(out) as handle:
        return json.load(handle)


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _envelope(bench, args, **body):
    """``repro-bench-v1``: what ``repro.insight.load_report`` accepts."""
    return {
        "schema": "repro-bench-v1",
        "bench": bench,
        "git_sha": _git_sha(),
        "host": {
            "host_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "platform": sys.platform,
            "python": platform.python_version(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": bool(args.smoke),
        **body,
    }


def _write(name, payload):
    results = SMOKE_RESULTS if payload["smoke"] else RESULTS
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"[json] {os.path.relpath(path, ROOT)}")


def _result_row(detail):
    row = {k: detail[k] for k in (
        "workload", "ops_attempted", "ops_failed", "failures",
        "segments", "setup_reps", "exact")}
    row["metrics"] = detail["end_to_end"]
    return row


def run_suite(args, workloads, out_dir):
    results, traces = [], []
    for name in workloads.WORKLOADS:
        detail = _child(name, args, False, out_dir)
        row = _result_row(detail)
        if args.trace:
            traced = _child(name, args, True, out_dir)
            row["per_layer"] = traced["per_layer"]
            row["ops_attempted"] += traced["ops_attempted"]
            row["ops_failed"] += traced["ops_failed"]
            row["failures"] += traced["failures"]
            traces.append(traced["trace"])
        results.append(row)
    _write("latest.json", _envelope("ladder", args, results=results))
    if args.trace:
        _write("trace.json", _envelope("ladder-trace", args,
                                       results=traces))
    return sum(row["ops_failed"] for row in results)


def check_spread(args, workloads, out_dir):
    """Two sets of ``args.rounds`` runs of the same code, alternating
    run by run within each workload so that both sets see the same
    spells of the host, must agree: the medians of every end-to-end
    metric within its bound, and every exact statistic in every run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(handle)["end_to_end"]}
    results, over = [], []
    for name in workloads.WORKLOADS:
        sets = ([], [])
        for i in range(2 * args.rounds):
            sets[i % 2].append(_child(name, args, False, out_dir))
        runs = sets[0] + sets[1]
        row = {"workload": name, "metrics": {},
               "exact_identical": all(run["exact"] == runs[0]["exact"]
                                      for run in runs),
               "ops_failed": sum(run["ops_failed"] for run in runs)}
        if not row["exact_identical"] or row["ops_failed"]:
            over.append(f"{name}: exact statistics differ or ops failed")
        for metric, _, _ in workloads.END_TO_END:
            values = [[run["end_to_end"][metric] for run in side]
                      for side in sets]
            a, b = (statistics.median(side) for side in values)
            spread = abs(a - b) / min(a, b) if min(a, b) else float("inf")
            row["metrics"][metric] = {
                "first": a, "second": b, "spread": spread,
                "bound": bounds[metric], "values": values}
            print(f"  {name:<16} {metric:<14} {a:>12.6g} {b:>12.6g}  "
                  f"spread {spread:6.2%}  bound {bounds[metric]:.0%}")
            if spread > bounds[metric]:
                over.append(f"{name}/{metric}: {spread:.2%} > "
                            f"{bounds[metric]:.0%}")
        results.append(row)
    _write("spread.json", _envelope("ladder-spread", args,
                                    rounds=args.rounds,
                                    results=results, over=over))
    for line in over:
        print("OVER " + line)
    return len(over)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process (the BENCHMARK.json command)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: mesh16, 3 tiles, 2 tasks")
    parser.add_argument("--check-spread", action="store_true")
    parser.add_argument("--rounds", type=int, default=5,
                        help="with --check-spread: runs per set")
    parser.add_argument("--out", help="with --workload: also write "
                        "the full detail as JSON to this file")
    args = parser.parse_args(argv)

    _, workloads = _import_program()
    if args.workload:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of "
                         f"{', '.join(workloads.WORKLOADS)}")
        detail = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(detail, handle)
        print_metrics(detail, workloads)
        print(contract_line(detail, workloads), flush=True)
        return 0

    os.makedirs(WORK_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="suite-", dir=WORK_ROOT)
    try:
        if args.check_spread:
            return 1 if check_spread(args, workloads, out_dir) else 0
        return 1 if run_suite(args, workloads, out_dir) else 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
