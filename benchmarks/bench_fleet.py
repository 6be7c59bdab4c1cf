"""Fleet bench: sharding throughput and supervised-dispatch overhead.

Not a paper figure — quantifies :mod:`repro.fleet`.  Two campaigns go
through one timing helper into one envelope, ``BENCH_fleet.json``:

- **scaling** — mesh differential sweeps (the static-scheduled
  interpreter against the SimJIT kernel of the same RTL mesh) at each
  worker count.  The SimJIT point puts every worker on the shared
  ``.so`` cache, prewarmed before timing so every worker count
  measures simulation, not gcc.
- **dispatch** — near-zero-work tasks, the worst case for the
  supervisor's one-task-at-a-time assignment (the bookkeeping that
  buys crash detection, deadlines and retry): inline, supervised at
  1-per-CPU workers, and supervised with one injected worker kill,
  which prices a detect-respawn-retry cycle.

Asserted: the ``repro-fleet-v1`` report is byte-identical at every
worker count and inline, supervised and under chaos; the chaos run
retried; supervised dispatch stays under 250 ms per task (generous:
CI containers fork slowly; it catches a busy-wait in the supervisor);
and 4 workers reach >= 2.5x one worker's scaling throughput, only when
the host grants >= 4 CPUs (``host_cpus`` is recorded: on fewer the
claim is untestable).  ``BENCH_QUICK=1`` shrinks to mesh16, workers
(1, 2) and fewer null tasks for CI smoke.
"""

import hashlib
import os
import tempfile
import time

from common import QUICK, format_table, write_json_result
from repro.fleet import (
    Campaign,
    CampaignTask,
    ChaosEvent,
    ChaosPlan,
    RetryPolicy,
    VerifSweepTask,
    run_campaign,
)
from repro.fleet.runner import default_nworkers

SEED = 7
NROUTERS = 16 if QUICK else 64
NTASKS = 4 if QUICK else 8
NTXNS_PER_PORT = 2
WORKERS = (1, 2) if QUICK else (1, 2, 4, 8)
NNULL = 8 if QUICK else 32

# Static-vs-SimJIT points: cycle-exact, and the jit point pulls the
# shared .so cache into the measurement.
POINTS = (("static", {"sched": "static"}), ("jit", {"jit": True}))


def _sweeps():
    return Campaign(f"fleet-mesh{NROUTERS}", SEED, [
        VerifSweepTask(f"verif/mesh{NROUTERS}/{i}", scenario="mesh",
                       ntxns=NTXNS_PER_PORT, points=POINTS,
                       dut_params={"nrouters": NROUTERS})
        for i in range(NTASKS)
    ])


class NullTask(CampaignTask):
    """Near-zero work: a handful of RNG draws.  All that is measured
    is the dispatch machinery around it."""

    kind = "null"

    def run(self, rng, ctx):
        draws = [rng.randint(0, 999) for _ in range(8)]
        return ({"sum": sum(draws)},
                {"null": {f"bin{draws[0] % 2}": 1}},
                {"counters": {"null.runs": 1}, "histograms": {}})


def _nulls():
    return Campaign("dispatch-null", SEED,
                    [NullTask(f"null/{i}") for i in range(NNULL)])


def _timed(config, campaign, **kwargs):
    """Run ``campaign`` once; its row and its report bytes."""
    start = time.perf_counter()
    res = run_campaign(campaign, **kwargs)
    elapsed = time.perf_counter() - start
    assert res.ok, res.report["failures"]
    ntasks = len(campaign.tasks)
    return {
        "config": config,
        "nworkers": kwargs["nworkers"],
        "ntasks": ntasks,
        "elapsed_s": round(elapsed, 3),
        "tasks_per_min": round(60.0 * ntasks / elapsed, 2),
        "per_task_ms": round(1000.0 * elapsed / ntasks, 2),
        "retries": res.stats["retries"],
        "respawns": res.stats["respawns"],
    }, res.report_json()


def _scaling():
    cache_dir = os.environ.get("SIMJIT_CACHE_DIR") or tempfile.mkdtemp(
        prefix="fleet_bench_cache_")
    os.environ["SIMJIT_CACHE_DIR"] = cache_dir
    # Prewarm the shared .so cache: the one compile the whole fleet
    # needs should not be charged to (only) the first config timed.
    assert run_campaign(Campaign("prewarm", SEED, [_sweeps().tasks[0]]),
                        nworkers=1).ok

    rows, reports = [], []
    for nworkers in WORKERS:
        row, report = _timed(f"mesh{NROUTERS} x{nworkers}", _sweeps(),
                             nworkers=nworkers)
        rows.append(row)
        reports.append(report)
    for row in rows:
        row["speedup"] = round(
            row["tasks_per_min"] / rows[0]["tasks_per_min"], 2)
    # Worker count must not leak into the report bytes.
    for nworkers, report in zip(WORKERS, reports):
        assert report == reports[0], \
            f"report at {nworkers} workers differs from 1 worker"
    return rows, hashlib.sha256(reports[0].encode()).hexdigest()


def _dispatch():
    nworkers = max(2, min(4, default_nworkers()))
    inline, inline_report = _timed("null inline", _nulls(), nworkers=1)
    supervised, sup_report = _timed(f"null supervised x{nworkers}",
                                    _nulls(), nworkers=nworkers)
    plan = ChaosPlan([ChaosEvent(task=None, index=NNULL // 2,
                                 mode="kill")]).resolve(_nulls())
    plan.install()
    try:
        chaos, chaos_report = _timed(
            f"null chaos kill x{nworkers}", _nulls(), nworkers=nworkers,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01))
    finally:
        ChaosPlan.uninstall()
    # Dispatch strategy and recovery paths are invisible in the
    # report bytes.
    assert sup_report == inline_report
    assert chaos_report == inline_report
    assert chaos["retries"] >= 1
    return [inline, supervised, chaos]


def test_fleet():
    host_cpus = default_nworkers()
    scaling, report_sha = _scaling()
    dispatch = _dispatch()
    rows = scaling + dispatch

    print()
    print(format_table(
        f"fleet: {NTASKS} x mesh{NROUTERS} verif sweeps, {NNULL} null "
        f"tasks (host_cpus={host_cpus})",
        ["config", "elapsed_s", "tasks/min", "per-task ms", "speedup",
         "retries", "respawns"],
        [[r["config"], r["elapsed_s"], r["tasks_per_min"],
          r["per_task_ms"],
          f"{r['speedup']:.2f}x" if "speedup" in r else "-",
          r["retries"], r["respawns"]] for r in rows]))
    write_json_result(
        "fleet", rows, host_cpus=host_cpus, nrouters=NROUTERS,
        ntxns_per_port=NTXNS_PER_PORT, report_sha256=report_sha,
        quick=QUICK)

    supervised = dispatch[1]
    assert supervised["per_task_ms"] < 250.0, \
        f"supervised dispatch {supervised['per_task_ms']}ms/task"
    # The scaling claim needs real parallel hardware to be meaningful.
    if not QUICK and host_cpus >= 4:
        four = next(r for r in scaling if r["nworkers"] == 4)
        assert four["speedup"] >= 2.5, \
            f"4-worker speedup {four['speedup']}x < 2.5x"


if __name__ == "__main__":
    test_fleet()
