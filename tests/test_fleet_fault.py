"""Fault-tolerant fleet properties: chaos survival, retry/backoff,
quarantine, journaling/resume, interruption, and budget watchdogs.

The supervisor's headline contract extends the fleet determinism
property into the failure domain:

1. **Chaos convergence** — a campaign with deterministically injected
   worker kills / hangs / allocation spikes converges, via bounded
   retry, to the *exact report bytes* of an undisturbed run.
2. **Quarantine** — a task that keeps killing its worker becomes a
   structured, deterministic ``"poisoned"`` result instead of hanging
   or crashing the campaign.
3. **Journal/resume** — every completion is write-ahead-logged;
   ``run_campaign(..., resume=path)`` replays completed tasks without
   re-executing them and reproduces byte-identical report output.
4. **Interruption** — Ctrl-C yields a partial ``FleetResult`` (status
   ``"interrupted"``) with the pool torn down, not a traceback.
5. **Budgets** — ``wall_budget`` converts in-worker hangs into
   transient (retryable) ``"timeout"`` results; ``cycle_budget``
   converts livelocks into deterministic ones.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.fleet import (
    BenchPointTask,
    Campaign,
    CampaignTask,
    ChaosEvent,
    ChaosPlan,
    FleetContext,
    Journal,
    JournalError,
    RetryPolicy,
    TaskResult,
    VerifSweepTask,
    aggregate,
    report_json,
    run_campaign,
)
from repro.fleet.journal import result_to_dict

SEED = 11


class TinyTask(CampaignTask):
    """Cheap deterministic task: payload depends only on the task's
    RNG substream, so chaos/retry/journal tests stay fast while the
    byte-identity assertions stay meaningful."""

    kind = "tiny"

    def __init__(self, task_id, **kwargs):
        super().__init__(task_id, **kwargs)

    def run(self, rng, ctx):
        draws = [rng.randint(0, 999) for _ in range(4)]
        if ctx.artifact_dir:
            # Execution witness for the no-re-execution assertions.
            with open(os.path.join(ctx.artifact_dir, "runs.log"),
                      "a") as f:
                f.write(self.task_id + "\n")
        payload = {"draws": draws, "sum": sum(draws)}
        coverage = {"tiny": {f"bin{draws[0] % 4}": 1}}
        telemetry = {"counters": {"tiny.runs": 1}, "histograms": {}}
        return payload, coverage, telemetry


class SleepTask(CampaignTask):
    """Sleeps; for wall-budget and interruption tests."""

    kind = "sleep"

    def __init__(self, task_id, seconds, **kwargs):
        super().__init__(task_id, **kwargs)
        self.seconds = float(seconds)

    def run(self, rng, ctx):
        time.sleep(self.seconds)
        return {"slept": self.seconds}, {}, {}


class InterruptingTask(CampaignTask):
    """Raises KeyboardInterrupt (when armed via env var) to simulate a
    Ctrl-C landing mid-campaign in the inline runner."""

    kind = "interrupting"

    ARM = "TEST_FLEET_INTERRUPT"

    def run(self, rng, ctx):
        if os.environ.get(self.ARM):
            raise KeyboardInterrupt
        return {"value": rng.randint(0, 999)}, {}, {}


def _tiny_campaign(seed=SEED, n=6, **task_kwargs):
    return Campaign("fault-tiny", seed,
                    [TinyTask(f"tiny/{i}", **task_kwargs)
                     for i in range(n)])


def _runs_log(artifact_dir):
    path = os.path.join(artifact_dir, "runs.log")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return f.read().splitlines()


def _chaos(events):
    return ChaosPlan(events)


# -- retry policy -------------------------------------------------------------


def test_retry_policy_backoff_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=4, base_delay=0.1, max_delay=1.0)
    for seed in (1, 42, 0xDEAD):
        delays = [policy.delay(seed, a) for a in (1, 2, 3)]
        # Deterministic: same (seed, attempt) -> same delay.
        assert delays == [policy.delay(seed, a) for a in (1, 2, 3)]
        # Exponential envelope with jitter in [0.5, 1.0] x base.
        for attempt, delay in enumerate(delays, start=1):
            base = min(1.0, 0.1 * 2 ** (attempt - 1))
            assert 0.5 * base <= delay <= base
    # Distinct tasks de-correlate (jitter spreads the herd).
    assert len({round(policy.delay(s, 1), 9)
                for s in range(50)}) > 10
    # max_delay caps the exponent.
    assert policy.delay(7, 30) <= 1.0


def test_retry_policy_retries_only_transient_results():
    policy = RetryPolicy(max_attempts=3)

    def res(status, diagnostics=None):
        return TaskResult(task_id="t", kind="tiny", status=status,
                          seed=1, diagnostics=diagnostics)

    transient = res("timeout", {"transient": True})
    assert policy.should_retry_result(transient, 1)
    assert policy.should_retry_result(transient, 2)
    assert not policy.should_retry_result(transient, 3)   # exhausted
    # Deterministic timeouts (cycle budget) and other statuses: final.
    assert not policy.should_retry_result(res("timeout"), 1)
    assert not policy.should_retry_result(res("mismatch"), 1)
    assert not policy.should_retry_result(res("error"), 1)


# -- chaos convergence --------------------------------------------------------


def test_chaos_kill_converges_to_undisturbed_report_bytes():
    """SIGKILL a worker mid-task on the first attempt: the supervisor
    detects the death, respawns, retries, and the final report bytes
    match a run with no chaos at all.

    Three first attempts die.  The supervisor keeps the pool at
    ``min(nworkers, unfinished tasks)``, and until it has seen the third
    death that task is unfinished (it is retried only after), so each of
    the first two deaths leaves the dying task and the third unfinished
    and respawns a worker: two respawns by construction, whatever order
    the tasks finish in.  (With two kills, the second could come when
    only its own task remained, and then rightly respawned nothing.)"""
    baseline = run_campaign(_tiny_campaign(), nworkers=2).report_json()

    plan = _chaos([ChaosEvent(task=None, index=i, mode="kill")
                   for i in (1, 2, 4)])
    plan.resolve(_tiny_campaign()).install()
    try:
        res = run_campaign(
            _tiny_campaign(), nworkers=2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01))
    finally:
        ChaosPlan.uninstall()

    assert res.report_json() == baseline
    assert res.report["status"] == "ok"
    assert res.stats["retries"] >= 2
    assert res.stats["respawns"] >= 2
    assert not res.stats["quarantined"]
    # The attempt log names the injected crashes.
    assert res.stats["attempts"]["tiny/1"][0]["reason"] == "crash"
    assert res.stats["attempts"]["tiny/1"][0]["exit_signal"] \
        == "SIGKILL"


def test_chaos_spike_is_absorbed_without_report_impact():
    baseline = run_campaign(_tiny_campaign(), nworkers=2).report_json()
    plan = _chaos([ChaosEvent(task=None, index=0, mode="spike",
                              mbytes=8)])
    plan.resolve(_tiny_campaign()).install()
    try:
        res = run_campaign(_tiny_campaign(), nworkers=2)
    finally:
        ChaosPlan.uninstall()
    assert res.report_json() == baseline
    assert res.stats["retries"] == 0


def test_chaos_soft_hang_becomes_transient_timeout_then_retries():
    """An interruptible hang under a wall_budget: the in-worker SIGALRM
    watchdog converts it to a transient timeout, the supervisor retries
    it, and the clean second attempt restores byte-identity."""
    camp = _tiny_campaign(wall_budget=5.0)
    baseline = run_campaign(camp, nworkers=2).report_json()

    plan = _chaos([ChaosEvent(task="tiny/2", mode="hang",
                              seconds=30.0)])
    chaos_camp = Campaign("fault-tiny", SEED, [
        TinyTask(f"tiny/{i}",
                 wall_budget=(0.3 if i == 2 else 5.0))
        for i in range(6)])
    plan.install()
    try:
        res = run_campaign(
            chaos_camp, nworkers=2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01))
    finally:
        ChaosPlan.uninstall()

    # wall_budget differs between the two campaigns but budgets are
    # never part of the result payload, so bytes still match.
    assert res.report_json() == baseline
    assert res.stats["retries"] >= 1
    assert res.stats["attempts"]["tiny/2"][0]["reason"] == "timeout"


def test_chaos_hard_hang_reclaimed_by_supervisor_deadline():
    """A hang that masks SIGALRM: only the process-level task deadline
    can reclaim the worker.  Kill + respawn + retry -> byte-identity."""
    baseline = run_campaign(_tiny_campaign(), nworkers=2).report_json()
    plan = _chaos([ChaosEvent(task="tiny/0", mode="hang_hard",
                              seconds=30.0)])
    plan.install()
    try:
        res = run_campaign(
            _tiny_campaign(), nworkers=2, task_deadline=1.0,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01))
    finally:
        ChaosPlan.uninstall()

    assert res.report_json() == baseline
    assert res.stats["retries"] >= 1
    # (A respawn only happens when remaining work exceeds the live
    # workers; with quick siblings the survivor may finish the queue.)
    assert res.stats["attempts"]["tiny/0"][0]["reason"] == "deadline"


def test_inline_runner_retries_transient_timeouts_too():
    """The nworkers=1 path shares the retry pipeline: a first-attempt
    hang trips the alarm, the retry runs clean, report bytes match."""
    camp = _tiny_campaign(n=3, wall_budget=0.3)
    baseline = run_campaign(camp, nworkers=1).report_json()
    plan = _chaos([ChaosEvent(task="tiny/1", mode="hang",
                              seconds=30.0)])
    plan.install()
    try:
        res = run_campaign(
            _tiny_campaign(n=3, wall_budget=0.3), nworkers=1,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01))
    finally:
        ChaosPlan.uninstall()
    assert res.report_json() == baseline
    assert res.stats["retries"] == 1


# -- quarantine ---------------------------------------------------------------


def test_worker_killing_task_quarantined_as_poisoned():
    """A task that SIGKILLs its worker on *every* attempt exhausts the
    retry budget and lands in the report as a deterministic
    ``"poisoned"`` result; sibling tasks are unharmed."""
    plan = _chaos([ChaosEvent(task="tiny/3", mode="kill",
                              attempts=99)])

    def run_once():
        plan.install()
        try:
            return run_campaign(
                _tiny_campaign(), nworkers=2,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01))
        finally:
            ChaosPlan.uninstall()

    res = run_once()
    report = res.report
    assert report["status"] == "failed"
    assert report["failures"] == ["tiny/3"]
    assert report["counts"]["poisoned"] == 1
    assert report["counts"]["ok"] == 5
    assert res.stats["quarantined"] == ["tiny/3"]

    entry = report["tasks"]["tiny/3"]
    assert entry["status"] == "poisoned"
    diag = entry["diagnostics"]
    assert diag["attempts"] == 2
    assert [f["reason"] for f in diag["failures"]] == ["crash", "crash"]
    assert all(f["exit"] == "SIGKILL" for f in diag["failures"])
    # The worker heartbeated the assignment before dying.
    assert diag["last_heartbeat"] == {"attempt": 2, "event": "start"}

    # Poisoned results are deterministic: a second sabotaged run
    # produces the same report bytes.
    assert run_once().report_json() == res.report_json()


def test_quarantine_writes_forensics_artifact(tmp_path):
    art = str(tmp_path / "artifacts")
    plan = _chaos([ChaosEvent(task="tiny/0", mode="kill",
                              attempts=99)])
    plan.install()
    try:
        run_campaign(_tiny_campaign(n=2), nworkers=2,
                     artifact_dir=art,
                     retry=RetryPolicy(max_attempts=2,
                                       base_delay=0.01))
    finally:
        ChaosPlan.uninstall()
    path = os.path.join(art, "quarantine_tiny_0.json")
    assert os.path.exists(path)
    with open(path) as f:
        forensics = json.load(f)
    assert forensics["task_id"] == "tiny/0"
    assert len(forensics["attempt_log"]) == 2
    # Wall-clock timings belong here, never in the report.
    assert all("elapsed" in a for a in forensics["attempt_log"])


def test_exhausted_transient_timeouts_keep_last_timeout_result():
    """Hangs on every attempt + wall_budget: retries exhaust and the
    final structured timeout result (not poisoned) lands in the
    report, still byte-deterministically."""
    plan = _chaos([ChaosEvent(task="tiny/1", mode="hang",
                              attempts=99, seconds=30.0)])

    def run_once():
        plan.install()
        try:
            return run_campaign(
                _tiny_campaign(n=3, wall_budget=0.3), nworkers=2,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01))
        finally:
            ChaosPlan.uninstall()

    res = run_once()
    entry = res.report["tasks"]["tiny/1"]
    assert entry["status"] == "timeout"
    assert entry["diagnostics"]["transient"] is True
    assert entry["diagnostics"]["watchdog"]["kind"] == "wall-budget"
    assert res.report["counts"]["timeout"] == 1
    assert res.stats["retries"] == 1
    assert run_once().report_json() == res.report_json()


# -- journal / resume ---------------------------------------------------------


def test_journal_records_every_completion(tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    res = run_campaign(_tiny_campaign(), nworkers=2, journal=path)
    header, loaded = Journal.load(path)
    assert header["schema"] == "repro-fleet-journal-v1"
    assert header["campaign"] == "fault-tiny"
    assert set(loaded) == {t.task_id for t in _tiny_campaign().tasks}
    # Journal-loaded results aggregate to the same bytes.
    assert report_json(aggregate(res.campaign,
                                 list(loaded.values()))) \
        == res.report_json()


def test_resume_replays_completed_tasks_without_reexecution(tmp_path):
    """Seed a journal with a 3-task prefix of completions, resume, and
    check (a) byte-identical final report, (b) only the remaining
    tasks actually execute."""
    camp = _tiny_campaign()
    art_full = str(tmp_path / "full")
    baseline = run_campaign(camp, nworkers=2, artifact_dir=art_full)
    assert sorted(_runs_log(art_full)) \
        == sorted(t.task_id for t in camp.tasks)

    path = str(tmp_path / "campaign.jsonl")
    prefix = {r.task_id: r for r in baseline.results[:3]}
    with Journal.create(path, camp) as j:
        for r in prefix.values():
            j.append(r)

    art_resume = str(tmp_path / "resumed")
    res = run_campaign(_tiny_campaign(), nworkers=2, resume=path,
                       artifact_dir=art_resume)
    assert res.report_json() == baseline.report_json()
    assert res.stats["resumed"] == sorted(prefix)
    # Only the non-journaled tasks ran.
    assert sorted(_runs_log(art_resume)) == sorted(
        t.task_id for t in camp.tasks if t.task_id not in prefix)
    # The journal now holds the full campaign.
    _, loaded = Journal.load(path)
    assert set(loaded) == {t.task_id for t in camp.tasks}


def test_resume_of_complete_journal_runs_nothing(tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    baseline = run_campaign(_tiny_campaign(), nworkers=2,
                            journal=path)
    art = str(tmp_path / "resumed")
    res = run_campaign(_tiny_campaign(), nworkers=2, resume=path,
                       artifact_dir=art)
    assert res.report_json() == baseline.report_json()
    assert len(res.stats["resumed"]) == len(baseline.results)
    assert _runs_log(art) == []                   # nothing re-executed


def test_resume_rejects_foreign_journal(tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    run_campaign(_tiny_campaign(seed=SEED), nworkers=1, journal=path)
    with pytest.raises(JournalError):
        Journal.resume(path, _tiny_campaign(seed=SEED + 1))
    with pytest.raises(JournalError):
        Journal.resume(path, _tiny_campaign(seed=SEED, n=4))


def test_journal_tolerates_torn_tail_but_not_interior_damage(
        tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    run_campaign(_tiny_campaign(), nworkers=1, journal=path)
    with open(path) as f:
        text = f.read()
    # Torn tail: a crash mid-append leaves a partial last line.
    torn = str(tmp_path / "torn.jsonl")
    with open(torn, "w") as f:
        f.write(text[:-20])
    _, loaded = Journal.load(torn)
    assert len(loaded) == len(_tiny_campaign().tasks) - 1
    # Interior corruption must refuse to resume.
    lines = text.splitlines()
    lines[2] = lines[2][:10]
    bad = str(tmp_path / "bad.jsonl")
    with open(bad, "w") as f:
        f.write("\n".join(lines) + "\n")
    with pytest.raises(JournalError):
        Journal.load(bad)


def test_interrupted_chaos_run_resumes_to_identical_bytes(tmp_path):
    """The flagship end-to-end: chaos + interruption + resume still
    converge to the undisturbed report bytes."""
    camp = _tiny_campaign()
    baseline = run_campaign(camp, nworkers=2).report_json()

    path = str(tmp_path / "campaign.jsonl")
    # Phase 1: journal a 3-task prefix, as an interrupted run would.
    with Journal.create(path, camp) as j:
        ctx = FleetContext(camp.seed, None)
        for task in camp.tasks[:3]:
            j.append(task.execute(camp.seed, ctx))

    # Phase 2: resume under chaos; the remaining 3 tasks run, one of
    # them sabotaged on its first attempt.
    plan = _chaos([ChaosEvent(task="tiny/4", mode="kill")])
    plan.install()
    try:
        res = run_campaign(
            _tiny_campaign(), nworkers=2, resume=path,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01))
    finally:
        ChaosPlan.uninstall()
    assert res.report_json() == baseline
    assert res.stats["resumed"] == ["tiny/0", "tiny/1", "tiny/2"]
    assert res.stats["retries"] >= 1


# -- interruption (satellite 1) -----------------------------------------------


def test_inline_interrupt_returns_partial_result(tmp_path):
    """A KeyboardInterrupt mid-campaign (inline runner) yields a
    partial FleetResult with the journal flushed, not a traceback."""
    camp = Campaign("interruptible", SEED, [
        TinyTask("tiny/0"),
        TinyTask("tiny/1"),
        InterruptingTask("boom"),
        TinyTask("tiny/2"),
    ])
    path = str(tmp_path / "campaign.jsonl")
    os.environ[InterruptingTask.ARM] = "1"
    try:
        res = run_campaign(camp, nworkers=1, journal=path)
    finally:
        os.environ.pop(InterruptingTask.ARM, None)

    assert res.interrupted
    assert res.stats["interrupted"] is True
    assert res.report["status"] == "interrupted"
    assert res.report["missing"] == ["boom", "tiny/2"]
    assert set(res.report["tasks"]) == {"tiny/0", "tiny/1"}
    # The journal durably holds exactly the completed prefix.
    _, loaded = Journal.load(path)
    assert set(loaded) == {"tiny/0", "tiny/1"}

    # Resume (with the interrupting task disarmed) completes the
    # campaign; the report matches a never-interrupted run.
    clean = run_campaign(camp, nworkers=1)
    resumed = run_campaign(camp, nworkers=1, resume=path)
    assert resumed.report_json() == clean.report_json()
    assert not resumed.interrupted


def test_pool_interrupt_tears_down_workers_and_returns_partial():
    """SIGINT during a supervised run: workers are terminated, no
    child processes leak, and the partial result reports honestly."""
    import multiprocessing

    camp = Campaign("sigint", SEED,
                    [SleepTask(f"sleep/{i}", seconds=0.8)
                     for i in range(4)])
    timer = threading.Timer(
        0.5, lambda: os.kill(os.getpid(), signal.SIGINT))
    timer.start()
    try:
        res = run_campaign(camp, nworkers=2)
    finally:
        timer.cancel()

    assert res.interrupted
    assert res.report["status"] == "interrupted"
    assert len(res.report["missing"]) >= 1
    # The supervisor's shutdown reaped every worker process.
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


# -- budgets (satellite 2) ----------------------------------------------------


def test_wall_budget_converts_hang_to_transient_timeout():
    task = SleepTask("sleep/long", seconds=10.0, wall_budget=0.2)
    ctx = FleetContext(SEED, None)
    start = time.monotonic()
    res = task.execute(SEED, ctx)
    assert time.monotonic() - start < 5.0        # alarm actually fired
    assert res.status == "timeout"
    assert res.diagnostics["transient"] is True
    assert res.diagnostics["watchdog"]["kind"] == "wall-budget"
    assert "wall budget" in res.diagnostics["message"]


def test_wall_budget_noop_when_task_finishes_in_time():
    task = SleepTask("sleep/short", seconds=0.01, wall_budget=5.0)
    res = task.execute(SEED, FleetContext(SEED, None))
    assert res.status == "ok"
    # The alarm was disarmed on exit: no pending SIGALRM handler.
    assert signal.getsignal(signal.SIGALRM) in (
        signal.SIG_DFL, signal.SIG_IGN, None)


def test_cycle_budget_clamps_task_cycle_limits():
    task = TinyTask("tiny/0", cycle_budget=100)
    assert task._clamp_cycles(500) == 100
    assert task._clamp_cycles(50) == 50
    assert task._clamp_cycles(None) == 100
    assert TinyTask("tiny/1")._clamp_cycles(500) == 500


def test_cycle_budget_turns_livelock_into_deterministic_timeout():
    """A verif sweep whose cycle budget is far too small times out
    deterministically — and is *not* marked transient (retrying a
    cycle-exact limit would reproduce the same verdict)."""
    task = VerifSweepTask("verif/starved", scenario="cache", ntxns=40,
                          cycle_budget=8)
    res = task.execute(SEED, FleetContext(SEED, None))
    assert res.status == "timeout"
    assert not (res.diagnostics or {}).get("transient")
    again = task.execute(SEED, FleetContext(SEED, None))
    assert result_to_dict(res) == {
        **result_to_dict(again),
        "elapsed": res.elapsed, "worker": res.worker}


# -- aggregation of mixed statuses (satellite 4) ------------------------------


def _mixed_results(camp):
    def mk(tid, status, diagnostics=None, elapsed=0.0, worker=None):
        return TaskResult(
            task_id=tid, kind="tiny", status=status, seed=17,
            payload={"p": tid}, coverage={"g": {"b": 1}},
            telemetry={"counters": {"c": 2}, "histograms": {}},
            diagnostics=diagnostics, elapsed=elapsed, worker=worker)

    return [
        mk("tiny/0", "ok"),
        mk("tiny/1", "poisoned",
           {"attempts": 3,
            "failures": [{"attempt": a, "reason": "crash",
                          "exit": "SIGKILL"} for a in (1, 2, 3)],
            "last_heartbeat": {"attempt": 3, "event": "start"}}),
        mk("tiny/2", "timeout",
           {"message": "watchdog", "transient": True}),
        mk("tiny/3", "mismatch", {"channel": "resp"}),
        mk("tiny/4", "error", {"type": "RuntimeError",
                               "message": "boom"}),
    ]


def test_aggregate_mixed_statuses_deterministic_under_shuffle():
    import random

    camp = _tiny_campaign(n=5)
    results = _mixed_results(camp)
    report = aggregate(camp, results)
    assert report["counts"] == {"ok": 1, "mismatch": 1, "timeout": 1,
                                "error": 1, "poisoned": 1}
    assert report["status"] == "failed"
    assert report["failures"] == ["tiny/1", "tiny/2", "tiny/3",
                                  "tiny/4"]
    assert report["tasks"]["tiny/1"]["status"] == "poisoned"
    baseline = report_json(report)

    rng = random.Random(5)
    shuffled = list(results)
    for _ in range(5):
        rng.shuffle(shuffled)
        assert report_json(aggregate(camp, shuffled)) == baseline

    # Attempt-count variance in the *side-channel* fields (elapsed,
    # worker) must not reach the bytes.
    noisy = [TaskResult(**{**result_to_dict(r),
                           "elapsed": r.elapsed + i * 1.7,
                           "worker": 1000 + i})
             for i, r in enumerate(results)]
    assert report_json(aggregate(camp, noisy)) == baseline


def test_aggregate_partial_reports_missing_tasks():
    camp = _tiny_campaign(n=5)
    results = _mixed_results(camp)[:3]
    with pytest.raises(ValueError):
        aggregate(camp, results)
    report = aggregate(camp, results, partial=True)
    assert report["status"] == "interrupted"
    assert report["missing"] == ["tiny/3", "tiny/4"]
    # A complete set aggregates identically with partial on or off.
    full = _mixed_results(camp)
    assert report_json(aggregate(camp, full, partial=True)) \
        == report_json(aggregate(camp, full))


def test_mixed_status_results_round_trip_through_journal(tmp_path):
    camp = _tiny_campaign(n=5)
    results = _mixed_results(camp)
    path = str(tmp_path / "mixed.jsonl")
    with Journal.create(path, camp) as j:
        for r in results:
            j.append(r)
    _, loaded = Journal.load(path)
    assert report_json(aggregate(camp, list(loaded.values()))) \
        == report_json(aggregate(camp, results))
    for r in results:
        assert result_to_dict(loaded[r.task_id]) == result_to_dict(r)


# -- chaos plan plumbing ------------------------------------------------------


def test_chaos_plan_json_round_trip_and_resolution():
    camp = _tiny_campaign()
    plan = _chaos([
        ChaosEvent(task=None, index=2, mode="kill"),
        ChaosEvent(task="tiny/5", mode="hang", attempts=2,
                   seconds=9.0),
        ChaosEvent(task="tiny/0", mode="spike", mbytes=16),
    ])
    resolved = plan.resolve(camp)
    assert resolved.events[0].task == "tiny/2"
    text = resolved.to_json()
    again = ChaosPlan.from_json(text)
    assert again.to_json() == text
    assert again.lookup("tiny/5", 1).mode == "hang"
    assert again.lookup("tiny/5", 2).mode == "hang"
    assert again.lookup("tiny/5", 3) is None      # attempts exhausted
    assert again.lookup("tiny/1", 1) is None
    with pytest.raises(ValueError):
        plan.install()                             # unresolved index
    with pytest.raises(ValueError):
        ChaosEvent(task="t", mode="explode")
    with pytest.raises(ValueError):
        _chaos([ChaosEvent(task=None, index=99)]).resolve(camp)


def test_bench_task_cycle_budget_passes_clamped_limit():
    """BenchPointTask forwards a clamped max_cycles only when a budget
    is armed, so unbudgeted bench payloads keep their exact bytes."""
    calls = {}

    def probe(rng, params):
        calls.update(params)
        return {"ncycles": 1}, None

    task = BenchPointTask("bench/p", design=probe,
                          params={"x": 1}, cycle_budget=123)
    res = task.execute(SEED, FleetContext(SEED, None))
    assert res.status == "ok"
    assert calls["max_cycles"] == 123
    assert res.payload["params"] == {"x": 1}      # budget not leaked

    calls.clear()
    BenchPointTask("bench/q", design=probe, params={"x": 1}) \
        .execute(SEED, FleetContext(SEED, None))
    assert "max_cycles" not in calls
