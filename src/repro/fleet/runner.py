"""Fault-tolerant process campaign execution.

``run_campaign`` shards a :class:`~repro.fleet.campaign.Campaign`
across a pool of worker processes.  Task specs are tiny picklable
descriptions; each worker rebuilds its DUTs from scratch, so nothing
simulator-shaped ever crosses the process boundary — only specs out,
:class:`~repro.fleet.campaign.TaskResult` back.

Task-level *exceptions* were already structured results (the
``execute`` failure-capture shell); this module makes process-level
*death* and *hangs* structured too.  Dispatch is a supervisor, not a
``Pool``:

- **Supervised dispatch.**  Each worker is a bare
  ``multiprocessing.Process`` with a private task pipe and result
  pipe.  The supervisor assigns one task at a time and tracks every
  in-flight assignment as ``task -> (worker pid, attempt, start time,
  deadline)``; workers acknowledge each assignment with a ``start``
  heartbeat on the same side-channel that carries the live
  spans/metrics messages.
- **Crash isolation.**  A worker that dies mid-task (segfault in a
  generated ``.so``, OOM kill, injected ``SIGKILL``) is detected via
  its process sentinel/exitcode.  The supervisor reaps it, respawns a
  replacement, and reassigns the task — the campaign never loses a
  sibling's completed work and never raises out of the dispatch loop.
- **Deadlines.**  ``task_deadline`` bounds each attempt's wall clock
  at the process level; an overrunning worker is terminated and the
  task reassigned.  This is the *hard* backstop behind the softer
  in-worker ``wall_budget`` watchdog (which converts pure-Python
  hangs into structured ``"timeout"`` results without killing
  anything).
- **Retry with backoff.**  :class:`RetryPolicy` bounds attempts and
  spaces them with exponential backoff; the jitter fraction is
  derived from the task's seed (crc32), so retry *schedules* are
  reproducible even though wall-clock timing never reaches the
  report.  Transient (wall-budget) timeout results are retried too;
  deterministic cycle-budget timeouts are not.
- **Quarantine.**  A task that keeps killing workers is quarantined
  after ``max_attempts`` as a structured ``"poisoned"`` result whose
  report-visible diagnostics carry only deterministic facts (attempt
  count, per-attempt failure reasons, exit signals, last heartbeat);
  wall-clock attempt timings ride the ``stats`` side-channel, so the
  ``repro-fleet-v1`` report stays byte-deterministic.
- **Write-ahead journal.**  ``journal=`` / ``resume=`` arm a
  :class:`~repro.fleet.journal.Journal`: every completion is fsync'd
  before it counts, and a resumed run loads completed results instead
  of re-executing them — producing byte-identical final report bytes.
- **Clean interruption.**  ``KeyboardInterrupt`` terminates the
  workers, flushes the journal and collector, and returns a *partial*
  :class:`FleetResult` (``stats["interrupted"]`` true, report status
  ``"interrupted"``) instead of losing everything.
- **Fork start method.**  The default start method is ``fork`` where
  the platform offers it: workers inherit the parent's
  ``PYTHONHASHSEED`` and module state, so anything hash-order
  sensitive (e.g. SimJIT code generation walking sets) is identical
  across workers.  ``spawn`` also works (results are seed-derived).
- **Shared .so cache.**  Workers inherit/receive one
  ``SIMJIT_CACHE_DIR``; the per-key ``flock`` in the specializer
  serializes same-design build races.
- **Observability side-channel.**  With ``trace=True`` each worker
  arms a process-local :class:`~repro.telemetry.tracing.Tracer` and
  ships span batches + metrics snapshots after every task; the parent
  additionally records supervisor instants (``fleet.retry``,
  ``fleet.respawn``, ``fleet.quarantine``).  Report bytes are
  identical with tracing on or off.

Chaos injection (:mod:`repro.fleet.chaos`) deterministically
exercises every path above; the chaos tests assert that a sabotaged
campaign converges to the exact report bytes of an undisturbed run.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import signal as signal_mod
import zlib
from collections import deque
from multiprocessing.connection import wait as conn_wait
from time import monotonic, perf_counter, sleep

from .aggregate import aggregate, report_json
from .campaign import Campaign, TaskResult, _safe_tag

__all__ = ["FleetContext", "FleetResult", "RetryPolicy",
           "run_campaign", "default_nworkers"]


class FleetContext:
    """Per-worker execution context handed to ``task.execute``."""

    def __init__(self, campaign_seed, artifact_dir=None):
        self.campaign_seed = campaign_seed
        self.artifact_dir = artifact_dir


class RetryPolicy:
    """Bounded retry with seed-jittered exponential backoff.

    ``max_attempts`` counts total tries (1 = never retry).  The
    ``attempt``-th failure waits ``base_delay * 2**(attempt-1)``
    seconds (capped at ``max_delay``), scaled into ``[0.5, 1.0]`` by a
    jitter fraction derived from crc32 of ``(task seed, attempt)`` —
    deterministic per task, decorrelated across tasks, so a thundering
    herd of retries spreads out the same way on every run.

    Process-level failures (crash, deadline overrun) are always
    retry-eligible.  Structured results are retried only when their
    status is in ``retry_statuses`` *and* the result is marked
    transient (``diagnostics["transient"]``, set by wall-budget
    watchdog trips) — deterministic failures would fail identically
    again, so retrying them only burns wall clock.
    """

    def __init__(self, max_attempts=3, base_delay=0.25, max_delay=30.0,
                 retry_statuses=("timeout",)):
        self.max_attempts = max(1, int(max_attempts))
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.retry_statuses = tuple(retry_statuses)

    def delay(self, task_seed, attempt):
        """Backoff before attempt ``attempt + 1`` (seconds)."""
        base = min(self.max_delay,
                   self.base_delay * (2.0 ** (max(0, attempt - 1))))
        key = f"{int(task_seed)}:{int(attempt)}".encode()
        frac = (zlib.crc32(key) & 0xFFFF) / 0xFFFF
        return base * (0.5 + 0.5 * frac)

    def should_retry_result(self, res, attempt):
        """Retry a *structured* result? (Process deaths don't come
        through here — they are always eligible up to the bound.)"""
        return (attempt < self.max_attempts
                and res.status in self.retry_statuses
                and bool((res.diagnostics or {}).get("transient")))

    def __repr__(self):
        return (f"RetryPolicy(max_attempts={self.max_attempts}, "
                f"base_delay={self.base_delay}, "
                f"max_delay={self.max_delay})")


class FleetResult:
    """Everything a campaign run produced.

    ``report`` (and ``report_json()``) hold only deterministic data;
    ``stats`` holds the wall-clock/process side-channel (including
    retry/respawn/quarantine accounting and the ``interrupted`` flag)
    and ``trace`` the :class:`~repro.fleet.live.LiveCollector`
    (``None`` unless the run traced).
    """

    def __init__(self, campaign, results, report, stats, trace=None):
        self.campaign = campaign
        self.results = list(results)
        self.report = report
        self.stats = stats
        self.trace = trace

    @property
    def ok(self):
        return self.report["status"] == "ok"

    @property
    def interrupted(self):
        return bool(self.stats.get("interrupted"))

    @property
    def failures(self):
        return self.report["failures"]

    def report_json(self):
        return report_json(self.report)

    def write_report(self, path):
        os.makedirs(os.path.dirname(os.path.abspath(path)),
                    exist_ok=True)
        with open(path, "w") as f:
            f.write(self.report_json())
        return path

    def chrome_trace(self):
        """The merged campaign trace object (requires ``trace=True``)."""
        if self.trace is None:
            raise ValueError(
                "campaign was run without trace=True; no spans "
                "were collected")
        return self.trace.chrome_trace(campaign=self.campaign)

    def write_trace(self, path):
        """Write the merged Chrome/Perfetto trace JSON; returns
        ``path``."""
        from ..telemetry.traceevent import write_trace
        return write_trace(path, self.chrome_trace())

    def __repr__(self):
        return (f"<FleetResult {self.campaign.name!r} "
                f"{self.report['counts']} status="
                f"{self.report['status']}>")


def default_nworkers():
    """Usable CPUs (affinity-aware where the platform reports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _task_seed(task, campaign_seed):
    """The task's derived substream seed (pure, computable without
    running the task — used for poisoned results and retry jitter)."""
    return task.rng(campaign_seed)._seed & 0xFFFFFFFF


def _task_cycles(res):
    """Best-effort simulated-cycle count of one task result (metrics
    snapshot only; the deterministic report never reads this)."""
    payload = res.payload or {}
    ncycles = payload.get("ncycles")
    if isinstance(ncycles, dict):
        return sum(int(v) for v in ncycles.values())
    if isinstance(ncycles, (int, float)):
        return int(ncycles)
    metrics = payload.get("metrics")
    if isinstance(metrics, dict):
        return int(metrics.get("ncycles", 0))
    return 0


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _kind_stats(results):
    """Per-task-kind duration percentiles (wall-clock side-channel)."""
    by_kind = {}
    for res in results:
        by_kind.setdefault(res.kind, []).append(res.elapsed)
    return {
        kind: {
            "count": len(durations),
            "p50": _percentile(durations, 0.50),
            "p95": _percentile(durations, 0.95),
            "max": max(durations),
            "total": sum(durations),
        }
        for kind, durations in sorted(by_kind.items())
    }


def _exit_signal(exitcode):
    """Signal name for a negative exitcode, else ``None``."""
    if exitcode is None or exitcode >= 0:
        return None
    try:
        return signal_mod.Signals(-exitcode).name
    except ValueError:
        return f"signal {-exitcode}"


# -- observability side-channel (worker side) ---------------------------------


class _ObsSink:
    """Per-worker observability state.

    Arms a process-local tracer (when tracing), accumulates worker-
    lifetime totals, and ships span batches + metrics snapshots after
    every task via ``put`` (a pipe ``send`` in pool workers, the
    collector's ``on_message`` inline).  Shipping is exception-
    guarded: observability must never take down a worker.
    """

    def __init__(self, put, trace):
        self.put = put
        self.done = 0
        self.failed = 0
        self.cycles = 0
        self.counters = {}
        self.tracer = None
        if trace:
            from ..telemetry import tracing
            self.tracer = tracing.arm()

    def after_task(self, res):
        from .live import worker_snapshot
        self.done += 1
        if res.status != "ok":
            self.failed += 1
        self.cycles += _task_cycles(res)
        for name, value in (res.telemetry or {}).get(
                "counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) \
                + int(value)
        pid = os.getpid()
        try:
            tracer = self.tracer
            if tracer is not None:
                if tracer.dropped:
                    self.put(("dropped", pid, tracer.dropped))
                    tracer.dropped = 0
                records = tracer.drain()
                if records:
                    self.put(("spans", pid, records))
            self.put(("metrics", pid, worker_snapshot(
                self.done, self.failed, self.cycles, self.counters)))
        except Exception:
            pass


# -- worker side --------------------------------------------------------------


def _worker_main(task_r, res_w, campaign_seed, artifact_dir, cache_dir,
                 obs, trace):
    """Worker process entry: recv ``(task, attempt)`` assignments from
    the supervisor, acknowledge each with a ``start`` heartbeat, run
    under the execute contract, ship the result.  SIGINT is ignored —
    a Ctrl-C belongs to the supervisor, which decides how to wind the
    fleet down."""
    try:
        signal_mod.signal(signal_mod.SIGINT, signal_mod.SIG_IGN)
    except (ValueError, OSError):
        pass
    if cache_dir:
        os.environ["SIMJIT_CACHE_DIR"] = cache_dir
    ctx = FleetContext(campaign_seed, artifact_dir)

    def _ship(msg):
        try:
            res_w.send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False                   # parent is gone; shut down

    sink = None
    if obs:
        sink = _ObsSink(lambda m: _ship(("obs", m)), trace)
    pid = os.getpid()
    while True:
        try:
            msg = task_r.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        task, attempt = msg
        _ship(("start", pid,
               {"task_id": task.task_id, "attempt": attempt}))
        res = task.execute(campaign_seed, ctx, attempt=attempt)
        res.worker = pid
        if sink is not None:
            sink.after_task(res)
        if not _ship(("result", pid,
                      {"attempt": attempt, "result": res})):
            break


def _start_method():
    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)


# -- supervisor (parent side) -------------------------------------------------


class _WorkerHandle:
    """One supervised worker: its process, pipes, and in-flight state."""

    __slots__ = ("proc", "task_w", "res_r", "busy")

    def __init__(self, proc, task_w, res_r):
        self.proc = proc
        self.task_w = task_w
        self.res_r = res_r
        self.busy = None    # dict(task, attempt, assigned, deadline,
        #                         heartbeat) while a task is in flight

    @property
    def pid(self):
        return self.proc.pid


class _Supervisor:
    """Crash-isolated, deadline-enforced campaign dispatch.

    State machine per task: ``pending -> in-flight -> (done |
    retry-delayed -> pending | quarantined)``.  Per worker:
    ``idle -> busy -> (idle | dead -> respawned)``.  The loop wakes on
    result-pipe readability, worker-sentinel death, the next deadline,
    or the next backoff expiry — never by polling a hot loop.
    """

    POLL = 0.5                  # max sleep between bookkeeping passes

    def __init__(self, campaign, todo, nworkers, retry, task_deadline,
                 artifact_dir, cache_dir, mp_ctx, collector, trace,
                 journal):
        self.campaign = campaign
        self.retry = retry
        self.task_deadline = task_deadline
        self.artifact_dir = artifact_dir
        self.cache_dir = cache_dir
        self.mp = mp_ctx
        self.collector = collector
        self.trace = trace
        self.journal = journal
        self.nworkers = nworkers
        self.ntotal = len(todo)
        self.pending = deque((task, 1) for task in todo)
        self.delayed = []           # heap of (ready, seq, task, attempt)
        self._seq = 0
        self.results = {}           # task_id -> final TaskResult
        self.attempts = {}          # task_id -> [attempt record, ...]
        self.heartbeats = {}        # task_id -> last start heartbeat
        self.workers = []
        self.retries = 0
        self.respawns = 0
        self.quarantined = []
        self.interrupted = False

    # -- lifecycle --------------------------------------------------------

    def run(self):
        try:
            for _ in range(min(self.nworkers, self.ntotal)):
                self.workers.append(self._spawn())
            while len(self.results) < self.ntotal:
                self._step()
        except KeyboardInterrupt:
            self.interrupted = True
        finally:
            self._shutdown()
        return self

    def _spawn(self):
        task_r, task_w = self.mp.Pipe(duplex=False)
        res_r, res_w = self.mp.Pipe(duplex=False)
        proc = self.mp.Process(
            target=_worker_main,
            args=(task_r, res_w, self.campaign.seed, self.artifact_dir,
                  self.cache_dir, self.collector is not None,
                  self.trace),
            daemon=True)
        proc.start()
        # Close the child-end copies *immediately*: a later fork must
        # not inherit them, or EOF/death detection on these pipes
        # would silently stop working.
        task_r.close()
        res_w.close()
        return _WorkerHandle(proc, task_w, res_r)

    def _shutdown(self):
        for w in self.workers:
            if w.busy is None and w.proc.is_alive():
                try:
                    w.task_w.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for w in self.workers:
            w.proc.join(timeout=0.25 if w.busy is None else 0.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join()
            w.task_w.close()
            w.res_r.close()
        self.workers = []

    # -- one scheduling pass ----------------------------------------------

    def _step(self):
        now = monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, _, task, attempt = heapq.heappop(self.delayed)
            self.pending.append((task, attempt))
        for w in self.workers:
            if w.busy is None and self.pending:
                self._assign(w, *self.pending.popleft())

        timeout = self.POLL
        for w in self.workers:
            if w.busy is not None and w.busy["deadline"] is not None:
                timeout = min(timeout, w.busy["deadline"] - now)
        if self.delayed:
            timeout = min(timeout, self.delayed[0][0] - now)
        waitables = [w.res_r for w in self.workers] \
            + [w.proc.sentinel for w in self.workers]
        if waitables:
            ready = set(conn_wait(waitables, max(0.0, timeout)))
        else:
            # Nothing in flight: everything left is backoff-delayed.
            sleep(max(0.0, min(timeout, self.POLL)))
            ready = set()

        for w in list(self.workers):
            if w.res_r in ready:
                self._drain(w)
        for w in list(self.workers):
            if not w.proc.is_alive():
                # Drain once more: results sent just before death are
                # still sitting in the pipe and must win over the
                # crash verdict.
                self._drain(w)
                self._on_dead_worker(w)
        now = monotonic()
        for w in list(self.workers):
            if (w.busy is not None
                    and w.busy["deadline"] is not None
                    and now >= w.busy["deadline"]):
                self._on_deadline(w)

    # -- dispatch ---------------------------------------------------------

    def _assign(self, w, task, attempt):
        deadline = (None if self.task_deadline is None
                    else monotonic() + self.task_deadline)
        try:
            w.task_w.send((task, attempt))
        except (BrokenPipeError, OSError):
            # Worker died between tasks; the dead-worker pass will
            # reap it.  Put the task back untouched.
            self.pending.appendleft((task, attempt))
            return
        w.busy = {"task": task, "attempt": attempt,
                  "assigned": monotonic(), "deadline": deadline,
                  "heartbeat": None}

    def _drain(self, w):
        while True:
            try:
                if not w.res_r.poll(0):
                    return
                msg = w.res_r.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "start":
                info = msg[2]
                if w.busy is not None:
                    w.busy["heartbeat"] = info
                self.heartbeats[info["task_id"]] = info
            elif kind == "obs":
                if self.collector is not None:
                    self.collector.on_message(msg[1])
            elif kind == "result":
                self._on_result(w, msg[2]["attempt"],
                                msg[2]["result"])

    # -- task completion / failure ----------------------------------------

    def _on_result(self, w, attempt, res):
        busy, w.busy = w.busy, None
        task = busy["task"] if busy else None
        if self.retry.should_retry_result(res, attempt) \
                and task is not None:
            self._log_attempt(res.task_id, attempt, "timeout",
                              elapsed=res.elapsed)
            self._schedule_retry(task, attempt, "timeout")
            return
        self._record(res)

    def _record(self, res):
        self.results[res.task_id] = res
        if self.journal is not None:
            self.journal.append(res)
        if self.collector is not None:
            self.collector.task_finished(res)

    def _on_dead_worker(self, w):
        busy = w.busy
        exitcode = w.proc.exitcode
        self._reap(w)
        if busy is None:
            # Died idle (between tasks): nothing to retry, just keep
            # the pool at strength.
            self._maybe_respawn()
            return
        task, attempt = busy["task"], busy["attempt"]
        self._log_attempt(
            task.task_id, attempt, "crash",
            elapsed=monotonic() - busy["assigned"],
            exitcode=exitcode, exit_signal=_exit_signal(exitcode),
            heartbeat=busy["heartbeat"])
        self._maybe_respawn()
        if attempt < self.retry.max_attempts:
            self._schedule_retry(task, attempt, "crash")
        else:
            self._quarantine(task)

    def _on_deadline(self, w):
        busy = w.busy
        task, attempt = busy["task"], busy["attempt"]
        self._kill(w)
        self._log_attempt(
            task.task_id, attempt, "deadline",
            elapsed=monotonic() - busy["assigned"],
            deadline=self.task_deadline,
            heartbeat=busy["heartbeat"])
        self._maybe_respawn()
        if attempt < self.retry.max_attempts:
            self._schedule_retry(task, attempt, "deadline")
        else:
            self._quarantine(task)

    def _kill(self, w):
        self._reap(w, terminate=True)

    def _reap(self, w, terminate=False):
        if terminate and w.proc.is_alive():
            w.proc.terminate()
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.kill()
        w.proc.join()
        w.task_w.close()
        w.res_r.close()
        self.workers.remove(w)

    def _maybe_respawn(self):
        """Keep the pool at strength while unfinished work remains."""
        from ..telemetry import tracing
        remaining = self.ntotal - len(self.results)
        while len(self.workers) < min(self.nworkers, remaining):
            self.workers.append(self._spawn())
            self.respawns += 1
            tracing.instant("fleet.respawn",
                            pid=self.workers[-1].pid)
            if self.collector is not None:
                self.collector.worker_respawned(self.workers[-1].pid)

    def _schedule_retry(self, task, attempt, reason):
        from ..telemetry import tracing
        delay = self.retry.delay(
            _task_seed(task, self.campaign.seed), attempt)
        self._seq += 1
        heapq.heappush(self.delayed,
                       (monotonic() + delay, self._seq, task,
                        attempt + 1))
        self.retries += 1
        tracing.instant("fleet.retry", task=task.task_id,
                        attempt=attempt + 1, reason=reason,
                        delay=round(delay, 4))
        if self.collector is not None:
            self.collector.task_retried(task.task_id, attempt + 1,
                                        reason)

    def _log_attempt(self, task_id, attempt, reason, **extra):
        entry = {"attempt": attempt, "reason": reason}
        entry.update({k: v for k, v in extra.items() if v is not None})
        self.attempts.setdefault(task_id, []).append(entry)

    def _quarantine(self, task):
        """Exhausted attempts without a structured result: emit a
        deterministic ``"poisoned"`` result and move on."""
        from ..telemetry import tracing
        tid = task.task_id
        history = self.attempts.get(tid, [])
        failures = []
        for entry in history:
            fact = {"attempt": entry["attempt"],
                    "reason": entry["reason"]}
            if entry.get("exit_signal"):
                fact["exit"] = entry["exit_signal"]
            failures.append(fact)
        last_hb = self.heartbeats.get(tid)
        diagnostics = {
            "attempts": len(history),
            "failures": failures,
            "last_heartbeat": ({"attempt": last_hb["attempt"],
                                "event": "start"}
                               if last_hb else None),
        }
        res = TaskResult(
            task_id=tid, kind=task.kind, status="poisoned",
            seed=_task_seed(task, self.campaign.seed),
            diagnostics=diagnostics)
        self.quarantined.append(tid)
        tracing.instant("fleet.quarantine", task=tid,
                        attempts=len(history))
        if self.collector is not None:
            self.collector.task_quarantined(tid)
        if self.artifact_dir:
            self._write_quarantine_artifact(tid, history, diagnostics)
        self._record(res)

    def _write_quarantine_artifact(self, tid, history, diagnostics):
        """Full quarantine forensics (incl. wall-clock timings the
        report must not carry) as a CI-uploadable artifact."""
        import json
        try:
            path = os.path.join(self.artifact_dir,
                                f"quarantine_{_safe_tag(tid)}.json")
            with open(path, "w") as f:
                json.dump({"task_id": tid,
                           "diagnostics": diagnostics,
                           "attempt_log": history}, f, indent=2,
                          sort_keys=True, default=str)
        except Exception:
            pass


# -- entry points -------------------------------------------------------------


def run_campaign(campaign, nworkers=None, artifact_dir=None,
                 simjit_cache_dir=None, trace=False, progress=None,
                 retry=None, task_deadline=None, journal=None,
                 resume=None, metrics_port=None,
                 metrics_host="127.0.0.1"):
    """Run every task of ``campaign`` and aggregate the results.

    ``nworkers=None`` uses one worker per usable CPU; ``nworkers <= 1``
    runs inline in this process (no pool, same execute path — the
    sequential baseline the equivalence tests compare against; note
    inline runs have no crash isolation or process deadlines).
    ``artifact_dir`` receives failure artifacts (shrunk repros, observe
    bundles, quarantine logs).  ``simjit_cache_dir`` overrides the
    shared ``.so`` cache location for workers (defaults to the
    inherited environment).

    Fault tolerance: ``retry`` (a :class:`RetryPolicy`, default
    ``RetryPolicy()``) bounds per-task attempts after worker crashes,
    deadline overruns, and transient timeouts; ``task_deadline``
    (seconds) is the process-level per-attempt wall-clock ceiling.
    ``journal``/``resume`` arm the write-ahead
    :class:`~repro.fleet.journal.Journal` (``resume`` accepts a path
    or Journal and implies journaling to the same file; completed
    tasks load instead of re-executing).  ``KeyboardInterrupt``
    returns a partial result (``stats["interrupted"]``) instead of
    raising.

    ``trace=True`` arms host-span tracing in every worker (plus
    supervisor instants in the parent) and merges the streamed spans
    into :attr:`FleetResult.trace`; ``progress`` is an optional
    callable invoked with the collector as messages and results
    arrive.  ``metrics_port`` (0 = OS-assigned; the bound port lands
    in ``stats["metrics_port"]``) serves the live collector as
    OpenMetrics text on ``http://metrics_host:port/metrics`` for the
    duration of the run (see :mod:`repro.insight.metricsd`).  All
    three are pure side-channel: the ``repro-fleet-v1`` report bytes
    are identical with or without them.

    Returns a :class:`FleetResult`; never raises for task-level or
    worker-level failures (see ``result.report["status"]`` /
    ``.failures``).
    """
    from .journal import Journal

    if not isinstance(campaign, Campaign):
        raise TypeError(f"not a Campaign: {campaign!r}")
    nworkers = default_nworkers() if nworkers is None else int(nworkers)
    retry = RetryPolicy() if retry is None else retry
    if artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)

    journal_obj = None
    completed = {}
    if resume is not None:
        journal_obj = (resume if isinstance(resume, Journal)
                       else Journal.resume(resume, campaign))
        completed = dict(journal_obj.results)
    elif journal is not None:
        journal_obj = Journal.create(journal, campaign)

    todo = [t for t in campaign.tasks if t.task_id not in completed]
    ntasks = len(campaign.tasks)
    nworkers = max(1, min(nworkers, max(1, len(todo))))

    collector = None
    if trace or progress is not None or metrics_port is not None:
        from .live import LiveCollector
        collector = LiveCollector(ntasks=ntasks, progress=progress)
        collector.tasks_done = len(completed)

    metrics_server = None
    if metrics_port is not None:
        from ..insight.metricsd import MetricsServer
        from ..telemetry.promexport import render_collector
        metrics_server = MetricsServer(
            lambda: render_collector(collector),
            port=metrics_port, host=metrics_host).start()

    start = perf_counter()
    try:
        if nworkers <= 1 or not todo:
            fresh, attempts, sup_stats, interrupted = _run_inline(
                campaign, todo, artifact_dir, simjit_cache_dir,
                collector, trace, retry, journal_obj)
        else:
            fresh, attempts, sup_stats, interrupted = _run_supervised(
                campaign, todo, nworkers, retry, task_deadline,
                artifact_dir, simjit_cache_dir, collector, trace,
                journal_obj)
    except BaseException:
        if metrics_server is not None:
            metrics_server.stop()
        raise
    finally:
        if journal_obj is not None:
            journal_obj.close()
    elapsed = perf_counter() - start

    by_id = dict(completed)
    by_id.update(fresh)
    ordered = [by_id[t.task_id] for t in campaign.tasks
               if t.task_id in by_id]
    report = aggregate(campaign, ordered, partial=interrupted)
    stats = {
        "nworkers": nworkers,
        "elapsed": elapsed,
        "throughput": (len(ordered) / elapsed if elapsed > 0
                       else float("inf")),
        "workers_used": sorted({r.worker for r in ordered
                                if r.worker is not None}),
        "task_elapsed": {r.task_id: r.elapsed for r in ordered},
        "task_kinds": _kind_stats(ordered) if ordered else {},
        "interrupted": interrupted,
        "resumed": sorted(completed),
        "attempts": attempts,
        **sup_stats,
    }
    if metrics_server is not None:
        stats["metrics_port"] = metrics_server.port
        metrics_server.stop()
    return FleetResult(campaign, ordered, report, stats,
                       trace=collector if trace else None)


def _run_supervised(campaign, todo, nworkers, retry, task_deadline,
                    artifact_dir, simjit_cache_dir, collector, trace,
                    journal_obj):
    """The ``nworkers > 1`` path: supervised worker processes."""
    from ..telemetry import tracing

    mp_ctx = multiprocessing.get_context(_start_method())
    cache_dir = simjit_cache_dir or os.environ.get("SIMJIT_CACHE_DIR")
    prev_tracer = tracing.active() if trace else None
    parent_tracer = None
    if trace:
        # The parent records supervisor instants (fleet.retry /
        # fleet.respawn / fleet.quarantine); workers arm their own
        # tracers post-fork.
        parent_tracer = tracing.arm()
    try:
        sup = _Supervisor(campaign, todo, nworkers, retry,
                          task_deadline, artifact_dir, cache_dir,
                          mp_ctx, collector, trace, journal_obj).run()
    finally:
        if trace:
            tracing.disarm()
            if prev_tracer is not None:
                tracing.arm(prev_tracer)
    if parent_tracer is not None and collector is not None:
        records = parent_tracer.drain()
        if records:
            collector.on_message(("spans", os.getpid(), records))
    stats = {"retries": sup.retries, "respawns": sup.respawns,
             "quarantined": sorted(sup.quarantined)}
    return sup.results, sup.attempts, stats, sup.interrupted


def _run_inline(campaign, todo, artifact_dir, simjit_cache_dir,
                collector, trace, retry, journal_obj):
    """The ``nworkers <= 1`` path: same execute/observe/retry/journal
    pipeline, no pool, messages fed straight into the collector."""
    from ..telemetry import tracing

    ctx = FleetContext(campaign.seed, artifact_dir)
    # Snapshot the cache-dir env var so an interrupt (or plain
    # completion) cannot leak a mutated SIMJIT_CACHE_DIR into the
    # calling process.
    prev_cache = os.environ.get("SIMJIT_CACHE_DIR")
    if simjit_cache_dir:
        os.environ["SIMJIT_CACHE_DIR"] = simjit_cache_dir
    sink = None
    prev_tracer = tracing.active() if trace else None
    if collector is not None:
        sink = _ObsSink(collector.on_message, trace)
    results = {}
    attempts = {}
    retries = 0
    interrupted = False
    try:
        for task in todo:
            attempt = 1
            while True:
                res = task.execute(campaign.seed, ctx, attempt=attempt)
                if not retry.should_retry_result(res, attempt):
                    break
                attempts.setdefault(task.task_id, []).append(
                    {"attempt": attempt, "reason": "timeout",
                     "elapsed": res.elapsed})
                delay = retry.delay(res.seed, attempt)
                retries += 1
                tracing.instant("fleet.retry", task=task.task_id,
                                attempt=attempt + 1, reason="timeout",
                                delay=round(delay, 4))
                if collector is not None:
                    collector.task_retried(task.task_id, attempt + 1,
                                           "timeout")
                sleep(delay)
                attempt += 1
            if sink is not None:
                sink.after_task(res)
            if collector is not None:
                collector.task_finished(res)
            if journal_obj is not None:
                journal_obj.append(res)
            results[task.task_id] = res
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if trace:
            tracing.disarm()
            if prev_tracer is not None:
                tracing.arm(prev_tracer)
        if simjit_cache_dir:
            if prev_cache is None:
                os.environ.pop("SIMJIT_CACHE_DIR", None)
            else:
                os.environ["SIMJIT_CACHE_DIR"] = prev_cache
    stats = {"retries": retries, "respawns": 0, "quarantined": []}
    return results, attempts, stats, interrupted
