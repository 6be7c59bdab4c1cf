"""Noise-aware perf-regression gating of benchmark envelopes.

The honest-measurement chain: the benches time instrumented vs
baseline workloads with *paired, order-alternating* reps (the shared
harness in ``benchmarks/common.py``) and record the per-rep relative
spread alongside each ratio.  The gate reuses exactly those
statistics — a result only counts as a regression when it moves by
more than

    ``max(rel_tolerance, spread_k * observed pairwise spread)``

so a noisy host widens its own gate instead of producing flaky
verdicts, while a real 2x slowdown clears any plausible spread.

What gets compared, per result entry (keyed by ``config`` /
``nworkers`` / index):

- **ratio metrics** (``slowdown*``, lower is better) — the primary
  gate.  Ratios are paired measurements on one host, so they transfer
  across machines; this is what CI gates against committed baselines.
- **rate metrics** (``cycles_per_sec``, ``tasks_per_min``, higher is
  better) — machine-dependent; gated only with ``absolute=True``
  (same-host A/B runs), otherwise reported as informational.
- **byte-determinism keys** (``report_sha256``) — gate at exact
  equality, no tolerance: determinism is not a statistic.
- **context keys** (``quick``, ``nrouters``, ``batch``, ...) — must
  match, and a key one side records and the other omits does not
  match: the envelopes describe different workloads and the gate
  refuses to pretend they are comparable.

An entry whose baseline carries a ratio metric must carry it in the
candidate too, or the check is ``missing``: a lost ratio is not
demoted to the rate metric's informational verdict.

Baselines live as committed ``repro-bench-v1`` files under
``benchmarks/results/baselines/`` (same filename as the candidate);
``python -m repro.insight gate`` wires this up for CI.
"""

from __future__ import annotations

import os

from .loaders import InsightError, load_bench

__all__ = ["GateResult", "gate_bench", "resolve_baseline",
           "DEFAULT_BASELINE_DIR"]

DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "results",
                                    "baselines")

#: envelope/entry keys gated at exact equality.
EXACT_KEYS = ("report_sha256",)

#: envelope keys that define the workload; a mismatch means the two
#: files measured different things and no tolerance applies.
CONTEXT_KEYS = ("quick", "nrouters", "batch", "depth", "nsignals",
                "ntasks", "ntxns_per_port")

#: rate metrics (higher is better), in pick order.
RATE_METRICS = ("cycles_per_sec", "tasks_per_min", "speedup")


def _entry_key(entry, index):
    if "config" in entry:
        return str(entry["config"])
    if "nworkers" in entry:
        return f"nworkers={entry['nworkers']}"
    return f"#{index}"


def _ratio_metric(entry):
    """The paired-ratio metric name of an entry, or ``None``."""
    for key in sorted(entry):
        if key.startswith("slowdown") and isinstance(
                entry[key], (int, float)):
            return key
    return None


def _rate_metric(entry):
    for key in RATE_METRICS:
        if isinstance(entry.get(key), (int, float)):
            return key
    return None


def _spread(*entries):
    """Widest recorded pairwise spread among the given entries."""
    best = 0.0
    for entry in entries:
        value = entry.get("pair_spread")
        if isinstance(value, (int, float)):
            best = max(best, float(value))
    return best


class GateResult:
    """The verdict plus every individual check, renderable and
    serializable as a stable ``repro-insight-v1`` dict."""

    def __init__(self, bench, checks, rel_tolerance, spread_k):
        self.bench = bench
        self.checks = checks
        self.rel_tolerance = rel_tolerance
        self.spread_k = spread_k

    @property
    def failures(self):
        return [c for c in self.checks
                if c["verdict"] in ("regression", "exact-mismatch",
                                    "context-mismatch", "missing")]

    @property
    def passed(self):
        return not self.failures

    def to_dict(self):
        return {
            "schema": "repro-insight-v1",
            "kind": "gate",
            "identical": False,
            "bench": self.bench,
            "passed": self.passed,
            "rel_tolerance": self.rel_tolerance,
            "spread_k": self.spread_k,
            "checks": sorted(self.checks,
                             key=lambda c: (c["key"], c["metric"])),
            "sections": {"failures": sorted(
                f"{c['key']}:{c['metric']}" for c in self.failures)},
        }

    def render_markdown(self):
        lines = [f"# insight gate — {self.bench}",
                 f"- verdict: **{'PASS' if self.passed else 'FAIL'}**",
                 f"- tolerance: {self.rel_tolerance:g} "
                 f"(spread_k {self.spread_k:g})", ""]
        lines.append("| check | metric | baseline | candidate "
                     "| change | threshold | verdict |")
        lines.append("|---|---|---|---|---|---|---|")
        for c in sorted(self.checks,
                        key=lambda c: (c["key"], c["metric"])):
            base = c.get("baseline")
            cand = c.get("candidate")
            change = c.get("rel_change")
            lines.append(
                f"| {c['key']} | {c['metric']} "
                f"| {_fmt(base)} | {_fmt(cand)} "
                f"| {_fmt_pct(change)} "
                f"| {_fmt_pct(c.get('threshold'))} "
                f"| {c['verdict']} |")
        return "\n".join(lines) + "\n"


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    return "—" if value is None else str(value)


def _fmt_pct(value):
    if isinstance(value, (int, float)):
        return f"{value * 100:+.1f}%" if value else "0%"
    return "—"


def gate_bench(baseline, candidate, rel_tolerance=0.10, spread_k=3.0,
               absolute=False):
    """Gate ``candidate`` against ``baseline`` (both loaded
    ``repro-bench-v1`` dicts); returns a :class:`GateResult`."""
    if baseline.get("bench") != candidate.get("bench"):
        raise InsightError(
            f"bench mismatch: baseline is "
            f"{baseline.get('bench')!r}, candidate is "
            f"{candidate.get('bench')!r}")
    checks = []

    for key in CONTEXT_KEYS:
        if (key in baseline) != (key in candidate) \
                or baseline.get(key) != candidate.get(key):
            checks.append({
                "key": "envelope", "metric": key,
                "baseline": baseline.get(key),
                "candidate": candidate.get(key),
                "verdict": "context-mismatch"})
    for key in EXACT_KEYS:
        if key in baseline or key in candidate:
            same = baseline.get(key) == candidate.get(key)
            checks.append({
                "key": "envelope", "metric": key,
                "baseline": baseline.get(key),
                "candidate": candidate.get(key),
                "verdict": "exact-ok" if same else "exact-mismatch"})

    base_by_key = {_entry_key(e, i): e
                   for i, e in enumerate(baseline.get("results", []))}
    cand_by_key = {_entry_key(e, i): e
                   for i, e in enumerate(candidate.get("results", []))}

    for key in sorted(base_by_key):
        base = base_by_key[key]
        cand = cand_by_key.get(key)
        if cand is None:
            checks.append({"key": key, "metric": "presence",
                           "baseline": "present", "candidate": None,
                           "verdict": "missing"})
            continue
        for exact in EXACT_KEYS:
            if exact in base or exact in cand:
                same = base.get(exact) == cand.get(exact)
                checks.append({
                    "key": key, "metric": exact,
                    "baseline": base.get(exact),
                    "candidate": cand.get(exact),
                    "verdict": "exact-ok" if same
                    else "exact-mismatch"})
        metric = _ratio_metric(base)
        if metric is not None:
            if isinstance(cand.get(metric), (int, float)):
                checks.append(_compare(
                    key, metric, base[metric], cand[metric],
                    lower_is_better=True, spread=_spread(base, cand),
                    rel_tolerance=rel_tolerance, spread_k=spread_k))
            else:
                checks.append({"key": key, "metric": metric,
                               "baseline": base[metric],
                               "candidate": cand.get(metric),
                               "verdict": "missing"})
            continue
        metric = _rate_metric(base)
        if metric is not None and isinstance(
                cand.get(metric), (int, float)):
            if absolute:
                checks.append(_compare(
                    key, metric, base[metric], cand[metric],
                    lower_is_better=False,
                    spread=_spread(base, cand),
                    rel_tolerance=rel_tolerance, spread_k=spread_k))
            else:
                checks.append({
                    "key": key, "metric": metric,
                    "baseline": base[metric],
                    "candidate": cand[metric],
                    "verdict": "info-only"})
            continue
        checks.append({"key": key, "metric": "(none)",
                       "baseline": None, "candidate": None,
                       "verdict": "skipped"})

    return GateResult(candidate.get("bench"), checks,
                      rel_tolerance, spread_k)


def _compare(key, metric, base, cand, lower_is_better, spread,
             rel_tolerance, spread_k):
    threshold = max(rel_tolerance, spread_k * spread)
    if base <= 0:
        return {"key": key, "metric": metric, "baseline": base,
                "candidate": cand, "verdict": "skipped"}
    # rel_change > 0 always means "got worse".
    if lower_is_better:
        rel_change = cand / base - 1.0
    else:
        rel_change = base / cand - 1.0 if cand > 0 else float("inf")
    if rel_change > threshold:
        verdict = "regression"
    elif rel_change < -threshold:
        verdict = "improved"
    else:
        verdict = "ok"
    return {"key": key, "metric": metric, "baseline": base,
            "candidate": cand, "rel_change": rel_change,
            "spread": spread, "threshold": threshold,
            "verdict": verdict}


def resolve_baseline(candidate_path, baseline_dir=None):
    """The committed baseline file matching a candidate envelope:
    same basename under ``baseline_dir``."""
    baseline_dir = baseline_dir or DEFAULT_BASELINE_DIR
    path = os.path.join(baseline_dir,
                        os.path.basename(candidate_path))
    if not os.path.exists(path):
        raise InsightError(
            f"no committed baseline for "
            f"{os.path.basename(candidate_path)!r} under "
            f"{baseline_dir}/")
    return load_bench(path), path
