"""The insight plane: loaders, structural diff, perf gate, metrics.

Four properties under test:

1. **Loaders fail in one line** — missing files, truncated JSON,
   wrong schemas all raise :class:`InsightError` (and the CLIs turn
   that into exit 2, never a traceback).
2. **Diff is exact and stable** — identical reports short-circuit to
   ``identical``; perturbations surface as typed, sorted drift
   records naming the exact key (counter deltas, coverage bins,
   histogram summaries recomputed from bins, ``ok->poisoned``
   transitions).
3. **The gate is noise-aware** — a 2x slowdown fails, an unmodified
   rerun passes, and a recorded pairwise spread widens the gate
   instead of producing flaky verdicts.  Byte-determinism keys gate
   at exact equality; mismatched workload context refuses comparison.
4. **Metrics are a pure side-channel** — the OpenMetrics exposition
   is golden-pinned, the HTTP endpoint serves it live, and arming the
   server does not move a byte of the ``repro-fleet-v1`` report.
"""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.fleet import (
    BenchPointTask,
    Campaign,
    VerifSweepTask,
    run_campaign,
)
from repro.fleet.live import LiveCollector, _maxrss_bytes, worker_snapshot
from repro.insight import (
    InsightError,
    MetricsServer,
    diff_reports,
    gate_bench,
    load_bench,
    load_report,
)
from repro.insight.__main__ import main as insight_main
from repro.observe.dump import main as dump_main
from repro.telemetry.promexport import CONTENT_TYPE, render_collector

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "metrics.prom")


# -- fixtures -----------------------------------------------------------------


def _fleet_report(**over):
    """A minimal but schema-complete repro-fleet-v1 dict."""
    rep = {
        "schema": "repro-fleet-v1",
        "campaign": "mini", "seed": 7, "ntasks": 2, "status": "ok",
        "counts": {"ok": 2},
        "failures": [],
        "tasks": {"verif/a": {"status": "ok", "kind": "verif"},
                  "bench/b": {"status": "ok", "kind": "bench"}},
        "coverage": {"mesh": {"hop0": 3, "hop1": 0}},
        "telemetry": {
            "counters": {"router.grants": 40, "link.flits": 12},
            "histograms": {"lat": {"bins": [[3, 2], [7, 1]],
                                   "count": 3, "mean": 13 / 3,
                                   "min": 3, "max": 7}},
        },
    }
    rep.update(over)
    return rep


def _mutate(rep, fn):
    rep = json.loads(json.dumps(rep))
    fn(rep)
    return rep


def _bench_env(slowdown=1.02, spread=0.02, **over):
    env = {
        "schema": "repro-bench-v1", "bench": "telemetry",
        "git_sha": "deadbee", "host": {"host_cpus": 4},
        "quick": True, "nrouters": 16,
        "results": [
            {"config": "baseline", "cycles_per_sec": 1.0e6,
             "slowdown_vs_baseline": 1.0},
            {"config": "disabled", "cycles_per_sec": 0.98e6,
             "slowdown_vs_baseline": slowdown,
             "pair_spread": spread},
        ],
    }
    env.update(over)
    return env


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str)
                    else json.dumps(data, indent=2, sort_keys=True))
    return str(path)


# -- 1. loaders ---------------------------------------------------------------


def test_load_report_roundtrip(tmp_path):
    path = _write(tmp_path, "r.json", _fleet_report())
    schema, rep = load_report(path)
    assert schema == "repro-fleet-v1"
    assert rep["campaign"] == "mini"


def test_load_missing_file_is_one_line(tmp_path):
    with pytest.raises(InsightError, match="no such file"):
        load_report(str(tmp_path / "nope.json"))


def test_load_truncated_json(tmp_path):
    path = _write(tmp_path, "trunc.json",
                  json.dumps(_fleet_report())[:40])
    with pytest.raises(InsightError, match="not valid JSON"):
        load_report(path)


def test_load_unknown_schema(tmp_path):
    path = _write(tmp_path, "odd.json", {"schema": "weird-v9"})
    with pytest.raises(InsightError, match="unknown schema"):
        load_report(path)


def test_load_wrong_expected_schema(tmp_path):
    path = _write(tmp_path, "r.json", _fleet_report())
    with pytest.raises(InsightError, match="expected"):
        load_report(path, expect="repro-telemetry-v1")


def test_load_missing_required_keys(tmp_path):
    rep = _fleet_report()
    del rep["coverage"]
    path = _write(tmp_path, "r.json", rep)
    with pytest.raises(InsightError, match="missing key"):
        load_report(path)


def test_load_bench_rejects_non_bench(tmp_path):
    # A pre-envelope BENCH_*.json (no "schema" key) is refused too.
    path = _write(tmp_path, "r.json", {"bench": "old", "results": []})
    with pytest.raises(InsightError, match="unknown schema None"):
        load_bench(path)


# -- 2. diff ------------------------------------------------------------------


def test_diff_identical_reports():
    insight = diff_reports(_fleet_report(), _fleet_report())
    assert insight["identical"] is True
    assert insight["n_drifts"] == 0
    assert insight["sections"] == {}


def test_diff_is_stable_bytes():
    a = _fleet_report()
    b = _mutate(a, lambda r: r["telemetry"]["counters"].update(
        {"router.grants": 41}))
    one = json.dumps(diff_reports(a, b), sort_keys=True)
    two = json.dumps(diff_reports(a, b), sort_keys=True)
    assert one == two


def test_diff_counter_drift_names_the_key():
    a = _fleet_report()
    b = _mutate(a, lambda r: r["telemetry"]["counters"].update(
        {"router.grants": 43}))
    insight = diff_reports(a, b)
    assert insight["identical"] is False
    assert "counters:router.grants" in insight["drifted_keys"]
    entry = insight["sections"]["counters"]["changed"]["router.grants"]
    assert entry == {"a": 40, "b": 43, "delta": 3}


def test_diff_poisoned_transition():
    a = _fleet_report()
    b = _mutate(a, lambda r: r["tasks"]["verif/a"].update(
        {"status": "poisoned"}))
    insight = diff_reports(a, b)
    trans = insight["sections"]["tasks"]["transitions"]
    assert trans == {"verif/a": "ok->poisoned"}
    assert "tasks:verif/a" in insight["drifted_keys"]


def test_diff_coverage_bin_gain_and_loss():
    a = _fleet_report()
    b = _mutate(a, lambda r: r["coverage"]["mesh"].update(
        {"hop0": 0, "hop1": 2}))
    cov = diff_reports(a, b)["sections"]["coverage"]
    assert cov["gained_bins"] == {"mesh": ["hop1"]}
    assert cov["lost_bins"] == {"mesh": ["hop0"]}


def test_diff_histogram_summaries_recomputed_from_bins():
    a = _fleet_report()
    # Perturb the bins but leave the (stale) stored summary alone:
    # the diff must trust only the bins.
    b = _mutate(a, lambda r: r["telemetry"]["histograms"]["lat"]
                .update({"bins": [[3, 2], [7, 1], [90, 1]]}))
    hist = diff_reports(a, b)["sections"]["histograms"]["changed"]["lat"]
    assert hist["count_delta"] == 1
    assert hist["bins_added"] == [90]
    assert hist["b"]["max"] == 90


def test_diff_empty_histograms():
    a = _fleet_report()
    a["telemetry"]["histograms"] = {"lat": {"bins": []}}
    b = _mutate(a, lambda r: None)
    assert diff_reports(a, b)["identical"] is True
    c = _mutate(a, lambda r: r["telemetry"]["histograms"]["lat"]
                .update({"bins": [[1, 1]]}))
    hist = diff_reports(a, c)["sections"]["histograms"]["changed"]["lat"]
    assert hist["a"]["count"] == 0 and hist["b"]["count"] == 1


def test_diff_missing_section_falls_to_flat_path():
    a = _fleet_report()
    b = _mutate(a, lambda r: r.update({"status": "failed"}))
    insight = diff_reports(a, b)
    assert insight["sections"]["scalars"]["changed"]["status"] \
        == {"a": "ok", "b": "failed"}


def test_diff_refuses_cross_schema():
    tele = {"schema": "repro-telemetry-v1", "design": "d",
            "ncycles": 10, "counters": {}, "histograms": {},
            "leaf_totals": {}}
    with pytest.raises(InsightError, match="cannot diff"):
        diff_reports(_fleet_report(), tele)


def test_diff_telemetry_reports():
    tele = {"schema": "repro-telemetry-v1", "design": "d",
            "ncycles": 10, "counters": {"c.a": 1},
            "histograms": {}, "leaf_totals": {"a": 1}}
    other = json.loads(json.dumps(tele))
    other["counters"]["c.a"] = 2
    insight = diff_reports(tele, other)
    assert insight["drifted_keys"] == ["counters:c.a"]


# -- 3. gate ------------------------------------------------------------------


def test_gate_unmodified_rerun_passes():
    result = gate_bench(_bench_env(), _bench_env())
    assert result.passed
    assert result.failures == []


def test_gate_flags_2x_slowdown():
    result = gate_bench(_bench_env(slowdown=1.02),
                        _bench_env(slowdown=2.04))
    assert not result.passed
    fail = result.failures[0]
    assert fail["key"] == "disabled"
    assert fail["metric"] == "slowdown_vs_baseline"
    assert fail["verdict"] == "regression"


def test_gate_spread_widens_threshold():
    # 25% move, but the measurement itself recorded 10% pairwise
    # spread: threshold = max(0.10, 3 * 0.10) = 30% -> not a
    # regression.  The same move with a quiet 1% spread fails.
    noisy = gate_bench(_bench_env(slowdown=1.0, spread=0.10),
                       _bench_env(slowdown=1.25, spread=0.10))
    assert noisy.passed
    quiet = gate_bench(_bench_env(slowdown=1.0, spread=0.01),
                       _bench_env(slowdown=1.25, spread=0.01))
    assert not quiet.passed


def test_gate_exact_key_mismatch():
    base = _bench_env()
    base["results"][1]["report_sha256"] = "aaaa"
    cand = _bench_env()
    cand["results"][1]["report_sha256"] = "bbbb"
    result = gate_bench(base, cand)
    assert [c["verdict"] for c in result.failures] == ["exact-mismatch"]
    # Identical shas gate clean at exact equality.
    assert gate_bench(base, json.loads(json.dumps(base))).passed


def test_gate_context_mismatch_refuses_comparison():
    result = gate_bench(_bench_env(nrouters=16), _bench_env(nrouters=64))
    assert not result.passed
    assert result.failures[0]["verdict"] == "context-mismatch"
    assert result.failures[0]["metric"] == "nrouters"


def test_gate_context_key_on_one_side_refuses_comparison():
    # A quick baseline against a candidate that does not say whether
    # it was quick: not the same workload as far as the gate can tell.
    cand = _bench_env()
    del cand["quick"]
    result = gate_bench(_bench_env(), cand)
    assert [(c["metric"], c["verdict"]) for c in result.failures] == [
        ("quick", "context-mismatch")]


def test_gate_lost_ratio_metric_is_missing():
    # The entry kept its (10x lower) rate but lost the paired ratio
    # the baseline gated it on: not demoted to info-only.
    cand = _bench_env()
    del cand["results"][1]["slowdown_vs_baseline"]
    cand["results"][1]["cycles_per_sec"] = 0.098e6
    result = gate_bench(_bench_env(), cand)
    assert [(c["key"], c["metric"], c["verdict"])
            for c in result.failures] == [
        ("disabled", "slowdown_vs_baseline", "missing")]


def test_gate_rate_metrics_info_only_unless_absolute():
    base = _bench_env()
    cand = _bench_env()
    # Halve the machine-dependent rate on an entry with no ratio
    # metric: info-only by default, gated with absolute=True.
    for env in (base, cand):
        del env["results"][0]["slowdown_vs_baseline"]
    cand["results"][0]["cycles_per_sec"] = 0.5e6
    assert gate_bench(base, cand).passed
    absolute = gate_bench(base, cand, absolute=True)
    assert not absolute.passed
    assert absolute.failures[0]["metric"] == "cycles_per_sec"


def test_gate_missing_entry():
    cand = _bench_env()
    cand["results"] = cand["results"][:1]
    result = gate_bench(_bench_env(), cand)
    assert [c["verdict"] for c in result.failures] == ["missing"]


def test_gate_bench_name_mismatch():
    with pytest.raises(InsightError, match="bench mismatch"):
        gate_bench(_bench_env(), _bench_env(bench="observe"))


def test_gate_result_serializes_as_insight_dict():
    result = gate_bench(_bench_env(), _bench_env(slowdown=3.0))
    d = result.to_dict()
    assert d["schema"] == "repro-insight-v1"
    assert d["kind"] == "gate"
    assert d["passed"] is False
    assert "disabled:slowdown_vs_baseline" in d["sections"]["failures"]
    assert "| disabled |" in result.render_markdown()


# -- 4. RSS normalization -----------------------------------------------------


def test_maxrss_platform_units():
    # Linux getrusage reports KiB; macOS reports bytes.
    import sys
    assert _maxrss_bytes(2048, platform="linux") == 2048 * 1024
    assert _maxrss_bytes(2048, platform="darwin") == 2048
    # The default resolves to the running platform.
    assert _maxrss_bytes(2048) == _maxrss_bytes(
        2048, platform=sys.platform)


def test_worker_snapshot_normalizes_rss(monkeypatch):
    """Fake the resource module's answer: a 100 MiB peak reported in
    the platform unit must come out as 100 MiB of bytes either way."""
    import resource

    class FakeUsage:
        ru_utime = 1.0
        ru_stime = 0.5
        ru_maxrss = 102400 if os.sys.platform != "darwin" \
            else 104857600

    monkeypatch.setattr(resource, "getrusage",
                        lambda who: FakeUsage())
    snap = worker_snapshot(3, 1, 500, counters={"c": 2})
    assert snap["rss_bytes"] == 100 * 1024 * 1024
    assert snap["cpu_seconds"] == 1.5
    assert snap["ts"] > 0
    assert "rss_kb" not in snap


# -- 5. OpenMetrics exposition ------------------------------------------------


def _golden_collector():
    """Deterministic collector state for the golden exposition file."""
    c = LiveCollector(ntasks=5)
    c.on_message(("metrics", 101, {
        "tasks_done": 2, "tasks_failed": 0, "cycles": 1500,
        "rss_bytes": 64 * 1024 * 1024, "cpu_seconds": 1.25,
        "counters": {"router.xbar.grants": 40,
                     'link"up\\down".flits': 7},
        "ts": 1_000_000}))
    c.on_message(("metrics", 102, {
        "tasks_done": 2, "tasks_failed": 1, "cycles": 500,
        "rss_bytes": 32 * 1024 * 1024, "cpu_seconds": 0.75,
        "counters": {"router.xbar.grants": 10},
        "ts": 2_000_000}))
    c.tasks_done, c.tasks_failed = 4, 1
    c.retries, c.respawns = 2, 1
    c.quarantined = ["fault/bad"]
    return c


def test_metrics_golden_file():
    text = render_collector(_golden_collector(), elapsed=2.0)
    if os.environ.get("UPDATE_GOLDEN"):
        with open(GOLDEN, "w") as handle:
            handle.write(text)
    with open(GOLDEN) as handle:
        assert text == handle.read()


def test_metrics_exposition_shape():
    text = render_collector(_golden_collector(), elapsed=2.0)
    assert text.endswith("# EOF\n")
    assert "# TYPE repro_fleet_tasks_done counter" in text
    assert "repro_fleet_tasks_done_total 4" in text
    assert "repro_fleet_cycles_per_second 1000" in text
    assert 'repro_fleet_worker_rss_bytes{pid="101"} 67108864' in text
    # Label values escape quotes and backslashes.
    assert r'{name="link\"up\\down\".flits"} 7' in text


def test_metrics_server_scrape():
    c = _golden_collector()
    with MetricsServer(lambda: render_collector(c, elapsed=2.0),
                       port=0) as srv:
        assert srv.port > 0
        with urllib.request.urlopen(srv.url) as resp:
            assert resp.headers["Content-Type"] == CONTENT_TYPE
            body = resp.read().decode()
        assert body == render_collector(c, elapsed=2.0)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"http://127.0.0.1:{srv.port}/other")
        assert err.value.code == 404


def test_metrics_server_render_error_is_500():
    def boom():
        raise RuntimeError("collector gone")
    with MetricsServer(boom, port=0) as srv:
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(srv.url)
        assert err.value.code == 500
    # And the server came down clean (stop() is idempotent).
    srv.stop()


# -- 6. report bytes are sacred -----------------------------------------------


def _mini_campaign():
    return Campaign("insight-mini", 7, [
        VerifSweepTask("verif/cache", scenario="cache", ntxns=12),
        BenchPointTask("bench/mesh", design="mesh_traffic",
                       params={"nrouters": 4, "rate": 0.2,
                               "ncycles": 60}),
    ])


def test_metrics_server_does_not_touch_report_bytes():
    plain = run_campaign(_mini_campaign(), nworkers=2).report_json()
    armed = run_campaign(_mini_campaign(), nworkers=2, metrics_port=0)
    assert armed.stats["metrics_port"] > 0
    assert armed.report_json() == plain


# -- 7. CLI exit codes --------------------------------------------------------


def test_cli_diff_bit_exact_and_drift(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _fleet_report())
    b = _write(tmp_path, "b.json", _fleet_report())
    assert insight_main(["diff", a, b]) == 0
    assert "bit-exact" in capsys.readouterr().out

    drifted = _mutate(_fleet_report(),
                      lambda r: r["telemetry"]["counters"].update(
                          {"router.grants": 99}))
    c = _write(tmp_path, "c.json", drifted)
    assert insight_main(["diff", a, c]) == 1
    out = capsys.readouterr().out
    assert "counters:router.grants" in out


def test_cli_diff_bad_inputs_exit_2(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _fleet_report())
    assert insight_main(["diff", a, str(tmp_path / "no.json")]) == 2
    assert "no such file" in capsys.readouterr().err

    trunc = _write(tmp_path, "t.json", "{\"schema\": \"repro-fl")
    assert insight_main(["diff", a, trunc]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    wrong = _write(tmp_path, "w.json", {"schema": "nope-v0"})
    assert insight_main(["diff", a, wrong]) == 2
    assert "unknown schema" in capsys.readouterr().err


def test_cli_gate_pass_fail_and_artifacts(tmp_path, capsys):
    base = _write(tmp_path, "BENCH_telemetry.json", _bench_env())
    good = _write(tmp_path, "good.json", _bench_env(slowdown=1.03))
    bad = _write(tmp_path, "bad.json", _bench_env(slowdown=2.2))
    html = str(tmp_path / "gate.html")
    assert insight_main(["gate", good, "--baseline", base]) == 0
    assert "gate PASS" in capsys.readouterr().out
    assert insight_main(["gate", bad, "--baseline", base,
                         "--html", html]) == 1
    out = capsys.readouterr().out
    assert "gate FAIL" in out and "slowdown_vs_baseline" in out
    assert "<html" in open(html).read()


def test_cli_gate_resolves_committed_baseline(tmp_path, capsys):
    bdir = tmp_path / "baselines"
    bdir.mkdir()
    _write(bdir, "BENCH_telemetry.json", _bench_env())
    cand = _write(tmp_path, "BENCH_telemetry.json",
                  _bench_env(slowdown=1.01))
    assert insight_main(["gate", cand,
                         "--baseline-dir", str(bdir)]) == 0
    capsys.readouterr()
    orphan = _write(tmp_path, "BENCH_observe.json",
                    _bench_env(bench="observe"))
    assert insight_main(["gate", orphan,
                         "--baseline-dir", str(bdir)]) == 2
    assert "no committed baseline" in capsys.readouterr().err


def test_cli_report_renders_fleet_summary(tmp_path, capsys):
    path = _write(tmp_path, "r.json", _fleet_report())
    html = str(tmp_path / "r.html")
    assert insight_main(["report", path, "--html", html]) == 0
    page = open(html).read()
    assert "repro-fleet-v1" in page and "mini" in page


def test_observe_dump_cli_error_paths(tmp_path, capsys):
    assert dump_main([str(tmp_path / "no.json")]) == 2
    assert "error:" in capsys.readouterr().err

    trunc = tmp_path / "t.json"
    trunc.write_text('{"schema": "repro-obse')
    assert dump_main([str(trunc)]) == 2
    assert "error:" in capsys.readouterr().err

    wrong = tmp_path / "w.json"
    wrong.write_text(json.dumps({"schema": "not-observe"}))
    assert dump_main([str(wrong)]) == 2
    assert "error:" in capsys.readouterr().err

    # Right schema stamp, mangled body: one line, never a traceback.
    mangled = tmp_path / "m.json"
    mangled.write_text(json.dumps(
        {"schema": "repro-observe-v1", "design": "d", "reason": "r",
         "cycle": 5, "windows": [{"signals": []}]}))
    assert dump_main([str(mangled)]) == 2
    err = capsys.readouterr().err
    assert "malformed bundle" in err
