"""Tests of the ladder benchmark itself.

Run as ``python -m pytest benchmarks/ladder -q`` from the repository
root (outside tier-1's ``testpaths``; the smoke suite takes about a
minute).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import spans

ROOT = run.ROOT


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- spans.py ----------------------------------------------------------


def test_self_time_is_span_minus_children():
    rec = spans.Recorder("w")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    table = rec.self_times()
    count, total, own = table["outer"]
    inner_total = table["inner"][1]
    assert count == 1 and table["inner"][0] == 2
    assert own == pytest.approx(total - inner_total)
    assert 0.0 < rec.child_cover("outer") <= 1.0
    assert rec.total_s("inner", under="outer") == inner_total
    assert rec.total_s("inner", under="elsewhere") == 0.0
    doc = rec.to_json()
    assert [s["parent"] for s in doc["spans"]] == [None, 0, 0]
    assert {s["workload"] for s in doc["spans"]} == {"w"}


def test_meter_counts_outermost_calls_and_restores_the_method():
    class Sim:
        def cycle(self):
            return self.settle() + 1

        def settle(self):
            return 1

    sim, rec = Sim(), spans.Recorder("w")
    cycle = rec.meter(sim, "cycle", "cycle")
    settle = rec.meter(sim, "settle", "settle", within=cycle)
    with spans.attached([cycle, settle]):
        assert sim.cycle() == 2          # settle runs inside cycle
        assert sim.settle() == 1         # and once on its own
    assert (rec.calls("cycle"), rec.calls("settle")) == (1, 1)
    assert "cycle" not in vars(sim) and "settle" not in vars(sim)
    rec.retire([cycle, settle])
    assert rec.calls("cycle") == 1 and not rec.meters

    klass = rec.meter(Sim, "cycle", "class-level")
    original = Sim.__dict__["cycle"]
    with spans.attached([klass]):
        assert Sim().cycle() == 2
    assert Sim.__dict__["cycle"] is original and klass.calls == 1


def test_disabled_recorder_records_nothing():
    rec = spans.Recorder("w", enabled=False)
    with rec.span("anything") as attrs:
        attrs["n"] = 1
    assert rec.spans == [] and rec.to_json()["spans"] == []


# -- run.py's estimator ------------------------------------------------


def test_corrected_rate_counts_each_kind_once_at_its_median():
    one_kind = [run.Segment(0, 100, wall, False) for wall in (1.0, 2.0, 4.0)]
    assert run.corrected_rate(one_kind) == 50.0     # median of the rates
    # Two seconds on a host at half speed are one corrected second.
    assert run.corrected_rate(
        [run.Segment(0, 100, 2.0, False, host_speed=0.5)]) == 100.0
    assert run.host_speed(run.HOST_UNIT_NOMINAL_S,
                          3 * run.HOST_UNIT_NOMINAL_S) == 0.5
    two_kinds = one_kind + [run.Segment(1, 10, wall, False)
                            for wall in (3.0, 3.0, 30.0)]
    assert run.corrected_rate(two_kinds) == 110 / 5.0


# -- BENCHMARK.json against the code and the contract's limits ---------


def test_benchmark_json_names_what_the_code_reports():
    _, workloads = run._import_program()
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "benchmarks/ladder/run.py"]
    assert doc["paths"] == ["benchmarks/ladder"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (cls.name, cls.why) for cls in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == workloads.PER_LAYER

    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in doc[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"])
               for key in ("end_to_end", "per_layer") for m in doc[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    # 0.25 is the contract's ceiling for a bound, not this benchmark's
    # choice of one.
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128
    nruns = 4 + 22 * len(doc["workloads"])
    assert 1 <= doc["run_seconds"] <= 60
    assert nruns * doc["run_seconds"] < 3420


# -- the runs ----------------------------------------------------------


def test_wrong_expected_value_is_a_failed_op_not_an_exception():
    wrong = {"mesh64-kernel": {"prefix": {"injected": -1}}}
    detail = run.run_workload("mesh64-kernel", seed=1, seconds=0.2,
                              smoke=True, pinned=wrong)
    assert detail["ops_failed"] == 1
    assert "pinned_seed1.json" in detail["failures"][0]
    assert detail["end_to_end"]["cycles_per_s"] > 0
    # However short --seconds is, the median is over enough segments.
    assert detail["segments"]["count"] >= run.MIN_SEGMENTS
    _, workloads = run._import_program()
    line = json.loads(run.contract_line(detail, workloads))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False and line["failed"] == 1
    assert set(line["metrics"]) == {n for n, _, _ in workloads.END_TO_END}
    # No scratch directory survives the run.
    assert not [d for d in os.listdir(run.WORK_ROOT)
                if d.startswith("run-")]


def test_smoke_suite_emits_every_workload_and_metric():
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
         "--trace", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

    from repro.insight import load_report
    doc = _benchmark_json()
    schema, latest = load_report(
        os.path.join(run.SMOKE_RESULTS, "latest.json"))
    assert schema == "repro-bench-v1" and latest["smoke"] is True
    rows = {row["workload"]: row for row in latest["results"]}
    assert list(rows) == [w["name"] for w in doc["workloads"]]
    for name, row in rows.items():
        assert row["ops_failed"] == 0, row["failures"]
        assert row["ops_attempted"] >= 1
        assert set(row["metrics"]) == {
            m["name"] for m in doc["end_to_end"]}
        assert all(v > 0 for v in row["metrics"].values()), name
        assert set(row["per_layer"]) == {
            m["name"] for m in doc["per_layer"]}
        # The set-up phases the benchmark spans account for the
        # traced set-up.
        assert row["per_layer"]["bench.setup_span_cover"] >= 0.95, name
        # Every metric is printed by name with its unit.
        for metric in doc["end_to_end"] + doc["per_layer"]:
            assert re.search(
                rf"^  {re.escape(metric['name'])} +\S+ "
                rf"{re.escape(metric['unit'])}$", done.stdout, re.M)

    # What a workload bypasses reads zero: no SimJIT on the kernel
    # rung, no fleet outside the campaign.
    assert rows["mesh64-kernel"]["per_layer"]["core.simjit.compiles"] == 0
    assert rows["mesh64-jit"]["per_layer"]["core.simjit.compiles"] == 1
    assert rows["cosim-mesh16"]["per_layer"]["fleet.runner.tasks"] == 0
    # The two mesh rungs simulate the same design on the same traffic.
    assert (rows["mesh64-kernel"]["exact"]["prefix"]
            == rows["mesh64-jit"]["exact"]["prefix"])

    _, trace = load_report(os.path.join(run.SMOKE_RESULTS, "trace.json"))
    assert [t["workload"] for t in trace["results"]] == list(rows)
    for recorded in trace["results"]:
        assert recorded["spans"][0]["name"] == "setup" or any(
            s["name"] == "setup" for s in recorded["spans"])
        for span in recorded["spans"]:
            assert set(span) == {"name", "start_us", "end_us", "parent",
                                 "workload", "attrs"}
            assert span["end_us"] >= span["start_us"]


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "ladder",
                    ignore=shutil.ignore_patterns(
                        ".work", "__pycache__", ".pytest_cache"))
    doc = _benchmark_json()
    done = subprocess.run(
        doc["command"] + ["--workload", "mesh64-kernel", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()
