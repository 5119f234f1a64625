"""Smoke test of the benchmark itself.

Lives outside ``testpaths`` (tier-1 time does not change); run with
``python -m pytest perfbench/tests -q``.  One ``run --smoke`` (every
workload at ~1/20 length, untraced and traced) feeds every assertion.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def perfbench(*args: str, cwd: Path = ROOT, timeout: float = 170):
    return subprocess.run([sys.executable, "-m", "perfbench", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    done = perfbench("run", "--smoke", "--seed", "1000", "--out", str(out))
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return out, json.loads(out.read_text()), done.stdout


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer")
             for item in SPEC[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_every_declared_name_is_emitted_and_vice_versa(smoke):
    _path, result, _stdout = smoke
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, sides in result["workloads"].items():
        for side in ("end_to_end", "per_layer"):
            declared = {m["name"] for m in SPEC[side]}
            assert set(sides[side]["values"]) == declared, (name, side)
            assert sides[side]["correct"], (name, side,
                                            sides[side]["checks"])
            assert sides[side]["failed"] == 0


def test_end_to_end_metrics_are_never_zero(smoke):
    _path, result, _stdout = smoke
    for name, sides in result["workloads"].items():
        for metric, value in sides["end_to_end"]["values"].items():
            assert value > 0, (name, metric)


def test_spans_nest_and_close_the_budget(smoke):
    _path, result, _stdout = smoke
    for name, sides in result["workloads"].items():
        values = sides["per_layer"]["values"]
        for metric, value in values.items():
            if metric.endswith(".self_us_per_txn"):
                assert value >= 0, (name, metric)
        assert values["trace.unattributed_us_per_txn"] >= 0, name
    live = result["workloads"]["live_pa_closed"]["per_layer"]["values"]
    assert live["transport.storage.fsyncs_per_txn"] == live["log.ios_per_txn"]
    assert live["transport.wire.self_us_per_txn"] > 0
    observed = result["workloads"]["sim_pa_observed"]["per_layer"]["values"]
    assert observed["obs.overhead_ratio"] > 1.0


def test_every_metric_is_printed_by_name_and_unit(smoke):
    _path, _result, stdout = smoke
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ "
                         rf"{re.escape(metric['unit'])}$", stdout, re.M), \
            metric["name"]


def test_compare_of_a_file_with_itself_is_all_ok(smoke):
    path, _result, _stdout = smoke
    done = perfbench("compare", str(path), str(path))
    assert done.returncode == 0, done.stdout
    assert ", 0 not ok" in done.stdout
    rows = [line for line in done.stdout.splitlines()
            if line.startswith(("sim_", "live_"))]
    # One row per workload x end-to-end metric, plus the exact counts.
    assert len(rows) >= len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert all(" ok " in row for row in rows)


def test_driver_form_prints_one_json_object_last():
    done = perfbench("run", "--workload", "sim_pa_observed", "--seed", "7",
                     "--seconds", "0.5", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_count_bounded_runs_repeat_their_exact_counts():
    runs = []
    for _ in range(2):
        done = perfbench("run", "--workload", "sim_pn_contended", "--seed",
                         "5", "--txns", "120", "--trace", "1")
        assert done.returncode == 0, done.stdout + done.stderr
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    for metric in ("net.flows_per_txn", "log.forced_per_txn",
                   "log.ios_per_txn", "sim.events_per_txn",
                   "core.sim_latency_p99"):
        assert runs[0]["metrics"][metric] == runs[1]["metrics"][metric]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = perfbench("run", "--workload", "sim_pa_steady", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
