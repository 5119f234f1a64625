"""The whole simulator fault campaign, pinned.

Each digest is the 16-hex SHA-256 prefix of a report's
``json.dumps(to_dict(), sort_keys=True)`` or ``describe()``, recorded
before torture, chaos and fuzz shared one runner and one verdict.  A
moved digest means a harness now builds, runs or reports something
else.  The two artifacts under ``tests/data`` were written by the
harnesses' own artifact modules before they became one envelope; they
must still load and replay.
"""

import hashlib
import json
import os

import pytest

from repro.chaos import replay_chaos_artifact, run_chaos_campaign
from repro.chaos.campaign import chaos_spec
from repro.faults.campaign import load_artifact
from repro.fuzz import fuzz
from repro.torture import replay_artifact, torture_sweep
from repro.torture.harness import cell_spec
from repro.transport.wire import spec_from_wire, spec_to_wire

DATA = os.path.join(os.path.dirname(__file__), "data")
TORTURE_ARTIFACT = os.path.join(DATA, "PA-missing-rm-force1-n1-pre.json")
CHAOS_ARTIFACT = os.path.join(
    DATA, "chaos-PA-baseline-s1111561147-1c46e9b9.json")


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def report_digests(report):
    return (digest(json.dumps(report.to_dict(), sort_keys=True)),
            digest(report.describe()))


@pytest.mark.parametrize("workers", [1, 2])
def test_torture_sweep_digests(workers):
    report = torture_sweep(seed=0, workers=workers)
    assert report.total_runs == 1084
    assert report_digests(report) == ("14d2d0497e32508c",
                                      "44d4814ad4a83669")


@pytest.mark.parametrize("workers", [1, 2])
def test_chaos_campaign_digests(workers):
    report = run_chaos_campaign(seed=0, workers=workers)
    assert report.total_runs == 208
    assert report_digests(report) == ("64f5e5ec378d0ffb",
                                      "6ad8fe3a16f4a252")


def test_fuzz_digests():
    assert digest(fuzz(runs=25, seed=0).describe()) == "604f9380be08d41f"
    assert digest(fuzz(runs=20, seed=7, fault_rate=1.0).describe()) == \
        "7e4fa4e78b6175bf"


def test_parent_torture_artifact_loads_and_replays(monkeypatch):
    data = load_artifact(TORTURE_ARTIFACT, "torture")
    assert spec_to_wire(spec_from_wire(data["spec"])) == \
        spec_to_wire(cell_spec("PA", "missing-rm"))
    assert replay_artifact(data).ok
    # With the silent relock loss it recorded put back, the replay
    # fails the way the artifact says.
    from repro.metrics.collector import MetricsCollector
    monkeypatch.setattr(MetricsCollector, "record_recovery_anomaly",
                        lambda self, *args, **kwargs: None)
    replayed = replay_artifact(data)
    assert replayed.verdict == data["verdict"] == "violations"
    assert set(data["violations"]) <= set(replayed.violations)


def test_parent_chaos_artifact_loads_and_replays(monkeypatch):
    data = load_artifact(CHAOS_ARTIFACT, "chaos")
    assert spec_to_wire(spec_from_wire(data["spec"])) == \
        spec_to_wire(chaos_spec("PA", "baseline"))
    assert replay_chaos_artifact(data).ok
    from repro.core.decision import DecisionMixin
    monkeypatch.setattr(DecisionMixin, "_duplicate_decision",
                        lambda self, context, outcome: False)
    replayed = replay_chaos_artifact(data)
    assert replayed.verdict == data["verdict"] == "violations"
    assert set(data["violations"]) <= set(replayed.violations)
