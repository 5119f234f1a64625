"""Torture harness and fault-injection/recovery bugfix regressions."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.faults.injector import (
    CrashPlan,
    CrashSite,
    FaultInjector,
    FaultPlan,
)
from repro.metrics.collector import MetricsCollector
from repro.net.message import Message, MessageType
from repro.net.network import NetworkError
from repro.faults.campaign import (
    HORIZON,
    MAX_EVENTS,
    Trial,
    load_artifact,
    save_artifact,
)
from repro.torture import (
    arm_crash,
    record_sites,
    replay_artifact,
    run_cell,
    run_site,
    torture_sweep,
)
from repro.torture.harness import (
    RESTART_DELAY,
    _build_cell,
    cell_spec,
)
from repro.transport.wire import spec_from_wire, spec_to_wire
from repro.verify import ProtocolChecker


# ----------------------------------------------------------------------
# Crash sites
# ----------------------------------------------------------------------
def test_crash_site_round_trip_and_validation():
    site = CrashSite("force", "n1", 2, label="prepare")
    assert CrashSite.from_dict(site.to_dict()) == site
    with pytest.raises(ValueError):
        CrashSite("flush", "n1", 0)
    with pytest.raises(ValueError):
        CrashSite("force", "n1", -1)


def test_crash_plan_site_mode_validation():
    site = CrashSite("send", "n0", 0)
    plan = CrashPlan("n0", site=site, when="post", restart_after=10.0)
    assert plan.site is site
    with pytest.raises(ValueError):
        CrashPlan("n1", site=site)            # node mismatch
    with pytest.raises(ValueError):
        CrashPlan("n0", site=site, when="during")
    with pytest.raises(ValueError):
        CrashPlan("n0", site=site, restart_at=5.0)
    with pytest.raises(ValueError):
        CrashPlan("n0")                       # neither at nor site


def test_fault_plan_site_mode_runs_end_to_end():
    """A site-addressed FaultPlan arms the crash itself: it fires, the
    node restarts after the delay, and the run is judged ok."""
    sites, __, __ = record_sites("PA", "baseline", 0)
    site = next(s for s in sites
                if s.kind == "force" and s.node == "n1")
    trial = Trial(*_build_cell("PA", "baseline", 0))
    FaultInjector(trial.cluster).apply(
        FaultPlan().crash_at_site(site, when="post", restart_after=RESTART_DELAY))
    trial.run()
    node = trial.cluster.nodes["n1"]
    assert node.crash_count == 1 and node.alive
    assert [r.node for r in trial.cluster.metrics.recoveries] == ["n1"]
    run = trial.result(site.describe(), {"site": site.to_dict()},
                       fired=node.crash_count == 1)
    assert run.verdict == "ok", run.violations


def test_recorder_finds_all_three_kinds():
    sites, violations, outcome = record_sites("PA", "baseline", 0)
    assert not violations
    assert outcome == "commit"
    kinds = {site.kind for site in sites}
    assert kinds == {"force", "send", "deliver"}
    # Ordinals are dense per (kind, node).
    seen = {}
    for site in sites:
        key = (site.kind, site.node)
        assert site.seq == seen.get(key, 0)
        seen[key] = site.seq + 1


# ----------------------------------------------------------------------
# The matrix (tier-1 smoke: two cells, every site, pre and post)
# ----------------------------------------------------------------------
def test_torture_cell_baseline_is_clean():
    result = run_cell("PA", "baseline", 0)
    assert result.clean, "\n".join(
        run.describe() for run in result.failures)
    assert result.sites
    assert len(result.runs) == 2 * len(result.sites)
    assert all(run.verdict == "ok" for run in result.runs)


def test_torture_cell_missing_rm_is_clean():
    """The degraded-recovery cell passes because the relock loss is
    surfaced as an anomaly (rule RL accepts surfaced, rejects silent)."""
    result = run_cell("PC", "missing-rm", 0)
    assert result.clean, "\n".join(
        run.describe() for run in result.failures)


def test_torture_sweep_is_deterministic_serial_vs_parallel():
    kwargs = dict(configs=["PA"], variants=["baseline", "read-only"],
                  seed=3)
    serial = torture_sweep(workers=1, **kwargs)
    parallel = torture_sweep(workers=2, **kwargs)
    again = torture_sweep(workers=1, **kwargs)
    assert serial.to_dict() == parallel.to_dict()
    assert serial.to_dict() == again.to_dict()
    assert serial.clean


def test_fuzz_is_deterministic_across_invocations():
    from repro.fuzz import fuzz
    first = fuzz(runs=8, seed=5)
    second = fuzz(runs=8, seed=5)
    assert first.describe() == second.describe()
    assert [str(v) for v in first.violations] == \
        [str(v) for v in second.violations]


def test_torture_sweep_validates_names():
    with pytest.raises(ValueError):
        torture_sweep(configs=["NOPE"])
    with pytest.raises(ValueError):
        torture_sweep(variants=["turbo"])


def test_torture_max_sites_truncation_is_reported():
    result = run_cell("PA", "baseline", 0, max_sites=3)
    assert len(result.sites) == 3
    assert result.sites_truncated > 0
    assert len(result.runs) == 6


# ----------------------------------------------------------------------
# Acceptance: a silently swallowed relock loss is caught as a failing
# site with a replayable artifact.
# ----------------------------------------------------------------------
def test_silent_relock_loss_is_caught(monkeypatch, tmp_path):
    # Re-introduce the bug: recovery "handles" the missing RM without
    # recording the anomaly.  Rule RL must now fail the sites whose
    # restart rebuilds in-doubt state against the vanished RM.
    monkeypatch.setattr(MetricsCollector, "record_recovery_anomaly",
                        lambda self, *args, **kwargs: None)
    result = run_cell("PA", "missing-rm", 0)
    assert result.failures, "silent relock loss went undetected"
    for run in result.failures:
        assert run.verdict == "violations"
        assert any("RL" in violation for violation in run.violations)

    # The failing site round-trips through a replayable artifact.
    failing = result.failures[0]
    path = save_artifact(str(tmp_path), "torture", "PA", "missing-rm", 0,
                         failing.fault, failing.verdict, failing.violations,
                         spec=cell_spec("PA", "missing-rm"))
    loaded = load_artifact(path, "torture")
    assert spec_to_wire(spec_from_wire(loaded["spec"])) == loaded["spec"]
    replayed = replay_artifact(loaded)
    assert replayed.verdict == failing.verdict
    assert replayed.violations == failing.violations


def test_load_artifact_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"kind": "benchmark", "version": 1}')
    with pytest.raises(ValueError):
        load_artifact(str(path), "torture")


# ----------------------------------------------------------------------
# Satellite: relock anomaly is recorded, noted, and surfaced
# ----------------------------------------------------------------------
def test_relock_missing_rm_records_anomaly_and_note():
    sites, clean_violations, __ = record_sites("PA", "missing-rm", 0)
    assert not clean_violations
    notes = []
    hits = 0
    for site in sites:
        if site.node != "n1" or site.kind != "force":
            continue
        for when in ("pre", "post"):
            cluster, spec = _build_cell("PA", "missing-rm", 0)
            cluster.nodes["n1"].on_note.append(
                lambda node, txn, text: notes.append(text))
            arm_crash(cluster, site, when=when,
                      restart_after=RESTART_DELAY,
                      on_crash=lambda cluster=cluster:
                      cluster.nodes["n1"].detached_rms.pop("aux", None))
            handles = []
            cluster.simulator.call_soon(
                lambda cluster=cluster, spec=spec, handles=handles:
                handles.append(cluster.start_transaction(spec)))
            cluster.run_until(HORIZON, max_events=MAX_EVENTS)
            hits += cluster.metrics.recovery_anomaly_count(
                node="n1", kind="relock-missing-rm", detail="aux")
    assert hits > 0, "no crash site exercised the missing-RM relock path"
    assert any("cannot relock" in text for text in notes)


def test_recovery_anomaly_counter_in_run_report():
    from repro.obs.report import RunReport
    cluster = Cluster(PRESUMED_ABORT, nodes=["a"])
    cluster.metrics.record_recovery_anomaly("a", "relock-missing-rm",
                                            "aux")
    assert cluster.metrics.recovery_anomaly_count() == 1
    assert cluster.metrics.recovery_anomaly_count(
        node="a", kind="relock-missing-rm", detail="aux") == 1
    assert cluster.metrics.recovery_anomaly_count(node="b") == 0
    report = RunReport.from_run(cluster)
    assert report.counters["recovery anomalies"] == 1


# ----------------------------------------------------------------------
# Satellite: FaultInjector drop-filter composition
# ----------------------------------------------------------------------
def test_injector_composes_with_existing_drop_filter():
    cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])

    def user_filter(message):
        return message.msg_type is MessageType.PREPARE

    cluster.network.set_drop_filter(user_filter)
    injector = FaultInjector(cluster)
    injector.apply(FaultPlan().lose_messages(1.0, msg_types=("ack",)))
    injector.apply(FaultPlan().lose_messages(1.0, msg_types=("commit",)))

    active = cluster.network.drop_filter
    assert active(Message(MessageType.PREPARE, "t", "a", "b"))
    assert active(Message(MessageType.ACK, "t", "a", "b"))
    assert active(Message(MessageType.COMMIT, "t", "a", "b"))
    assert not active(Message(MessageType.VOTE_YES, "t", "a", "b"))

    injector.clear_message_loss()
    assert cluster.network.drop_filter is user_filter
    injector.clear_message_loss()              # idempotent
    assert cluster.network.drop_filter is user_filter


# ----------------------------------------------------------------------
# Satellite: heal() validates node names
# ----------------------------------------------------------------------
def test_heal_rejects_unknown_nodes():
    cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
    with pytest.raises(NetworkError):
        cluster.network.heal("a", "ghost")
    with pytest.raises(NetworkError):
        cluster.network.heal("ghost", "b")
    cluster.network.partition("a", "b")
    cluster.network.heal("a", "b")             # valid pair still works
    assert not cluster.network.is_partitioned("a", "b")


# ----------------------------------------------------------------------
# Satellite: ProtocolChecker attach is idempotent; detach removes hooks
# ----------------------------------------------------------------------
def test_checker_attach_idempotent_and_detachable():
    cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
    sends_before = len(cluster.network.on_send)
    checker = ProtocolChecker().attach(cluster)
    sends_attached = len(cluster.network.on_send)
    assert sends_attached == sends_before + 1
    assert checker.attach(cluster) is checker          # no-op re-attach
    assert len(cluster.network.on_send) == sends_attached
    assert checker.attached

    other = Cluster(PRESUMED_ABORT, nodes=["x"])
    with pytest.raises(RuntimeError):
        checker.attach(other)

    checker.detach()
    assert not checker.attached
    assert len(cluster.network.on_send) == sends_before
    checker.attach(other)                              # reusable after detach
    assert checker.attached


def test_checker_check_recovery_locks_requires_attachment():
    with pytest.raises(RuntimeError):
        ProtocolChecker().check_recovery_locks("a")


# ----------------------------------------------------------------------
# Armed crashes (unit-level semantics)
# ----------------------------------------------------------------------
def test_armed_send_pre_suppresses_the_send():
    """A 'pre' send crash means the message never left: the checker
    (installed after arming) must not observe the suppressed send."""
    sites, violations, __ = record_sites("PA", "baseline", 0)
    assert not violations
    site = next(s for s in sites if s.kind == "send" and s.node == "n0")
    run = run_site("PA", "baseline", 0, site, "pre")
    assert run.verdict == "ok", run.describe()


def test_armed_crash_rejects_bad_arguments():
    cluster, __ = _build_cell("PA", "baseline", 0)
    site = CrashSite("send", "n0", 0)
    with pytest.raises(ValueError):
        arm_crash(cluster, site, when="mid")
    with pytest.raises(ValueError):
        arm_crash(cluster, CrashSite("send", "ghost", 0))
