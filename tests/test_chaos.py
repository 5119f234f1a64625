"""Chaos engine, campaign harness, shrinking, and hardening regressions."""

import json

import pytest

from repro.chaos import (
    ChaosEngine,
    ChaosSchedule,
    chaos_spec,
    generate_schedule,
    replay_chaos_artifact,
    run_chaos_campaign,
    run_chaos_schedule,
    validate_action,
)
from repro.chaos.campaign import _build_chaos_cell
from repro.core.cluster import Cluster
from repro.core.config import (
    BASIC_2PC,
    PRESUMED_ABORT,
    PRESUMED_COMMIT,
    PRESUMED_NOTHING,
)
from repro.errors import ConfigurationError
from repro.faults.campaign import Trial, load_artifact, save_artifact
from repro.faults.injector import CrashSite, FaultInjector, FaultPlan
from repro.log.records import LogRecordType
from repro.metrics.collector import MetricsCollector
from repro.net.latency import ConstantLatency
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.verify import ProtocolChecker


def make_net():
    simulator = Simulator(seed=1)
    network = Network(simulator, MetricsCollector(), ConstantLatency(1.0))
    return simulator, network


def msg(src, dst, msg_type=MessageType.DATA, txn="t1", **kwargs):
    return Message(msg_type=msg_type, txn_id=txn, src=src, dst=dst,
                   **kwargs)


# ----------------------------------------------------------------------
# Action validation and schedule generation
# ----------------------------------------------------------------------
def test_validate_action_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        validate_action({"kind": "explode", "nth": 0})
    with pytest.raises(ConfigurationError):
        validate_action({"kind": "duplicate"})            # missing nth
    with pytest.raises(ConfigurationError):
        validate_action({"kind": "delay", "nth": -1, "extra": 2.0})
    with pytest.raises(ConfigurationError):
        validate_action({"kind": "delay", "nth": 0, "extra": 0.0})
    with pytest.raises(ConfigurationError):
        validate_action({"kind": "duplicate", "nth": 0, "copies": 0})
    with pytest.raises(ConfigurationError):
        validate_action({"kind": "flap", "a": "x", "b": "y", "at": 5.0})
    with pytest.raises(ConfigurationError):
        validate_action({"kind": "flap", "a": "x", "b": "y",
                         "at": 5.0, "heal_at": 5.0})
    with pytest.raises(ConfigurationError):
        validate_action({"kind": "flap", "a": "x", "b": "y",
                         "at": -1.0, "heal_at": 5.0})


def test_schedule_helpers():
    actions = [{"kind": "delay", "nth": 0, "extra": 1.0},
               {"kind": "hold", "nth": 3, "extra": 40.0},
               {"kind": "flap", "a": "x", "b": "y",
                "at": 2.0, "heal_at": 9.0}]
    schedule = ChaosSchedule(actions)
    assert len(schedule) == 3
    assert schedule.to_list() == actions
    assert len(schedule.without(1)) == 2
    assert schedule.subset([2]).to_list() == [actions[2]]
    text = schedule.describe()
    assert "delay@send#0" in text and "flap x-y" in text
    assert ChaosSchedule([]).describe() == "(no adversaries)"


def test_generate_schedule_deterministic_and_valid():
    nodes = ["n0", "n1", "n2", "n3"]
    for seed in range(25):
        first = generate_schedule(seed, nodes).to_list()
        second = generate_schedule(seed, nodes).to_list()
        assert first == second
        assert 1 <= len(first) <= 4
        ChaosSchedule(first)  # re-validates every action
    assert generate_schedule(1, nodes).to_list() != \
        generate_schedule(2, nodes).to_list()


# ----------------------------------------------------------------------
# Adversary delivery semantics
# ----------------------------------------------------------------------
def test_duplicate_adversary_delivers_copies():
    simulator, network = make_net()
    got = []
    network.register("a", lambda m: None)
    network.register("b", got.append)
    network.adversary = ChaosEngine(ChaosSchedule(
        [{"kind": "duplicate", "nth": 0, "copies": 2, "gap": 0.5}]))
    network.send(msg("a", "b"))
    simulator.run_until(10.0)
    assert len(got) == 3                # original + two copies
    assert network.sent == 1            # but only one flow was paid for
    assert network.adversary.fired and \
        network.adversary.fired[0][1] == "duplicate"


def test_reorder_adversary_violates_fifo():
    simulator, network = make_net()
    arrivals = []
    network.register("a", lambda m: None)
    network.register("b", lambda m: arrivals.append((m.txn_id,
                                                     simulator.now)))
    network.adversary = ChaosEngine(ChaosSchedule(
        [{"kind": "reorder", "nth": 0, "extra": 5.0}]))
    network.send(msg("a", "b", txn="first"))
    network.send(msg("a", "b", txn="second"))
    simulator.run_until(10.0)
    assert [t for t, _ in arrivals] == ["second", "first"]


def test_delay_adversary_keeps_fifo():
    simulator, network = make_net()
    arrivals = []
    network.register("a", lambda m: None)
    network.register("b", lambda m: arrivals.append((m.txn_id,
                                                     simulator.now)))
    network.adversary = ChaosEngine(ChaosSchedule(
        [{"kind": "delay", "nth": 0, "extra": 5.0}]))
    network.send(msg("a", "b", txn="first"))
    network.send(msg("a", "b", txn="second"))
    simulator.run_until(10.0)
    # The spike delays the first message AND everything behind it on
    # the link: the session stays in order.
    assert [t for t, _ in arrivals] == ["first", "second"]
    assert arrivals[0][1] == 6.0
    assert arrivals[1][1] >= arrivals[0][1]


def test_hold_adversary_delivers_stale():
    simulator, network = make_net()
    arrivals = []
    network.register("a", lambda m: None)
    network.register("b", lambda m: arrivals.append(simulator.now))
    network.adversary = ChaosEngine(ChaosSchedule(
        [{"kind": "hold", "nth": 0, "extra": 60.0}]))
    network.send(msg("a", "b"))
    simulator.run_until(100.0)
    assert arrivals == [61.0]


def test_unmatched_ordinals_take_default_path():
    simulator, network = make_net()
    got = []
    network.register("a", lambda m: None)
    network.register("b", got.append)
    network.adversary = ChaosEngine(ChaosSchedule(
        [{"kind": "duplicate", "nth": 7, "copies": 1, "gap": 1.0}]))
    network.send(msg("a", "b"))
    simulator.run_until(10.0)
    assert len(got) == 1
    assert network.adversary.fired == []


def test_flap_partitions_and_heals():
    cluster = Cluster(PRESUMED_ABORT, nodes=["a", "b"])
    ChaosEngine(ChaosSchedule(
        [{"kind": "flap", "a": "a", "b": "b",
          "at": 5.0, "heal_at": 9.0}])).install(cluster)
    cluster.run_until(6.0)
    assert cluster.network.is_partitioned("a", "b")
    cluster.run_until(10.0)
    assert not cluster.network.is_partitioned("a", "b")


def test_empty_engine_is_bit_identical_to_no_adversary():
    def signature(install_engine):
        trial = Trial(*_build_chaos_cell("PA", "baseline", 777))
        cluster = trial.cluster
        if install_engine:
            ChaosEngine().install(cluster)
        trial.run()
        return (trial.outcome, trial.quiesced, cluster.simulator.now,
                cluster.simulator.events_processed,
                cluster.network.sent, cluster.network.delivered)
    assert signature(False) == signature(True)


# ----------------------------------------------------------------------
# Protocol hardening regressions
# ----------------------------------------------------------------------
def test_duplicate_enroll_is_idempotent():
    # Ordinal 0 is the root's first enrollment send; before the guard
    # the duplicate crashed _new_context with "context already exists".
    run = run_chaos_schedule("PA", "baseline", 12345,
                             [{"kind": "duplicate", "nth": 0,
                               "copies": 2, "gap": 1.0}])
    assert run.ok, run.violations


def test_duplicate_commit_is_idempotent():
    # Pinned by the campaign scan: duplicating send #13 re-delivers the
    # COMMIT to intermediate n1, which used to re-log COMMITTED and
    # re-propagate COMMIT to n2 (rules R7 + RI).
    run = run_chaos_schedule("PA", "baseline", 1111561147,
                             [{"kind": "duplicate", "nth": 13,
                               "copies": 2, "gap": 2.373}])
    assert run.ok, run.violations


def test_stale_delegation_answered_not_dropped():
    # Pinned campaign counterexample: holding the n1->n2 enrollment for
    # 32.261s makes the last agent's unilateral abort cross the
    # delegation on the wire; the delegator then hung in doubt forever.
    run = run_chaos_schedule("PA", "last-agent", 2095662085,
                             [{"kind": "hold", "nth": 3,
                               "extra": 32.261}])
    assert run.ok, run.violations


@pytest.mark.parametrize("config,expected", [
    (BASIC_2PC, "abort"),
    (PRESUMED_ABORT, "abort"),
    (PRESUMED_NOTHING, "abort"),
    (PRESUMED_COMMIT, "commit"),
])
def test_stale_vote_answered_by_presumption(config, expected):
    """A YES vote for an unknown transaction gets an OUTCOME reply
    carrying the configured presumption, never an unconditional abort."""
    cluster = Cluster(config, nodes=["c", "s"])
    sends = []
    cluster.network.on_send.append(sends.append)
    cluster.nodes["c"].receive(msg("s", "c", MessageType.VOTE_YES,
                                   txn="ghost"))
    cluster.run_until(10.0)
    replies = [m for m in sends if m.msg_type is MessageType.OUTCOME
               and m.txn_id == "ghost"]
    assert replies and replies[0].dst == "s"
    assert replies[0].payload["outcome"] == expected


def test_stale_no_vote_needs_no_reply():
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
    sends = []
    cluster.network.on_send.append(sends.append)
    cluster.nodes["c"].receive(msg("s", "c", MessageType.VOTE_NO,
                                   txn="ghost"))
    cluster.run_until(10.0)
    assert [m for m in sends if m.txn_id == "ghost"] == []


def test_stale_vote_answered_from_log_over_presumption():
    """Under PA the presumption says abort, but a surviving COMMITTED
    record must win: the log is the durable truth."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
    cluster.nodes["c"].log.write("ghost", LogRecordType.COMMITTED,
                                 force=True)
    cluster.run_until(5.0)
    sends = []
    cluster.network.on_send.append(sends.append)
    cluster.nodes["c"].receive(msg("s", "c", MessageType.VOTE_YES,
                                   txn="ghost"))
    cluster.run_until(10.0)
    replies = [m for m in sends if m.msg_type is MessageType.OUTCOME
               and m.txn_id == "ghost"]
    assert replies and replies[0].payload["outcome"] == "commit"


# ----------------------------------------------------------------------
# Checker rule R7
# ----------------------------------------------------------------------
def test_r7_flags_duplicate_commit_send():
    checker = ProtocolChecker()
    checker._logged_committed.add(("n0", "t"))
    commit = msg("n0", "n1", MessageType.COMMIT, txn="t")
    checker._on_send(commit)
    assert checker.violations == []
    checker._on_send(commit)
    assert [v.rule for v in checker.violations] == ["R7"]
    # A COMMIT to a different destination is fine.
    checker._logged_committed.add(("n0", "t"))
    checker._on_send(msg("n0", "n2", MessageType.COMMIT, txn="t"))
    assert len(checker.violations) == 1


def test_r7_exempts_repeated_abort():
    checker = ProtocolChecker()
    abort = msg("n0", "n1", MessageType.ABORT, txn="t")
    checker._on_send(abort)
    checker._on_send(abort)
    assert checker.violations == []


# ----------------------------------------------------------------------
# FaultPlan validation
# ----------------------------------------------------------------------
def test_fault_plan_rejects_overlapping_crash_windows():
    plan = FaultPlan().crash("n0", at=5.0, restart_at=20.0) \
                      .crash("n0", at=10.0)
    with pytest.raises(ConfigurationError, match="overlapping"):
        plan.validate()
    # An open-ended first crash overlaps everything after it.
    plan = FaultPlan().crash("n1", at=5.0).crash("n1", at=50.0)
    with pytest.raises(ConfigurationError, match="overlapping"):
        plan.validate()


def test_fault_plan_accepts_sequential_windows():
    plan = FaultPlan().crash("n0", at=5.0, restart_at=10.0) \
                      .crash("n0", at=10.0, restart_at=15.0) \
                      .crash("n1", at=7.0)
    assert plan.validate() is plan


def test_fault_plan_rejects_negative_times():
    with pytest.raises(ConfigurationError, match="negative"):
        FaultPlan().crash("n0", at=-1.0).validate()
    with pytest.raises(ConfigurationError, match="negative"):
        FaultPlan().partition("a", "b", at=-2.0).validate()


def test_fault_plan_rejects_duplicate_sites():
    site = CrashSite("send", "n0", 3)
    plan = FaultPlan().crash_at_site(site).crash_at_site(site)
    with pytest.raises(ConfigurationError, match="duplicate"):
        plan.validate()
    # Same site, different side of the action: two distinct plans.
    plan = FaultPlan().crash_at_site(site, when="pre") \
                      .crash_at_site(site, when="post")
    assert plan.validate() is plan


def test_fault_injector_validates_on_apply():
    cluster = Cluster(PRESUMED_ABORT, nodes=["n0", "n1"])
    plan = FaultPlan().crash("n0", at=1.0).crash("n0", at=2.0)
    with pytest.raises(ConfigurationError):
        FaultInjector(cluster).apply(plan)


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
def test_small_campaign_clean_and_parallel_bit_identical():
    serial = run_chaos_campaign(configs=["PA"],
                                variants=["baseline", "read-only"],
                                seed=3, schedules=3, workers=1)
    parallel = run_chaos_campaign(configs=["PA"],
                                  variants=["baseline", "read-only"],
                                  seed=3, schedules=3, workers=2)
    assert serial.clean
    assert serial.total_runs == 6
    assert json.dumps(serial.to_dict(), sort_keys=True) == \
        json.dumps(parallel.to_dict(), sort_keys=True)
    assert "no failing schedules" in serial.describe()


def test_campaign_rejects_unknown_cells():
    with pytest.raises(ValueError):
        run_chaos_campaign(configs=["2PC-TURBO"], schedules=1)
    with pytest.raises(ValueError):
        run_chaos_campaign(variants=["missing-rm"], schedules=1)


def test_chaos_spec_variants():
    ro = chaos_spec("PA", "read-only")
    assert not ro.participants[3].ops[0].is_update
    la = chaos_spec("PA", "last-agent")
    assert la.participants[3].last_agent


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
def test_artifact_round_trip(tmp_path):
    schedule = [{"kind": "hold", "nth": 3, "extra": 32.261}]
    path = save_artifact(str(tmp_path), "chaos", "PA", "last-agent",
                         2095662085, {"schedule": schedule}, "violations",
                         ["[R7] ..."], spec=chaos_spec("PA", "last-agent"))
    loaded = load_artifact(path, "chaos")
    assert loaded["schedule"] == schedule
    assert loaded["config"] == "PA" and loaded["seed"] == 2095662085
    assert loaded["spec"]["participants"][3]["last_agent"]


def test_load_rejects_foreign_artifacts(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"kind": "torture-site-failure"}))
    with pytest.raises(ValueError, match="not a chaos artifact"):
        load_artifact(str(path), "chaos")
    path.write_text(json.dumps({"kind": "chaos-schedule-failure",
                                "version": 99}))
    with pytest.raises(ValueError, match="version"):
        load_artifact(str(path), "chaos")


# ----------------------------------------------------------------------
# Acceptance: a re-introduced duplicate-DECISION bug is caught, shrunk
# to a tiny replayable artifact, and the artifact reproduces it.
# ----------------------------------------------------------------------
def test_campaign_catches_and_shrinks_duplicate_decision_bug(
        monkeypatch, tmp_path):
    from repro.core.decision import DecisionMixin
    monkeypatch.setattr(DecisionMixin, "_duplicate_decision",
                        lambda self, context, outcome: False)
    report = run_chaos_campaign(configs=["PA"], variants=["baseline"],
                                seed=1, schedules=4, workers=1,
                                artifact_dir=str(tmp_path))
    assert not report.clean
    failures = report.failures()
    assert failures
    rules = " ".join(v for _, run in failures for v in run.violations)
    assert "[R7]" in rules and "[RI]" in rules
    # Shrinking: the minimal counterexample is at most 3 actions (this
    # one is a single duplicate).
    assert report.shrunk
    assert all(1 <= len(minimal) <= 3
               for minimal in report.shrunk.values())
    # The artifact replays to the same failure while the bug is in.
    artifacts = sorted(tmp_path.glob("chaos-*.json"))
    assert artifacts
    loaded = load_artifact(str(artifacts[0]), "chaos")
    assert len(loaded["schedule"]) <= 3
    replayed = replay_chaos_artifact(loaded)
    assert not replayed.ok
    assert any("R7" in v or "RI" in v for v in replayed.violations)


def test_pinned_bug_schedule_is_clean_with_guard_in_place():
    # The exact schedule the acceptance campaign shrinks to, against
    # the real (guarded) protocol: clean.
    run = run_chaos_schedule("PA", "baseline", 1111561147,
                             [{"kind": "duplicate", "nth": 13,
                               "copies": 2, "gap": 2.373}])
    assert run.ok, run.violations


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_chaos_smoke(capsys):
    from repro.cli import main
    assert main(["chaos", "--configs", "PA", "--variants", "baseline",
                 "--schedules", "2"]) == 0
    out = capsys.readouterr().out
    assert "chaos campaign" in out and "no failing schedules" in out


def test_cli_chaos_replay(tmp_path, capsys):
    from repro.cli import main
    path = save_artifact(
        str(tmp_path), "chaos", "PA", "last-agent", 2095662085,
        {"schedule": [{"kind": "hold", "nth": 3, "extra": 32.261}]},
        "violations", [])
    assert main(["chaos", "--replay", path]) == 0
    assert "ok" in capsys.readouterr().out
