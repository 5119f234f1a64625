"""Crash-recovery integration tests across presumptions.

Timeline for the default latency (1.0) / io (0.1) two-node commit:
enroll@0->1, work-done@1->2, prepare@2->3, prepared-force 3.1,
vote@3.1->4.1, committed-force 4.2, commit@4.2->5.2, ack@5.3->6.3.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import (
    BASIC_2PC,
    PRESUMED_ABORT,
    PRESUMED_COMMIT,
    PRESUMED_NOTHING,
)
from repro.errors import ProtocolError

from tests.conftest import updating_spec


def two_nodes(config, **options):
    defaults = dict(ack_timeout=20.0, retry_interval=20.0)
    defaults.update(options)
    return Cluster(config.with_options(**defaults), nodes=["c", "s"])


class TestSubordinateCrash:
    def test_crash_before_prepare_aborts(self):
        """The subordinate dies before voting: the coordinator's vote
        timeout aborts the transaction."""
        cluster = two_nodes(PRESUMED_ABORT, vote_timeout=10.0)
        spec = updating_spec("c", ["s"])
        cluster.crash_at("s", 2.5)
        handle = cluster.start_transaction(spec)
        cluster.run_until(100.0)
        assert handle.aborted
        assert cluster.value("c", "key-c") is None

    @pytest.mark.parametrize("config", [
        pytest.param(PRESUMED_ABORT, id="pa"),
        pytest.param(BASIC_2PC, id="basic"),
        pytest.param(PRESUMED_COMMIT, id="pc"),
    ])
    def test_in_doubt_crash_recovers_commit_by_inquiry(self, config):
        """Voted YES, crashed, restarted: the subordinate redoes its
        updates, re-locks, inquires, and commits."""
        cluster = two_nodes(config)
        spec = updating_spec("c", ["s"])
        cluster.crash_at("s", 4.5)       # prepared durable, commit lost
        cluster.restart_at("s", 50.0)
        handle = cluster.start_transaction(spec)
        cluster.run_until(300.0)
        assert handle.committed
        assert cluster.value("s", "key-s") == 1
        assert cluster.node("s").ctx(spec.txn_id) is None   # forgotten

    def test_in_doubt_crash_pn_coordinator_drives(self):
        """PN: the restarted subordinate waits; the coordinator's
        retries deliver the outcome."""
        cluster = two_nodes(PRESUMED_NOTHING)
        spec = updating_spec("c", ["s"])
        cluster.crash_at("s", 5.0)       # PN sub forces more: crash later
        cluster.restart_at("s", 50.0)
        handle = cluster.start_transaction(spec)
        cluster.run_until(300.0)
        assert handle.committed
        assert cluster.value("s", "key-s") == 1
        # Recovery was coordinator-driven: the sub sent no INQUIRE.
        inquiries = cluster.metrics.flows.total(msg_type="inquire")
        assert inquiries == 0

    def test_in_doubt_holds_locks_until_resolved(self):
        cluster = two_nodes(PRESUMED_ABORT)
        spec = updating_spec("c", ["s"])
        cluster.crash_at("s", 4.5)
        cluster.restart_at("s", 50.0)
        cluster.start_transaction(spec)
        cluster.run_until(50.5)
        # Just restarted: still in doubt, lock re-acquired.
        assert cluster.node("s").default_rm.locks.holds(
            spec.txn_id, "key-s")
        cluster.run_until(300.0)
        cluster.node("s").default_rm.locks.assert_released(spec.txn_id)

    def test_crash_before_vote_forced_loses_prepared(self):
        """Crash while the prepared force is in flight: no stable
        prepared record, so the restarted node knows nothing and the
        presumption (abort) applies."""
        cluster = two_nodes(PRESUMED_ABORT, vote_timeout=15.0)
        spec = updating_spec("c", ["s"])
        cluster.crash_at("s", 3.05)      # force in flight
        cluster.restart_at("s", 40.0)
        handle = cluster.start_transaction(spec)
        cluster.run_until(300.0)
        assert handle.aborted
        assert cluster.value("s", "key-s") is None
        assert cluster.durable_outcome("s", spec.txn_id) is None


class TestCoordinatorCrash:
    def test_crash_after_decision_drives_commit_on_restart(self):
        cluster = two_nodes(PRESUMED_ABORT)
        spec = updating_spec("c", ["s"])
        cluster.crash_at("c", 4.5)       # committed durable, commit unsent
        cluster.restart_at("c", 50.0)
        cluster.start_transaction(spec)
        cluster.run_until(300.0)
        assert cluster.value("s", "key-s") == 1
        assert cluster.value("c", "key-c") == 1
        assert cluster.durable_outcome("c", spec.txn_id) == "commit"

    def test_crash_before_decision_presumes_abort(self):
        """PA coordinator crashes before deciding: nothing on its log;
        the in-doubt subordinate's inquiry gets the presumed abort."""
        cluster = two_nodes(PRESUMED_ABORT, retry_interval=10.0,
                            inquiry_timeout=15.0)
        spec = updating_spec("c", ["s"])
        cluster.crash_at("c", 3.5)       # sub has voted; no decision
        cluster.restart_at("c", 30.0)
        cluster.start_transaction(spec)
        cluster.run_until(300.0)
        assert cluster.value("s", "key-s") is None
        assert cluster.node("s").ctx(spec.txn_id) is None   # forgotten

    def test_pn_crash_after_commit_pending_aborts_everywhere(self):
        """PN: commit-pending with no decision means the restarted
        coordinator decides abort and drives it to the remembered
        children."""
        cluster = two_nodes(PRESUMED_NOTHING, retry_interval=10.0)
        spec = updating_spec("c", ["s"])
        cluster.crash_at("c", 2.5)       # commit-pending durable
        cluster.restart_at("c", 30.0)
        cluster.start_transaction(spec)
        cluster.run_until(300.0)
        assert cluster.durable_outcome("c", spec.txn_id) == "abort"
        assert cluster.value("s", "key-s") is None

    def test_pc_crash_after_collecting_aborts_with_acks(self):
        """PC must chase aborts reliably — subordinates would otherwise
        presume commit."""
        cluster = two_nodes(PRESUMED_COMMIT, retry_interval=10.0)
        spec = updating_spec("c", ["s"])
        cluster.crash_at("c", 2.5)       # collecting durable
        cluster.restart_at("c", 30.0)
        cluster.start_transaction(spec)
        cluster.run_until(300.0)
        assert cluster.durable_outcome("c", spec.txn_id) == "abort"
        assert cluster.value("s", "key-s") is None


class TestDataRecovery:
    def test_committed_data_redone_after_crash(self):
        """The volatile store is rebuilt from the log on restart."""
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        spec = updating_spec("c", ["s"])
        handle = cluster.run_transaction(spec)
        assert handle.committed
        cluster.crash("s")
        assert cluster.value("s", "key-s") is None
        cluster.restart("s")
        cluster.run()
        assert cluster.value("s", "key-s") == 1

    def test_loser_updates_not_redone(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        spec = updating_spec("c", ["s"])
        spec.participant("c").veto = True
        cluster.run_transaction(spec)
        cluster.crash("s")
        cluster.restart("s")
        cluster.run()
        assert cluster.value("s", "key-s") is None

    def test_multiple_transactions_recovered_in_order(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        for value in (1, 2, 3):
            spec = updating_spec("c", ["s"])
            spec.participant("s").ops[0] = __import__(
                "repro.lrm.operations", fromlist=["write_op"]
            ).write_op("shared", value)
            cluster.run_transaction(spec)
        cluster.crash("s")
        cluster.restart("s")
        cluster.run()
        assert cluster.value("s", "shared") == 3


class TestRestartValidation:
    def test_restart_of_live_node_rejected(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c"])
        with pytest.raises(ProtocolError):
            cluster.restart("c")

    def test_crashed_node_ignores_traffic(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        spec = updating_spec("c", ["s"])
        cluster.crash("s")
        handle = cluster.start_transaction(spec)
        cluster.run_until(10.0)
        assert not handle.done  # blocked on the dead subordinate

    def test_end_absence_causes_redundant_but_harmless_recovery(self):
        """§2: losing the (non-forced) END only costs redundant
        recovery work."""
        cluster = two_nodes(PRESUMED_ABORT, retry_interval=10.0)
        spec = updating_spec("c", ["s"])
        handle = cluster.run_transaction(spec)
        assert handle.committed
        # Crash after commit: END was non-forced and is lost; COMMITTED
        # was forced and survives.
        cluster.crash("c")
        cluster.restart("c")
        cluster.run_until(cluster.simulator.now + 100.0)
        # Redundant recovery flows happened, and the outcome stands.
        assert cluster.durable_outcome("c", spec.txn_id) == "commit"
        assert cluster.metrics.recovery_flows() > 0
        assert cluster.value("c", "key-c") == 1


class TestCascadedCoordinatorCrash:
    """A cascaded coordinator that crashes after forcing its initiation
    record must resolve by inquiring its parent, never by unilateral
    abort — it may already have voted upward (a read-only vote leaves
    no log record), in which case the decision belongs to the parent.

    Regression: hypothesis found a PN chain n0 -> n1 -> n2 where n1
    (read-only subtree) forced commit-pending, voted read-only, crashed,
    then aborted unilaterally at restart while n0 committed — a durable
    R6 atomicity violation.
    """

    def _chain(self, config):
        from repro.core.spec import ParticipantSpec, TransactionSpec
        from repro.lrm.operations import read_op, write_op
        from repro.verify import ProtocolChecker

        participants = [
            ParticipantSpec(node="n0"),
            ParticipantSpec(node="n1", parent="n0"),
            ParticipantSpec(node="n2", parent="n1"),
        ]
        participants[0].ops.append(write_op("k-n0", 1))
        participants[1].ops.append(read_op("shared"))
        participants[2].ops.append(read_op("shared"))
        spec = TransactionSpec(participants=participants)
        cluster = Cluster(
            config.with_options(ack_timeout=15.0, retry_interval=15.0,
                                vote_timeout=20.0, inquiry_timeout=20.0),
            nodes=["n0", "n1", "n2"])
        checker = ProtocolChecker().attach(cluster)
        return cluster, checker, spec

    @pytest.mark.parametrize("config", [PRESUMED_NOTHING, PRESUMED_COMMIT],
                             ids=["pn", "pc"])
    def test_read_only_cascade_crash_agrees_with_parent(self, config):
        cluster, checker, spec = self._chain(config)
        # n1 forces its initiation record at ~5.1, votes read-only at
        # ~7.2; crash at 8.0 wipes the (unlogged) vote.
        cluster.crash_at("n1", 8.0)
        cluster.restart_at("n1", 13.0)
        cluster.start_transaction(spec)
        cluster.run_until(600.0)
        checker.check_atomicity(spec.txn_id)
        checker.assert_clean()
        assert cluster.durable_outcome("n0", spec.txn_id) == "commit"
        # n1 learned the outcome from its parent instead of presuming
        # abort.  PN forces the subordinate commit record; under PC the
        # record is deliberately unforced — absence means commit there.
        durable = cluster.durable_outcome("n1", spec.txn_id)
        if config is PRESUMED_NOTHING:
            assert durable == "commit"
        else:
            assert durable in ("commit", None)
        assert durable != "abort"

    def test_crash_before_vote_still_aborts_with_parent(self):
        cluster, checker, spec = self._chain(PRESUMED_NOTHING)
        # Crash at 6.0: after the initiation force (~5.1) but before
        # n1's own vote (~7.2).  The parent times out and aborts; the
        # inquiry resolves n1 the same way.
        cluster.crash_at("n1", 6.0)
        cluster.restart_at("n1", 11.0)
        cluster.start_transaction(spec)
        cluster.run_until(600.0)
        checker.check_atomicity(spec.txn_id)
        checker.assert_clean()

    @pytest.mark.parametrize("config", [PRESUMED_NOTHING, PRESUMED_COMMIT],
                             ids=["pn", "pc"])
    def test_updating_cascade_restarts_holding_its_locks(self, config):
        """Restarting in doubt, an undecided cascaded coordinator holds
        its updates' locks like any in-doubt participant (rule RL)."""
        from repro.lrm.operations import write_op
        cluster, checker, spec = self._chain(config)
        spec.participants[1].ops = [write_op("k-n1", 1)]
        # After n1's initiation force, before its own vote.
        cluster.crash_at("n1", 6.0)

        def restart():
            cluster.restart("n1")
            assert cluster.node("n1").ctx(spec.txn_id).rebuilt_from_log
            checker.check_recovery_locks("n1")

        cluster.simulator.at(11.0, restart)
        cluster.start_transaction(spec)
        cluster.run_until(600.0)
        checker.check_atomicity(spec.txn_id)
        checker.assert_clean()

    def test_read_only_participant_acks_recovery_outcome(self):
        """A dropped-out read-only participant must answer a recovery
        OUTCOME so the sender's retry loop terminates (and that ack is
        exempt from checker rule R5 — nothing to make durable)."""
        cluster, checker, spec = self._chain(PRESUMED_NOTHING)
        cluster.crash_at("n1", 8.0)
        cluster.restart_at("n1", 13.0)
        cluster.start_transaction(spec)
        cluster.run_until(600.0)
        checker.assert_clean()
        context = cluster.node("n1").ctx(spec.txn_id)
        assert context is None or not context.acks_pending
        # The exchange settled in a handful of messages; an unacked
        # outcome would have retried every 15s out to the 600s horizon.
        assert cluster.metrics.recovery_flows() < 10
