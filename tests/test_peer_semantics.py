"""Peer-to-peer semantics: independent initiators, acknowledgment
timing (early vs late), and group commit system effects."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import (BASIC_2PC, PRESUMED_ABORT, PRESUMED_COMMIT,
                               PRESUMED_NOTHING)
from repro.core.spec import ParticipantSpec, TransactionSpec, flat_tree
from repro.core.states import TxnState
from repro.log.group_commit import GroupCommitPolicy
from repro.log.records import LogRecordType
from repro.lrm.operations import write_op
from repro.net.message import MessageType

from tests.conftest import updating_spec


class TestTwoInitiators:
    def test_second_initiator_aborts_the_transaction(self):
        """§3 (PN): 'it is an error for two participants to initiate
        commit processing independently for the same transaction ...
        if this occurs, the transaction aborts.'"""
        cluster = Cluster(PRESUMED_ABORT, nodes=["p", "q"])
        spec = TransactionSpec(txn_id="shared", participants=[
            ParticipantSpec(node="p", ops=[write_op("a", 1)]),
            ParticipantSpec(node="q", parent="p", ops=[write_op("b", 1)])])
        handle = cluster.start_transaction(spec)

        def q_initiates():
            q = cluster.node("q")
            context = q.ctx("shared")
            if context is not None:
                context.parent = None   # q believes it owns the commit
                q.initiate_commit(context)

        cluster.simulator.at(1.5, q_initiates)
        cluster.run_until(100.0)
        assert handle.aborted
        assert cluster.value("p", "a") is None
        assert cluster.value("q", "b") is None

    def test_vote_no_sent_to_conflicting_initiator(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["p", "q"])
        spec = TransactionSpec(txn_id="dup", participants=[
            ParticipantSpec(node="p", ops=[write_op("a", 1)]),
            ParticipantSpec(node="q", parent="p", ops=[write_op("b", 1)])])
        cluster.start_transaction(spec)
        no_votes = []
        cluster.network.on_send.append(
            lambda m: no_votes.append(m)
            if m.msg_type is MessageType.VOTE_NO else None)

        def q_initiates():
            context = cluster.node("q").ctx("dup")
            if context is not None:
                context.parent = None
                cluster.node("q").initiate_commit(context)

        cluster.simulator.at(1.5, q_initiates)
        cluster.run_until(100.0)
        assert any(v.src == "q" and v.dst == "p" for v in no_votes) or \
            any(v.src == "p" and v.dst == "q" for v in no_votes)


class TestRotatingRoots:
    """Once every node has been a root, each has a session with every
    other.  A subordinate must not sweep in a sibling the spec places
    under another parent: the two would prepare each other and each
    wait for the other's vote, and the transaction never finishes."""

    @pytest.mark.parametrize("config", [BASIC_2PC, PRESUMED_ABORT,
                                        PRESUMED_NOTHING, PRESUMED_COMMIT],
                             ids=["basic", "pa", "pn", "pc"])
    def test_failure_free_rotating_roots_all_commit(self, config):
        nodes = ["n0", "n1", "n2"]
        cluster = Cluster(config, nodes=nodes)
        outcomes = []
        for index in range(6):
            root = nodes[index % 3]
            spec = flat_tree(root, [n for n in nodes if n != root],
                             txn_id=f"t{index}")
            for participant in spec.participants:
                participant.ops.append(
                    write_op(f"{participant.node}-t{index}", index))
            outcomes.append(cluster.run_transaction(spec).outcome)
        assert outcomes == ["commit"] * 6
        assert all(not node.contexts for node in cluster.nodes.values())


class TestAckTiming:
    def chain_spec(self):
        spec = TransactionSpec(participants=[
            ParticipantSpec(node="root", ops=[write_op("r", 1)]),
            ParticipantSpec(node="mid", parent="root",
                            ops=[write_op("m", 1)]),
            ParticipantSpec(node="leaf", parent="mid",
                            ops=[write_op("l", 1)])])
        return spec

    def run_with(self, config):
        cluster = Cluster(config, nodes=["root", "mid", "leaf"])
        spec = self.chain_spec()
        order = []
        cluster.network.on_send.append(
            lambda m: order.append((m.msg_type, m.src, m.dst)))
        handle = cluster.run_transaction(spec)
        return cluster, handle, order

    def test_late_ack_waits_for_subtree(self):
        __, handle, order = self.run_with(PRESUMED_ABORT)
        mid_up = order.index((MessageType.ACK, "mid", "root"))
        leaf_up = order.index((MessageType.ACK, "leaf", "mid"))
        assert leaf_up < mid_up

    def test_early_ack_precedes_subtree(self):
        __, handle, order = self.run_with(
            PRESUMED_ABORT.with_options(early_ack=True))
        mid_up = order.index((MessageType.ACK, "mid", "root"))
        leaf_up = order.index((MessageType.ACK, "leaf", "mid"))
        assert mid_up < leaf_up

    def test_early_ack_completes_root_sooner(self):
        __, late_handle, __o = self.run_with(PRESUMED_ABORT)
        __, early_handle, __o2 = self.run_with(
            PRESUMED_ABORT.with_options(early_ack=True))
        assert early_handle.latency < late_handle.latency

    def test_flow_counts_identical_either_way(self):
        late_cluster, late_handle, __ = self.run_with(PRESUMED_ABORT)
        early_cluster, early_handle, __2 = self.run_with(
            PRESUMED_ABORT.with_options(early_ack=True))
        assert late_cluster.metrics.commit_flows() == \
            early_cluster.metrics.commit_flows()


PRESUMPTIONS = pytest.mark.parametrize(
    "config", [BASIC_2PC, PRESUMED_ABORT, PRESUMED_NOTHING, PRESUMED_COMMIT],
    ids=["basic", "pa", "pn", "pc"])


class TestAbortOvertakesVote:
    """An ABORT that reaches a participant while its prepared force (or
    its children's votes) is still pending.  An aborted participant
    never becomes prepared, and a parent waiting for its vote hears NO
    instead of waiting for good."""

    def run_traced(self, config, participants):
        cluster = Cluster(config, nodes=[p.node for p in participants])
        sends, transitions = [], []
        cluster.network.on_send.append(
            lambda m: sends.append((m.msg_type, m.src, m.dst)))
        for node in cluster.nodes.values():
            node.on_transition.append(
                lambda name, txn, old, new: transitions.append(
                    (name, old, new)))
        handle = cluster.run_transaction(
            TransactionSpec(txn_id="t", participants=participants))
        cluster.run_until(1000.0)
        return cluster, handle, sends, transitions

    @PRESUMPTIONS
    def test_abort_overtaking_a_pending_prepare(self, config):
        # n1 vetoes: its PREPARE and ABORT reach n2 in the same instant,
        # so the ABORT lands while n2's prepared force is in flight.
        cluster, handle, sends, transitions = self.run_traced(config, [
            ParticipantSpec(node="n0", ops=[write_op("a", 1)]),
            ParticipantSpec(node="n1", parent="n0", ops=[write_op("b", 1)],
                            veto=True),
            ParticipantSpec(node="n2", parent="n1", ops=[write_op("c", 1)]),
        ])
        assert handle.aborted
        assert (MessageType.VOTE_YES, "n2", "n1") not in sends
        done = (TxnState.ABORTING, TxnState.ABORTED, TxnState.FORGOTTEN)
        assert not [t for t in transitions
                    if t[1] in done and t[2] is TxnState.PREPARED]
        for name, node in cluster.nodes.items():
            aborted = [r for r in node.log.stable.records_for("t")
                       if r.record_type is LogRecordType.ABORTED]
            assert len(aborted) <= 1, name
            assert not node.contexts, name

    @PRESUMPTIONS
    def test_abort_overtaking_a_cascaded_coordinators_votes(self, config):
        # n1's NO aborts n0 while n2 still waits for n3's vote; n2 must
        # answer NO, or n0 keeps its forgotten context waiting for it.
        cluster, handle, sends, __ = self.run_traced(config, [
            ParticipantSpec(node="n0", ops=[write_op("a", 1)]),
            ParticipantSpec(node="n1", parent="n0", ops=[write_op("b", 1)],
                            veto=True),
            ParticipantSpec(node="n2", parent="n0", ops=[write_op("c", 1)]),
            ParticipantSpec(node="n3", parent="n2", ops=[write_op("d", 1)]),
        ])
        assert handle.aborted
        assert (MessageType.VOTE_NO, "n2", "n0") in sends
        assert all(not node.contexts for node in cluster.nodes.values())


class TestGroupCommitIntegration:
    def run_concurrent(self, group_size, n_txns=8, stagger=0.0):
        config = PRESUMED_ABORT.with_options(
            group_commit=GroupCommitPolicy(group_size=group_size,
                                           timeout=5.0))
        cluster = Cluster(config, nodes=["c", "s"])
        handles = []

        def start(i):
            spec = TransactionSpec(participants=[
                ParticipantSpec(node="c", ops=[write_op(f"c{i}", i)]),
                ParticipantSpec(node="s", parent="c",
                                ops=[write_op(f"s{i}", i)])])
            handles.append(cluster.start_transaction(spec))

        for i in range(n_txns):
            cluster.simulator.at(i * stagger, lambda i=i: start(i))
        cluster.run()
        assert all(h.committed for h in handles)
        return cluster

    def test_fewer_physical_ios_with_batching(self):
        immediate = self.run_concurrent(group_size=1)
        batched = self.run_concurrent(group_size=4)
        assert batched.metrics.physical_ios() < \
            immediate.metrics.physical_ios()

    def test_longer_lock_holds_with_batching(self):
        """Table 1's disadvantage: individual transactions hold locks
        longer while their forces wait for the group to fill.  The
        effect needs staggered arrivals (lockstep groups fill at once)."""
        immediate = self.run_concurrent(group_size=1, stagger=1.5)
        batched = self.run_concurrent(group_size=4, stagger=1.5)
        assert batched.metrics.mean_lock_hold() > \
            immediate.metrics.mean_lock_hold()

    def test_correctness_unaffected_by_batching(self):
        cluster = self.run_concurrent(group_size=4)
        for i in range(8):
            assert cluster.value("s", f"s{i}") == i
