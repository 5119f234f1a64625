"""The last-agent optimization (§4)."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT, PRESUMED_NOTHING
from repro.core.spec import ParticipantSpec, TransactionSpec, flat_tree
from repro.core.states import TxnState
from repro.lrm.operations import read_op, write_op
from repro.net.latency import SatelliteLink
from repro.net.message import MessageType

from tests.conftest import updating_spec


def last_agent_cluster(config=None, **kwargs):
    config = (config or PRESUMED_ABORT).with_options(last_agent=True)
    return Cluster(config, nodes=["coord", "agent"], **kwargs)


def last_agent_spec():
    spec = updating_spec("coord", ["agent"])
    spec.participant("agent").last_agent = True
    return spec


def test_two_flows_instead_of_four():
    cluster = last_agent_cluster()
    spec = last_agent_spec()
    handle = cluster.run_transaction(spec)
    cluster.finalize_implied_acks()
    assert handle.committed
    assert cluster.metrics.commit_flows(txn=spec.txn_id) == 2


def test_decision_made_by_the_agent():
    cluster = last_agent_cluster()
    spec = last_agent_spec()
    cluster.run_transaction(spec)
    # The agent logs COMMITTED before the coordinator does.
    agent_commit = next(
        r for r in cluster.node("agent").log.all_records()
        if r.record_type.value == "committed")
    coord_commit = next(
        r for r in cluster.node("coord").log.all_records()
        if r.record_type.value == "committed")
    assert agent_commit.written_at < coord_commit.written_at


def test_initiator_forces_prepared_before_delegating():
    """§4: 'the last-agent optimization requires that the initiator
    force-write a prepared record before it sends its YES vote' — the
    possible extra forced write Table 1 lists."""
    cluster = last_agent_cluster()
    spec = last_agent_spec()
    cluster.run_transaction(spec)
    coord_records = cluster.node("coord").log.all_records()
    prepared = [r for r in coord_records
                if r.record_type.value == "prepared"]
    assert len(prepared) == 1 and prepared[0].forced


def test_read_only_initiator_skips_prepared_force():
    """§4: 'the initiator can vote read only to the last agent without
    having to force-write a prepared log record.'"""
    cluster = last_agent_cluster()
    spec = flat_tree("coord", ["agent"])
    spec.participant("coord").ops.append(read_op("x"))
    spec.participant("agent").ops.append(write_op("k", 1))
    spec.participant("agent").last_agent = True
    handle = cluster.run_transaction(spec)
    assert handle.committed
    assert cluster.metrics.total_log_writes(node="coord",
                                            txn=spec.txn_id) == 0
    votes = cluster.metrics.flows.total(
        msg_type=MessageType.VOTE_READ_ONLY.value, txn=spec.txn_id)
    assert votes == 1


def test_agent_veto_aborts_the_delegator():
    cluster = last_agent_cluster()
    spec = last_agent_spec()
    spec.participant("agent").veto = True
    handle = cluster.run_transaction(spec)
    assert handle.aborted
    assert cluster.value("coord", "key-coord") is None


def test_implied_ack_lets_agent_forget():
    cluster = last_agent_cluster()
    spec = last_agent_spec()
    cluster.run_transaction(spec)
    agent_ctx = cluster.node("agent").ctx(spec.txn_id)
    assert agent_ctx.awaiting_implied_ack
    assert agent_ctx.state is TxnState.COMMITTED
    # The coordinator's next data message is the implied ack.
    cluster.send_application_data("coord", "agent")
    assert agent_ctx.state is TxnState.FORGOTTEN
    ends = [r for r in cluster.node("agent").log.all_records()
            if r.record_type.value == "end"]
    assert len(ends) == 1


def test_no_explicit_ack_flows():
    cluster = last_agent_cluster()
    spec = last_agent_spec()
    cluster.run_transaction(spec)
    cluster.finalize_implied_acks()
    acks = cluster.metrics.flows.total(msg_type=MessageType.ACK.value,
                                       txn=spec.txn_id)
    assert acks == 0


def test_other_children_prepared_before_delegation():
    """§4: all other subordinates must vote YES before the coordinator
    sends its vote to the last agent."""
    cluster = Cluster(PRESUMED_ABORT.with_options(last_agent=True),
                      nodes=["coord", "near", "agent"])
    spec = updating_spec("coord", ["near", "agent"])
    spec.participant("agent").last_agent = True
    order = []
    cluster.network.on_send.append(
        lambda m: order.append((m.msg_type, m.dst)))
    handle = cluster.run_transaction(spec)
    cluster.finalize_implied_acks()
    assert handle.committed
    near_vote = order.index((MessageType.VOTE_YES, "coord"))
    delegation = order.index((MessageType.VOTE_YES, "agent"))
    assert near_vote < delegation


def test_satellite_link_benefit():
    """§4: with a faraway partner, last agent reduces the slow link to
    a single round trip and beats parallel prepare."""
    latency = SatelliteLink("agent", slow_delay=50.0, fast_delay=1.0)

    plain = Cluster(PRESUMED_ABORT, nodes=["coord", "near", "agent"],
                    latency=latency)
    spec1 = updating_spec("coord", ["near", "agent"])
    h1 = plain.run_transaction(spec1)

    optimized = Cluster(PRESUMED_ABORT.with_options(last_agent=True),
                        nodes=["coord", "near", "agent"], latency=latency)
    spec2 = updating_spec("coord", ["near", "agent"])
    spec2.participant("agent").last_agent = True
    h2 = optimized.run_transaction(spec2)
    optimized.finalize_implied_acks()

    assert h2.latency < h1.latency


def test_chained_delegation():
    """§4: 'each last agent may choose one of its subordinates to be a
    last agent' — a delegation chain."""
    cluster = Cluster(PRESUMED_ABORT.with_options(last_agent=True),
                      nodes=["root", "l1", "l2"])
    spec = TransactionSpec(participants=[
        ParticipantSpec(node="root", ops=[write_op("r", 1)]),
        ParticipantSpec(node="l1", parent="root", ops=[write_op("a", 1)],
                        last_agent=True),
        ParticipantSpec(node="l2", parent="l1", ops=[write_op("b", 1)],
                        last_agent=True)])
    handle = cluster.run_transaction(spec)
    cluster.finalize_implied_acks()
    assert handle.committed
    # 2 flows per delegation edge.
    assert cluster.metrics.commit_flows(txn=spec.txn_id) == 4
    # The final agent decided first.
    commits = {}
    for name in ("root", "l1", "l2"):
        for record in cluster.node(name).log.all_records():
            if record.record_type.value == "committed":
                commits[name] = record.written_at
    assert commits["l2"] < commits["l1"] < commits["root"]


def test_leave_out_offer_rides_the_decision():
    """A last agent cannot offer OK-to-leave-out on a YES vote (it
    never sends one); the offer rides its COMMIT decision instead."""
    config = PRESUMED_ABORT.with_options(last_agent=True, leave_out=True)
    cluster = Cluster(config, nodes=["coord", "agent"])
    first = updating_spec("coord", ["agent"])
    first.participant("agent").last_agent = True
    first.participant("agent").ok_to_leave_out = True
    cluster.run_transaction(first)
    cluster.finalize_implied_acks()
    # Next transaction does no agent work: the agent is left out.
    second = flat_tree("coord", [])
    second.participant("coord").ops.append(write_op("solo", 1))
    handle = cluster.run_transaction(second)
    assert handle.committed
    assert cluster.metrics.commit_flows(src="agent",
                                        txn=second.txn_id) == 0
    assert cluster.metrics.commit_flows(txn=second.txn_id) == 0


def test_last_agent_with_reliable_vote_combo():
    """Last agent and vote-reliable compose: two flows, no acks, and
    the delegator's implied ack still closes the agent's context."""
    config = PRESUMED_ABORT.with_options(last_agent=True,
                                         vote_reliable=True)
    cluster = Cluster(config, nodes=["coord", "agent"],
                      reliable_nodes=["coord", "agent"])
    spec = last_agent_spec()
    handle = cluster.run_transaction(spec)
    cluster.finalize_implied_acks()
    assert handle.committed
    assert cluster.metrics.commit_flows(txn=spec.txn_id) == 2
    assert cluster.metrics.flows.total(msg_type=MessageType.ACK.value,
                                       txn=spec.txn_id) == 0


def test_pn_last_agent_keeps_commit_pending():
    """§4: last agent is most useful with PN since the coordinator
    logs before contacting any subordinate anyway."""
    cluster = last_agent_cluster(PRESUMED_NOTHING)
    spec = last_agent_spec()
    handle = cluster.run_transaction(spec)
    cluster.finalize_implied_acks()
    assert handle.committed
    types = cluster.metrics.log_writes.group_by(
        "record_type", node="coord", txn=spec.txn_id)
    assert types.get("commit-pending") == 1
    assert types.get("prepared") == 1


@pytest.mark.parametrize("config", [PRESUMED_ABORT, PRESUMED_NOTHING],
                         ids=["pa", "pn"])
def test_read_only_last_agent_under_updating_delegator_commits(config):
    """The delegator voted YES and waits, prepared, for the decision; a
    last agent whose own subtree is all read-only still owes it one.
    It forces COMMITTED and sends COMMIT rather than finishing as a
    read-only commit that tells nobody."""
    cluster = last_agent_cluster(config)
    spec = TransactionSpec(txn_id="t", participants=[
        ParticipantSpec(node="coord", ops=[write_op("x", 1)]),
        ParticipantSpec(node="agent", parent="coord", ops=[read_op("y")],
                        last_agent=True)])
    handle = cluster.run_transaction(spec)
    assert handle.outcome == "commit"
    assert cluster.durable_outcome("agent", "t") == "commit"
    assert cluster.value("coord", "x") == 1
    cluster.finalize_implied_acks()
    assert all(not node.contexts for node in cluster.nodes.values())
