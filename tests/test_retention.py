"""Forget means forget.

A transaction a node has forgotten is *absent*: its context, its
resource-manager entries, its lock-table keys and every closure made
for it are freed by reference count at the forget point, and nothing on
the hot path walks history.  :mod:`repro.verify.retention` measures
that; these tests hold every protocol x optimization cell to it, hold
the two perfbench-shaped workloads to their memory budgets and to flat
time, and pin how messages about a forgotten transaction are answered.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT, PRESUMED_COMMIT
from repro.core.node import TMNode
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.core.states import TxnState
from repro.log.records import LogRecordType
from repro.lrm.operations import read_op, write_op
from repro.net.message import MessageType
from repro.obs import JournalRecorder
from repro.verify import retention

from tests.conftest import updating_spec


# ----------------------------------------------------------------------
# (i) no cyclic garbage, (ii) nothing left at rest
# ----------------------------------------------------------------------
@pytest.mark.parametrize("concurrent", [False, True],
                         ids=["sequential", "concurrent"])
@pytest.mark.parametrize("variant", retention.VARIANTS)
@pytest.mark.parametrize("protocol", retention.PROTOCOLS)
def test_cell_leaves_nothing_behind(protocol, variant, concurrent):
    """300 transactions (one after another, or ~10 in flight on 8 hot
    keys) under ``gc.disable()``: zero unreachable objects afterwards
    and every per-transaction structure empty on every node."""
    report = retention.run_cell(protocol, variant, txns=300,
                                concurrent=concurrent)
    assert report.problems() == []
    assert report.unreachable == 0
    assert set(report.leftovers.values()) == {0}


def test_leftovers_sees_what_is_in_flight():
    """The at-rest check is not vacuous: mid-transaction the same
    structures are populated."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
    cluster.start_transaction(updating_spec("c", ["s"]))
    cluster.run_until(3.5)          # s is prepared, c is collecting votes
    busy = retention.leftovers(cluster)
    assert busy["contexts"] == 2 and busy["rm_txns"] == 2
    assert busy["lock_table"] == 2 and busy["kv_undo"] == 2
    cluster.run()
    assert set(retention.leftovers(cluster).values()) == {0}


# ----------------------------------------------------------------------
# (iii) flat memory within budget, (iv) flat time — at 4000 transactions
# ----------------------------------------------------------------------
def test_steady_workload_is_flat_and_within_budget():
    report = retention.run_steady()
    # (i)-(iv): no garbage, nothing at rest, quarter 4 within 5% of
    # quarter 2 in bytes/txn, and the last hundred transactions within
    # 1.15x of the first hundred in lines executed.
    assert report.problems(retention.STEADY_BUDGET) == []
    assert 0 < report.bytes_per_txn() <= retention.STEADY_BUDGET
    assert 0 < report.time_ratio() <= 1.15


def test_contended_workload_is_flat_and_within_budget():
    report = retention.run_contended()
    assert report.problems(retention.CONTENDED_BUDGET) == []
    assert 0 < report.bytes_per_txn() <= retention.CONTENDED_BUDGET
    assert 0 < report.time_ratio() <= 1.15


@pytest.mark.live
def test_serve_is_flat_within_budget_and_drains_without_a_spike():
    """``serve`` as shipped, 5000 transactions over TCP: at rest it
    keeps at most 3 KB per finished transaction (the journal's rows
    are spilled, the recorder's maps trimmed), the last quarter adds
    at most 1.1x what the first did, and writing the journal at drain
    adds at most ``DRAIN_SLACK`` to the run's peak."""
    report = retention.run_serve(txns=5000)
    assert retention.serve_problems(report) == []
    assert 0 < report.bytes_per_txn() <= retention.SERVE_BUDGET


# ----------------------------------------------------------------------
# The implied-ack waiter index forgets exactly when a scan would
# ----------------------------------------------------------------------
def scan_for_implied_acks(self, partner):
    """The reference: walk every context on every delivery."""
    for context in list(self.contexts.values()):
        if context.awaiting_implied_ack and \
                context.delegated_from == partner and \
                context.state in (TxnState.COMMITTED, TxnState.ABORTED):
            context.awaiting_implied_ack = False
            if context.logged_anything:
                self.log_tm(context, LogRecordType.END,
                            payload={"outcome": context.outcome,
                                     "implied_ack": True})
            self.forget(context)
            self.note(context.txn_id,
                      f"implied ack from {partner}; forgets")


def _last_agent_run(protocol, concurrent):
    from repro.net.latency import UniformLatency
    from repro.obs.audit import cell_config
    names = ["n0", "n1", "n2"]
    cluster = Cluster(cell_config(protocol, "last_agent"), nodes=names,
                      seed=7, latency=UniformLatency(0.5, 1.5))
    recorder = JournalRecorder().attach(cluster)
    specs = retention.star_specs("last_agent", names, 120,
                                 hot_keys=8 if concurrent else 0, seed=7)
    retention.run_workload(cluster, specs,
                           mean_gap=1.0 if concurrent else None, seed=7)
    ends = {name: [(r.lsn, r.txn_id, r.payload)
                   for r in node.log.all_records()
                   if r.record_type is LogRecordType.END]
            for name, node in cluster.nodes.items()}
    return recorder.to_jsonl(), ends


@pytest.mark.parametrize("concurrent", [False, True],
                         ids=["sequential", "concurrent"])
@pytest.mark.parametrize("protocol", ["pa", "pn"])
def test_waiter_index_matches_context_scan(protocol, concurrent,
                                           monkeypatch):
    indexed_journal, indexed_ends = _last_agent_run(protocol, concurrent)
    monkeypatch.setattr(TMNode, "handle_implied_ack", scan_for_implied_acks)
    scanned_journal, scanned_ends = _last_agent_run(protocol, concurrent)
    assert any(payload.get("implied_ack")
               for _lsn, _txn, payload in indexed_ends["n2"])
    assert indexed_ends == scanned_ends
    assert indexed_journal == scanned_journal


# ----------------------------------------------------------------------
# Messages about a forgotten transaction
# ----------------------------------------------------------------------
def _ran_and_forgotten(config=PRESUMED_ABORT, **spec_options):
    """One committed two-node transaction, every message it sent, and
    taps on what happens afterwards."""
    cluster = Cluster(config, nodes=["c", "s"])
    sent = []
    cluster.network.on_send.append(sent.append)
    spec = updating_spec("c", ["s"], **spec_options)
    assert cluster.run_transaction(spec).committed
    assert set(retention.leftovers(cluster).values()) == {0}
    during = list(sent)
    del sent[:]
    return cluster, spec, during, sent


def _first(messages, msg_type, **flags):
    return next(m for m in messages if m.msg_type is msg_type
                and all(m.flag(name) == value
                        for name, value in flags.items()))


def _log_sizes(cluster):
    return {name: len(node.log.all_records())
            for name, node in cluster.nodes.items()}


def test_duplicate_enrollment_after_forgetting_is_a_no_op():
    cluster, spec, during, after = _ran_and_forgotten()
    before = _log_sizes(cluster)
    cluster.nodes["s"].receive(_first(during, MessageType.DATA, enroll=True))
    cluster.run()
    # No second run of the work: no context, no lock, no record, no flow.
    assert set(retention.leftovers(cluster).values()) == {0}
    assert _log_sizes(cluster) == before
    assert after == []
    assert cluster.value("s", "key-s") == 1


def test_duplicate_prepare_and_decision_after_forgetting_are_dropped():
    cluster, spec, during, after = _ran_and_forgotten()
    before = _log_sizes(cluster)
    for msg_type in (MessageType.PREPARE, MessageType.COMMIT):
        cluster.nodes["s"].receive(_first(during, msg_type))
        cluster.run()
    assert set(retention.leftovers(cluster).values()) == {0}
    assert _log_sizes(cluster) == before
    assert after == []


def _quiet_voter(kind):
    """A finished transaction at whose node ``v`` nothing was logged —
    a read-only voter, a Presumed Abort participant that refused, or an
    inactive session partner swept in by a bare prepare — with every
    message sent and taps on what happens afterwards."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "v"])
    sent = []
    cluster.network.on_send.append(sent.append)
    if kind == "inactive":
        assert cluster.run_transaction(updating_spec("c", ["v"])).committed
        del sent[:]
        spec = updating_spec("c", [])
    else:
        spec = TransactionSpec(participants=[
            ParticipantSpec(node="c", ops=[write_op("key-c", 1)]),
            ParticipantSpec(node="v", parent="c", ops=[read_op("shared")],
                            veto=kind == "refuses")])
    logged = len(cluster.node("v").log.all_records())
    handle = cluster.run_transaction(spec)
    assert handle.outcome == ("abort" if kind == "refuses" else "commit")
    assert len(cluster.node("v").log.all_records()) == logged
    assert set(retention.leftovers(cluster).values()) == {0}
    during = [m for m in sent if m.txn_id == spec.txn_id and m.dst == "v"]
    del sent[:]
    return cluster, during, sent


@pytest.mark.parametrize("kind", ["read_only", "refuses", "inactive"])
def test_late_copies_to_a_node_that_logged_nothing_are_dropped(kind):
    """The log cannot recognise them; the session's count of what the
    coordinator has started here does.  A second enrollment would take
    locks nothing releases, and a second prepare would be answered
    READ-ONLY by a fresh context that has lost the refusal."""
    cluster, during, after = _quiet_voter(kind)
    before = _log_sizes(cluster)
    starts = [m for m in during if m.flag("enroll")
              or m.msg_type is MessageType.PREPARE]
    assert [m.msg_type for m in starts] == (
        [MessageType.PREPARE] if kind == "inactive"
        else [MessageType.DATA, MessageType.PREPARE])
    for message in starts + starts[::-1]:
        cluster.node("v").receive(message)
        cluster.run()
        assert after == []
        assert set(retention.leftovers(cluster).values()) == {0}
    assert _log_sizes(cluster) == before


def test_a_prepare_that_overtakes_its_enrollment_still_starts_once():
    """Out of order is not late: the first of the two to arrive starts
    the transaction, the other finds it started."""
    cluster, during, after = _quiet_voter("read_only")
    fresh = Cluster(PRESUMED_ABORT, nodes=["c", "v"])
    enroll, prepare = during[0], during[1]
    fresh.node("v").receive(prepare)
    fresh.node("v").receive(enroll)
    fresh.run()
    assert set(retention.leftovers(fresh).values()) == {0}
    assert fresh.metrics.flows.total(src="v", phase="commit") == 1  # a vote


def test_arrivals_window():
    from repro.core.node import Arrivals
    arrivals = Arrivals()
    assert [arrivals.first_sight(n) for n in (1, 2, 2, 1, 4, 3, 4)] == \
        [True, True, False, False, True, True, False]
    assert (arrivals.floor, arrivals.above) == (4, set())
    # 5 is lost; the gap is kept open for WINDOW later starts, then
    # given up on, and what is remembered stays bounded.
    last = 6 + Arrivals.WINDOW
    assert all(arrivals.first_sight(n) for n in range(6, last))
    assert arrivals.first_sight(5)
    assert all(arrivals.first_sight(n) for n in range(last + 1, 3 * last))
    assert len(arrivals.above) <= Arrivals.WINDOW
    assert not arrivals.first_sight(last)
    assert arrivals.first_sight(3 * last) and arrivals.above == set()


@pytest.mark.parametrize("config,expected", [
    (PRESUMED_ABORT, "commit"),      # the stable log still says so
    (PRESUMED_COMMIT, "commit"),
])
def test_stale_vote_after_forgetting_is_answered_from_the_log(config,
                                                             expected):
    cluster, spec, during, after = _ran_and_forgotten(config)
    cluster.nodes["c"].receive(_first(during, MessageType.VOTE_YES))
    cluster.run()
    replies = [m for m in after if m.msg_type is MessageType.OUTCOME]
    assert [m.dst for m in replies] == ["s"]
    assert replies[0].payload["outcome"] == expected
    # The voter has forgotten too: it closes the loop, nothing more.
    assert [m.msg_type for m in after] == [MessageType.OUTCOME,
                                           MessageType.RECOVERY_ACK]
    assert set(retention.leftovers(cluster).values()) == {0}


def test_stale_vote_for_a_forgotten_abort_gets_the_presumption():
    """PA logs nothing for an abort, so once the coordinator has
    forgotten it the answer is the presumption — indistinguishable from
    a transaction it never saw."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
    sent = []
    cluster.network.on_send.append(sent.append)
    spec = updating_spec("c", ["s1", "s2"])
    spec.participant("s2").veto = True
    assert cluster.run_transaction(spec).aborted
    assert set(retention.leftovers(cluster).values()) == {0}
    vote = _first(sent, MessageType.VOTE_YES)
    del sent[:]
    cluster.nodes["c"].receive(vote)
    cluster.run()
    replies = [m for m in sent if m.msg_type is MessageType.OUTCOME]
    assert replies and replies[0].payload["outcome"] == "abort"
    assert set(retention.leftovers(cluster).values()) == {0}


def _last_agent_spec(veto=False):
    return TransactionSpec(participants=[
        ParticipantSpec(node="c", ops=[write_op("key-c", 1)]),
        ParticipantSpec(node="agent", parent="c", last_agent=True,
                        veto=veto, ops=[write_op("key-agent", 1)])])


@pytest.mark.parametrize("veto,expected", [
    (False, MessageType.COMMIT),     # its COMMITTED record answers
    (True, MessageType.ABORT),       # nothing decisive logged: presumed
])
def test_stale_delegation_after_forgetting_is_answered(veto, expected):
    cluster = Cluster(PRESUMED_ABORT.with_options(last_agent=True),
                      nodes=["c", "agent"])
    sent = []
    cluster.network.on_send.append(sent.append)
    handle = cluster.run_transaction(_last_agent_spec(veto))
    cluster.finalize_implied_acks()
    assert handle.outcome == ("abort" if veto else "commit")
    assert set(retention.leftovers(cluster).values()) == {0}
    if veto:
        # The agent refused before any delegation was sent; build the
        # one that would have crossed its abort on the wire.
        from repro.net.message import Message
        delegation = Message(
            msg_type=MessageType.VOTE_YES, txn_id=handle.txn_id, src="c",
            dst="agent", flags={"last_agent_delegation": True})
    else:
        delegation = _first(sent, MessageType.VOTE_YES,
                            last_agent_delegation=True)
    del sent[:]
    before = _log_sizes(cluster)
    cluster.nodes["agent"].receive(delegation)
    cluster.run()
    # Answered with what the agent's log says (else the presumption),
    # not taken as a fresh decision to make.
    assert [(m.msg_type, m.dst) for m in sent
            if m.src == "agent"] == [(expected, "c")]
    assert _log_sizes(cluster) == before
    assert set(retention.leftovers(cluster).values()) == {0}


def test_read_only_voter_is_forgotten_at_its_vote():
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "u", "r"])
    spec = TransactionSpec(participants=[
        ParticipantSpec(node="c", ops=[write_op("a", 1)]),
        ParticipantSpec(node="u", parent="c", ops=[write_op("b", 2)]),
        ParticipantSpec(node="r", parent="c", ops=[read_op("shared")])])
    cluster.start_transaction(spec)
    cluster.run_until(3.2)           # r has voted; u is still preparing
    assert cluster.node("r").ctx(spec.txn_id) is None
    assert cluster.node("r").default_rm._txns == {}
    assert cluster.node("u").ctx(spec.txn_id) is not None
    cluster.run()
    assert set(retention.leftovers(cluster).values()) == {0}


def test_aborting_coordinator_waits_for_the_late_voter():
    """A coordinator that aborts on the first NO has written its END,
    but a child whose YES is still on the wire is in doubt: the context
    stays (FORGOTTEN) until that vote has been answered with the abort
    in the normal protocol, then goes."""
    cluster = Cluster(PRESUMED_COMMIT, nodes=["c", "s1", "s2"])
    spec = updating_spec("c", ["s1", "s2"])
    spec.participant("s2").veto = True
    states = []
    cluster.node("c").on_transition.append(
        lambda node, txn, old, new: states.append(
            (new, cluster.node("c").ctx(txn) is not None)))
    cluster.run_transaction(spec)
    assert states[-1][0] is TxnState.FORGOTTEN
    acks = cluster.metrics.flows.total(msg_type=MessageType.ACK.value,
                                       txn=spec.txn_id)
    assert acks == 1 and cluster.metrics.recovery_flows() == 0
    assert set(retention.leftovers(cluster).values()) == {0}
