"""The read-only optimization (§4): savings, cascaded rule, early lock
release, and the serializability hazard the paper warns about."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import BASIC_2PC, PRESUMED_ABORT, PRESUMED_NOTHING
from repro.core.spec import ParticipantSpec, TransactionSpec, flat_tree
from repro.core.states import TxnState
from repro.lrm.operations import read_op, write_op

from tests.conftest import updating_spec


def spec_with_readers(root, updaters, readers):
    spec = flat_tree(root, updaters + readers)
    spec.participant(root).ops.append(write_op(f"key-{root}", 1))
    for name in updaters:
        spec.participant(name).ops.append(write_op(f"key-{name}", 1))
    for name in readers:
        spec.participant(name).ops.append(read_op("catalogue"))
    return spec


def test_reader_excluded_from_phase_two():
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "u", "r"])
    spec = spec_with_readers("c", ["u"], ["r"])
    handle = cluster.run_transaction(spec)
    assert handle.committed
    # The reader sent exactly one flow (its read-only vote) and
    # received exactly one (the prepare).
    assert cluster.metrics.commit_flows(src="r", txn=spec.txn_id) == 1
    assert cluster.metrics.total_log_writes(node="r", txn=spec.txn_id) == 0


def test_savings_are_2m_flows_and_2m_forced():
    n, m = 6, 3
    nodes = [f"n{i}" for i in range(n)]
    base = Cluster(PRESUMED_ABORT, nodes=nodes)
    base_spec = updating_spec("n0", nodes[1:])
    base.run_transaction(base_spec)

    optimized = Cluster(PRESUMED_ABORT, nodes=nodes)
    opt_spec = spec_with_readers("n0", nodes[1:n - m], nodes[n - m:])
    optimized.run_transaction(opt_spec)

    assert (base.metrics.commit_flows(txn=base_spec.txn_id)
            - optimized.metrics.commit_flows(txn=opt_spec.txn_id)) == 2 * m
    assert (base.metrics.forced_log_writes(txn=base_spec.txn_id)
            - optimized.metrics.forced_log_writes(txn=opt_spec.txn_id)) \
        == 2 * m


def test_reader_releases_locks_at_prepare_time():
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "u", "r"])
    spec = spec_with_readers("c", ["u"], ["r"])
    released_at = {}
    original = cluster.node("r").default_rm.locks.release_all

    def spy(txn_id):
        released_at[txn_id] = cluster.simulator.now
        original(txn_id)

    cluster.node("r").default_rm.locks.release_all = spy
    handle = cluster.run_transaction(spec)
    assert spec.txn_id in released_at
    assert released_at[spec.txn_id] < handle.completed_at


def test_reader_does_not_learn_outcome():
    """Table 1's disadvantage: the read-only voter never hears whether
    the transaction committed."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "u", "r"])
    spec = spec_with_readers("c", ["u"], ["r"])
    states = []
    cluster.node("r").on_transition.append(
        lambda node, txn, old, new: states.append(new))
    cluster.run_transaction(spec)
    assert states[-1] is TxnState.READ_ONLY_DONE
    # Out of the protocol at its vote: no context left to hold an
    # outcome, and none on its log.
    assert cluster.node("r").ctx(spec.txn_id) is None
    assert cluster.recorded_outcome("r", spec.txn_id) is None


def test_cascaded_votes_read_only_only_if_whole_subtree_is():
    """§4: a cascaded coordinator may vote read-only iff ALL its
    subordinates voted read-only."""
    # Case 1: whole subtree read-only -> intermediate votes read-only.
    cluster = Cluster(PRESUMED_ABORT, nodes=["root", "mid", "leaf"])
    spec = TransactionSpec(participants=[
        ParticipantSpec(node="root", ops=[write_op("k", 1)]),
        ParticipantSpec(node="mid", parent="root", ops=[read_op("a")]),
        ParticipantSpec(node="leaf", parent="mid", ops=[read_op("b")])])
    mid_states = []
    cluster.node("mid").on_transition.append(
        lambda node, txn, old, new: mid_states.append(new))
    cluster.run_transaction(spec)
    assert mid_states[-1] is TxnState.READ_ONLY_DONE
    assert cluster.node("mid").ctx(spec.txn_id) is None
    assert cluster.metrics.total_log_writes(node="mid",
                                            txn=spec.txn_id) == 0

    # Case 2: a leaf updates -> the intermediate must vote YES and log.
    cluster2 = Cluster(PRESUMED_ABORT, nodes=["root", "mid", "leaf"])
    spec2 = TransactionSpec(participants=[
        ParticipantSpec(node="root", ops=[write_op("k", 1)]),
        ParticipantSpec(node="mid", parent="root", ops=[read_op("a")]),
        ParticipantSpec(node="leaf", parent="mid",
                        ops=[write_op("b", 2)])])
    mid_states = []
    cluster2.node("mid").on_transition.append(
        lambda node, txn, old, new: mid_states.append(new))
    cluster2.run_transaction(spec2)
    assert TxnState.PREPARED in mid_states
    assert mid_states[-1] is TxnState.FORGOTTEN
    assert cluster2.node("mid").ctx(spec2.txn_id) is None
    assert cluster2.metrics.forced_log_writes(node="mid",
                                              txn=spec2.txn_id) == 2


def test_pn_still_logs_commit_pending_when_all_read_only():
    """§4: 'PN still has the coordinator log a commit-pending record,
    but the subordinate performs no logging.'"""
    cluster = Cluster(PRESUMED_NOTHING, nodes=["c", "r1", "r2"])
    spec = flat_tree("c", ["r1", "r2"])
    for participant in spec.participants[1:]:
        participant.ops.append(read_op("k"))
    handle = cluster.run_transaction(spec)
    assert handle.committed
    types = cluster.metrics.log_writes.group_by("record_type",
                                                node="c", txn=spec.txn_id)
    assert types.get("commit-pending") == 1
    assert cluster.metrics.total_log_writes(node="r1",
                                            txn=spec.txn_id) == 0


def test_baseline_treats_readers_as_full_participants():
    """With the optimization off (the Section 2 baseline), a read-only
    participant votes YES, logs and holds locks to the end."""
    cluster = Cluster(BASIC_2PC, nodes=["c", "r"])
    spec = flat_tree("c", ["r"])
    spec.participant("c").ops.append(write_op("k", 1))
    spec.participant("r").ops.append(read_op("x"))
    cluster.run_transaction(spec)
    assert cluster.metrics.forced_log_writes(node="r",
                                             txn=spec.txn_id) == 2
    assert cluster.metrics.commit_flows(src="r", txn=spec.txn_id) == 2


def test_serialization_hazard_demo():
    """The paper's §4 hazard: Pa votes read-only and releases its locks
    while Pb is still working; an unrelated transaction slips in and
    changes the data Pa read, violating two-phase locking across the
    distributed transaction."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["coord", "pa", "pb"])
    cluster.node("pa").default_rm.store.redo_write("shared", "v0")

    # Pb is slow: its work finishes long after Pa voted read-only.
    spec = TransactionSpec(participants=[
        ParticipantSpec(node="coord", ops=[write_op("c", 1)]),
        ParticipantSpec(node="pa", ops=[read_op("shared")], parent="coord"),
        ParticipantSpec(node="pb", ops=[write_op("b", 1)], parent="coord"),
    ], await_work_done=False)
    handle = cluster.start_transaction(spec)

    observed = {}

    def intruder():
        # An unrelated transaction writes the key Pa read, while the
        # distributed transaction is still in flight at Pb.
        rm = cluster.node("pa").default_rm
        if not rm.locks.holds(spec.txn_id, "shared"):
            rm.store.redo_write("shared", "intruder!")
            observed["intruded"] = True

    cluster.simulator.at(30.0, intruder)

    # Hold Pb's vote hostage until after the intruder ran.
    pb_rm = cluster.node("pb").default_rm
    cluster.node("pb").contexts  # force enrollment first
    cluster.run_until(25.0)
    cluster.simulator.at(40.0, lambda: None)
    cluster.run_until(100.0)
    assert handle.done and handle.committed
    assert observed.get("intruded"), \
        "Pa's early lock release let an unrelated write slip in"
    assert cluster.value("pa", "shared") == "intruder!"
    del pb_rm
