"""Integration tests: failure-free commit across protocols and trees."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import (
    BASIC_2PC,
    PRESUMED_ABORT,
    PRESUMED_COMMIT,
    PRESUMED_NOTHING,
)
from repro.core.spec import chain_tree, flat_tree
from repro.core.states import TxnState
from repro.errors import ConfigurationError
from repro.lrm.operations import read_op, write_op

from tests.conftest import assert_atomic, updating_spec

ALL_CONFIGS = [
    pytest.param(BASIC_2PC, id="basic"),
    pytest.param(PRESUMED_ABORT, id="pa"),
    pytest.param(PRESUMED_NOTHING, id="pn"),
    pytest.param(PRESUMED_COMMIT, id="pc"),
]


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_two_node_commit_applies_everywhere(config):
    cluster = Cluster(config, nodes=["coord", "sub"])
    spec = updating_spec("coord", ["sub"])
    handle = cluster.run_transaction(spec)
    assert handle.committed
    assert cluster.value("coord", "key-coord") == 1
    assert cluster.value("sub", "key-sub") == 1
    assert assert_atomic(cluster, spec) == "commit"


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_flat_tree_of_five_commits(config):
    nodes = [f"n{i}" for i in range(5)]
    cluster = Cluster(config, nodes=nodes)
    spec = updating_spec("n0", nodes[1:])
    handle = cluster.run_transaction(spec)
    assert handle.committed
    for name in nodes:
        assert cluster.value(name, f"key-{name}") == 1


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_cascaded_chain_commits(config):
    nodes = ["a", "b", "c", "d"]
    cluster = Cluster(config, nodes=nodes)
    spec = chain_tree(nodes)
    for participant in spec.participants:
        participant.ops.append(write_op(f"key-{participant.node}", 1))
    handle = cluster.run_transaction(spec)
    assert handle.committed
    assert assert_atomic(cluster, spec) == "commit"


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_locks_released_after_commit(config):
    cluster = Cluster(config, nodes=["coord", "sub"])
    spec = updating_spec("coord", ["sub"])
    cluster.run_transaction(spec)
    for name in ("coord", "sub"):
        cluster.node(name).default_rm.locks.assert_released(spec.txn_id)


def test_single_node_transaction_commits():
    cluster = Cluster(PRESUMED_ABORT, nodes=["solo"])
    spec = flat_tree("solo", [])
    spec.participant("solo").ops.append(write_op("k", 9))
    handle = cluster.run_transaction(spec)
    assert handle.committed
    assert cluster.value("solo", "k") == 9


def test_contexts_reach_terminal_states():
    cluster = Cluster(PRESUMED_ABORT, nodes=["coord", "sub"])
    spec = updating_spec("coord", ["sub"])
    states = []
    for name in ("coord", "sub"):
        cluster.node(name).on_transition.append(
            lambda node, txn, old, new: states.append((node, new)))
    cluster.run_transaction(spec)
    for name in ("coord", "sub"):
        # Forgotten means absent: the last state seen was FORGOTTEN and
        # the node holds no context for the transaction any more.
        assert [s for n, s in states if n == name][-1] is TxnState.FORGOTTEN
        assert cluster.node(name).ctx(spec.txn_id) is None


def test_handle_latency_positive():
    cluster = Cluster(PRESUMED_ABORT, nodes=["coord", "sub"])
    handle = cluster.run_transaction(updating_spec("coord", ["sub"]))
    assert handle.latency > 0


def test_sequential_transactions_reuse_cluster():
    cluster = Cluster(PRESUMED_ABORT, nodes=["coord", "sub"])
    for i in range(3):
        spec = flat_tree("coord", ["sub"])
        spec.participant("sub").ops.append(write_op("counter", i))
        handle = cluster.run_transaction(spec)
        assert handle.committed
    assert cluster.value("sub", "counter") == 2


def test_spec_with_unknown_node_rejected():
    cluster = Cluster(PRESUMED_ABORT, nodes=["coord"])
    with pytest.raises(ConfigurationError, match="unknown nodes"):
        cluster.run_transaction(flat_tree("coord", ["ghost"]))


def test_duplicate_node_rejected():
    cluster = Cluster(PRESUMED_ABORT, nodes=["a"])
    with pytest.raises(ConfigurationError):
        cluster.add_node("a")


def test_end_is_never_forced_in_pa_commit():
    """§2: the END record does not need to be forced."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["coord", "sub"])
    spec = updating_spec("coord", ["sub"])
    cluster.run_transaction(spec)
    for record in cluster.node("coord").log.all_records():
        if record.record_type.value == "end":
            assert not record.forced


def test_prepare_overtakes_work(two_node_cluster):
    """Peer environments: a prepare may arrive before the subordinate
    finishes its part; the vote waits (§4, Read Only discussion)."""
    spec = updating_spec("coord", ["sub"], await_work_done=False)
    handle = two_node_cluster.run_transaction(spec)
    assert handle.committed
    assert two_node_cluster.value("sub", "key-sub") == 1


def test_latency_model_affects_commit_duration():
    from repro.net.latency import ConstantLatency
    fast = Cluster(PRESUMED_ABORT, nodes=["c", "s"],
                   latency=ConstantLatency(0.5))
    slow = Cluster(PRESUMED_ABORT, nodes=["c", "s"],
                   latency=ConstantLatency(10.0))
    spec_fast = updating_spec("c", ["s"])
    spec_slow = updating_spec("c", ["s"])
    h_fast = fast.run_transaction(spec_fast)
    h_slow = slow.run_transaction(spec_slow)
    assert h_slow.latency > h_fast.latency


def test_read_only_everywhere_no_logging_pa():
    """§3: PA performs no logging at all if everyone is read-only."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["coord", "s1", "s2"])
    spec = flat_tree("coord", ["s1", "s2"])
    for participant in spec.participants:
        participant.ops.append(read_op("shared"))
    handle = cluster.run_transaction(spec)
    assert handle.committed
    assert cluster.metrics.total_log_writes(txn=spec.txn_id) == 0
