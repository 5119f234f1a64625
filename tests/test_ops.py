"""Operator console tests."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT, PRESUMED_NOTHING
from repro.errors import ConfigurationError, ProtocolError
from repro.ops import OperatorConsole

from tests.conftest import updating_spec


def stuck_in_doubt(config=None):
    """A subordinate stranded in the in-doubt window by a partition."""
    config = (config or PRESUMED_ABORT).with_options(
        ack_timeout=100.0, retry_interval=100.0)
    cluster = Cluster(config, nodes=["c", "s"])
    spec = updating_spec("c", ["s"])
    cluster.partition_at("c", "s", 4.5)
    handle = cluster.start_transaction(spec)
    cluster.run_until(30.0)
    return cluster, spec, handle


def test_in_doubt_listing():
    cluster, spec, __ = stuck_in_doubt()
    console = OperatorConsole(cluster)
    entries = console.in_doubt_transactions()
    assert len(entries) == 1
    entry = entries[0]
    assert entry.node == "s" and entry.txn_id == spec.txn_id
    assert entry.coordinator == "c"
    assert entry.in_doubt_for > 20.0
    assert "key-s" in entry.held_keys
    assert spec.txn_id in str(entry)


def test_in_doubt_listing_scoped_to_node():
    cluster, __, __h = stuck_in_doubt()
    console = OperatorConsole(cluster)
    assert console.in_doubt_transactions(node="c") == []
    assert len(console.in_doubt_transactions(node="s")) == 1


def test_force_commit_matches_outcome():
    cluster, spec, handle = stuck_in_doubt()
    console = OperatorConsole(cluster)
    console.force_commit("s", spec.txn_id)
    cluster.heal("c", "s")
    cluster.run_until(400.0)
    assert handle.committed
    assert console.damage_report() == []   # operator guessed right
    assert len(console.heuristic_log()) == 1
    assert cluster.value("s", "key-s") == 1


def test_force_abort_creates_damage():
    cluster, spec, handle = stuck_in_doubt()
    console = OperatorConsole(cluster)
    console.force_abort("s", spec.txn_id)
    cluster.heal("c", "s")
    cluster.run_until(400.0)
    assert handle.committed        # the tree had decided commit
    damaged = console.damage_report()
    assert len(damaged) == 1 and damaged[0].node == "s"
    assert cluster.value("s", "key-s") is None


def test_force_outcome_frees_locks_immediately():
    cluster, spec, __ = stuck_in_doubt()
    console = OperatorConsole(cluster)
    console.force_abort("s", spec.txn_id)
    cluster.run_until(35.0)
    cluster.node("s").default_rm.locks.assert_released(spec.txn_id)


def test_resync_resolves_without_waiting():
    cluster, spec, handle = stuck_in_doubt()
    cluster.heal("c", "s")
    console = OperatorConsole(cluster)
    console.resync("s", spec.txn_id)
    cluster.run_until(60.0)       # well before the 100-unit retry timer
    assert handle.committed
    assert cluster.value("s", "key-s") == 1


def test_resync_rejected_under_pn():
    cluster, spec, __ = stuck_in_doubt(PRESUMED_NOTHING)
    console = OperatorConsole(cluster)
    with pytest.raises(ProtocolError, match="coordinator-driven"):
        console.resync("s", spec.txn_id)


def test_interventions_validate_state():
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
    spec = updating_spec("c", ["s"])
    cluster.run_transaction(spec)   # clean commit: nothing in doubt
    console = OperatorConsole(cluster)
    assert console.in_doubt_transactions() == []
    # Committed and forgotten: to the operator it is a transaction
    # the node knows nothing about, like the never-seen one below.
    with pytest.raises(ProtocolError, match="knows nothing"):
        console.force_abort("s", spec.txn_id)
    with pytest.raises(ProtocolError):
        console.force_commit("s", "ghost")
    with pytest.raises(ConfigurationError):
        console.force_commit("ghost-node", spec.txn_id)


def test_bad_decision_value_rejected():
    cluster, spec, __ = stuck_in_doubt()
    console = OperatorConsole(cluster)
    with pytest.raises(ValueError):
        console.force_outcome("s", spec.txn_id, "maybe")
