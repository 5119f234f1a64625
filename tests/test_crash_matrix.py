"""The crash-point matrix.

Rather than hand-picking crash instants, crash a node deterministically
after its k-th log write (or k-th message send) for every k the
protocol produces, under every presumption — then restart, run
recovery, and assert atomicity plus the wire-protocol rules.  This
systematically covers the windows the paper's recovery arguments
reason about: before/after the prepared force, between decision and
propagation, before/after END, mid-acknowledgment.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import (
    BASIC_2PC,
    PRESUMED_ABORT,
    PRESUMED_COMMIT,
    PRESUMED_NOTHING,
)
from repro.verify import ProtocolChecker

from tests.conftest import assert_atomic, updating_spec

CONFIGS = [
    pytest.param(BASIC_2PC, id="basic"),
    pytest.param(PRESUMED_ABORT, id="pa"),
    pytest.param(PRESUMED_NOTHING, id="pn"),
    pytest.param(PRESUMED_COMMIT, id="pc"),
]

RECOVERY_OPTIONS = dict(ack_timeout=15.0, retry_interval=15.0,
                        vote_timeout=25.0, inquiry_timeout=25.0,
                        work_timeout=40.0)


def crash_after_log_write(cluster, node_name: str, k: int) -> None:
    """Arm: the node crashes right after its k-th log write."""
    node = cluster.nodes[node_name]
    count = {"n": 0}

    def hook(record) -> None:
        count["n"] += 1
        if count["n"] == k and node.alive:
            cluster.simulator.call_soon(node.crash,
                                        name=f"crash-after-write-{k}")

    node.log.on_write.append(hook)


def crash_after_send(cluster, node_name: str, k: int) -> None:
    """Arm: the node crashes right after its k-th network send."""
    node = cluster.nodes[node_name]
    count = {"n": 0}

    def hook(message) -> None:
        if message.src != node_name:
            return
        count["n"] += 1
        if count["n"] == k and node.alive:
            cluster.simulator.call_soon(node.crash,
                                        name=f"crash-after-send-{k}")

    cluster.network.on_send.append(hook)


def run_matrix_case(config, victim: str, k: int, mode: str):
    cluster = Cluster(config.with_options(**RECOVERY_OPTIONS),
                      nodes=["c", "s"])
    checker = ProtocolChecker().attach(cluster)
    spec = updating_spec("c", ["s"])
    if mode == "log":
        crash_after_log_write(cluster, victim, k)
    else:
        crash_after_send(cluster, victim, k)
    # The crash itself arms the restart: with nothing else pending (a
    # settled transaction leaves no timer behind) no later event would.
    node = cluster.nodes[victim]
    crash = node.crash

    def crash_then_restart() -> None:
        crash()
        cluster.simulator.schedule(30.0, node.restart, name="matrix-restart")

    node.crash = crash_then_restart
    cluster.start_transaction(spec)
    cluster.run_until(600.0, max_events=400_000)
    checker.check_atomicity(spec.txn_id)
    checker.assert_clean()
    outcome = assert_atomic(cluster, spec)
    # Data must match the agreed outcome everywhere.
    for name in ("c", "s"):
        value = cluster.value(name, f"key-{name}")
        if outcome == "commit":
            recorded = cluster.recorded_outcome(name, spec.txn_id)
            if recorded == "commit":
                assert value == 1, (name, k, mode)
        else:
            assert value in (None,), (name, k, mode)
    return outcome


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("k", range(1, 7), ids=lambda k: f"w{k}")
def test_subordinate_crash_after_each_log_write(config, k):
    run_matrix_case(config, "s", k, "log")


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("k", range(1, 7), ids=lambda k: f"w{k}")
def test_coordinator_crash_after_each_log_write(config, k):
    run_matrix_case(config, "c", k, "log")


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("k", range(1, 6), ids=lambda k: f"m{k}")
def test_subordinate_crash_after_each_send(config, k):
    run_matrix_case(config, "s", k, "send")


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("k", range(1, 6), ids=lambda k: f"m{k}")
def test_coordinator_crash_after_each_send(config, k):
    run_matrix_case(config, "c", k, "send")
