"""Unit tests for the two-phase lock manager."""

import pytest

from repro.errors import DeadlockError, LockError
from repro.lrm.locks import LockManager, LockMode
from repro.metrics.collector import MetricsCollector
from repro.sim.kernel import Simulator


@pytest.fixture
def locks(simulator, metrics):
    return LockManager(simulator, metrics)


def grant_log(locks, simulator):
    granted = []

    def acquire(txn, key, mode):
        locks.acquire(txn, key, mode, lambda: granted.append((txn, key)))
        simulator.run()

    return granted, acquire


def test_exclusive_blocks_exclusive(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "k", LockMode.EXCLUSIVE)
    acquire("t2", "k", LockMode.EXCLUSIVE)
    assert granted == [("t1", "k")]
    locks.release_all("t1")
    simulator.run()
    assert granted == [("t1", "k"), ("t2", "k")]


def test_shared_locks_coexist(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "k", LockMode.SHARED)
    acquire("t2", "k", LockMode.SHARED)
    assert len(granted) == 2


def test_shared_blocks_exclusive(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "k", LockMode.SHARED)
    acquire("t2", "k", LockMode.EXCLUSIVE)
    assert granted == [("t1", "k")]


def test_fifo_wait_queue(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "k", LockMode.EXCLUSIVE)
    acquire("t2", "k", LockMode.EXCLUSIVE)
    acquire("t3", "k", LockMode.EXCLUSIVE)
    locks.release_all("t1")
    simulator.run()
    assert granted == [("t1", "k"), ("t2", "k")]
    locks.release_all("t2")
    simulator.run()
    assert granted[-1] == ("t3", "k")


def test_reentrant_acquire(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "k", LockMode.SHARED)
    acquire("t1", "k", LockMode.SHARED)
    assert len(granted) == 2  # both grants fire, no deadlock with self


def test_upgrade_sole_holder(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "k", LockMode.SHARED)
    acquire("t1", "k", LockMode.EXCLUSIVE)
    assert len(granted) == 2
    assert locks.holds("t1", "k", LockMode.EXCLUSIVE)


def test_upgrade_waits_for_other_readers(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "k", LockMode.SHARED)
    acquire("t2", "k", LockMode.SHARED)
    acquire("t1", "k", LockMode.EXCLUSIVE)
    assert granted.count(("t1", "k")) == 1  # upgrade pending
    locks.release_all("t2")
    simulator.run()
    assert granted.count(("t1", "k")) == 2
    assert locks.holds("t1", "k", LockMode.EXCLUSIVE)


def test_exclusive_holder_absorbs_weaker_request(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "k", LockMode.EXCLUSIVE)
    acquire("t1", "k", LockMode.SHARED)
    assert len(granted) == 2


def test_deadlock_detected_two_txns(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "a", LockMode.EXCLUSIVE)
    acquire("t2", "b", LockMode.EXCLUSIVE)
    acquire("t1", "b", LockMode.EXCLUSIVE)  # t1 waits on t2
    with pytest.raises(DeadlockError) as excinfo:
        locks.acquire("t2", "a", LockMode.EXCLUSIVE, lambda: None)
    assert "t2" in str(excinfo.value)
    assert locks.deadlocks_detected == 1


def test_deadlock_detected_three_txns(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "a", LockMode.EXCLUSIVE)
    acquire("t2", "b", LockMode.EXCLUSIVE)
    acquire("t3", "c", LockMode.EXCLUSIVE)
    acquire("t1", "b", LockMode.EXCLUSIVE)
    acquire("t2", "c", LockMode.EXCLUSIVE)
    with pytest.raises(DeadlockError):
        locks.acquire("t3", "a", LockMode.EXCLUSIVE, lambda: None)


def test_victim_release_clears_wait_queues(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "a", LockMode.EXCLUSIVE)
    acquire("t2", "b", LockMode.EXCLUSIVE)
    acquire("t1", "b", LockMode.EXCLUSIVE)
    with pytest.raises(DeadlockError):
        locks.acquire("t2", "a", LockMode.EXCLUSIVE, lambda: None)
    locks.release_all("t2")  # victim aborts
    simulator.run()
    # t1 now gets b.
    assert granted[-1] == ("t1", "b")


def test_release_all_wakes_waiters_and_records_hold(simulator):
    metrics = MetricsCollector()
    locks = LockManager(simulator, metrics)
    locks.acquire("t1", "k", LockMode.EXCLUSIVE, lambda: None)
    simulator.run()
    simulator.schedule(4.0, lambda: locks.release_all("t1"))
    simulator.run()
    assert metrics.lock_holds == [pytest.approx(4.0)]


def test_release_without_locks_is_noop(locks):
    locks.release_all("ghost")  # must not raise


def test_assert_released(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "k", LockMode.EXCLUSIVE)
    with pytest.raises(LockError):
        locks.assert_released("t1")
    locks.release_all("t1")
    locks.assert_released("t1")


def test_held_keys_and_waiting_count(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "a", LockMode.EXCLUSIVE)
    acquire("t1", "b", LockMode.SHARED)
    acquire("t2", "a", LockMode.EXCLUSIVE)
    assert locks.held_keys("t1") == {"a", "b"}
    assert locks.waiting_count("a") == 1
    assert locks.waiting_count("b") == 0


def test_mixed_wakeup_grants_compatible_prefix(locks, simulator):
    granted, acquire = grant_log(locks, simulator)
    acquire("t1", "k", LockMode.EXCLUSIVE)
    acquire("t2", "k", LockMode.SHARED)
    acquire("t3", "k", LockMode.SHARED)
    acquire("t4", "k", LockMode.EXCLUSIVE)
    locks.release_all("t1")
    simulator.run()
    # Both shared readers wake, the exclusive waits.
    assert ("t2", "k") in granted and ("t3", "k") in granted
    assert ("t4", "k") not in granted


class TestLockHooks:
    """The on_grant/on_release hook lists the cost ledger rides."""

    def hooked(self, locks):
        events = []
        locks.on_grant.append(
            lambda txn, key, mode: events.append(("grant", txn, key, mode)))
        locks.on_release.append(
            lambda txn, key: events.append(("release", txn, key)))
        return events

    def test_grant_and_release_fire_in_order(self, locks, simulator):
        events = self.hooked(locks)
        locks.acquire("t1", "k", LockMode.EXCLUSIVE, lambda: None)
        simulator.run()
        assert events == [("grant", "t1", "k", LockMode.EXCLUSIVE)]
        locks.release_all("t1")
        assert events[-1] == ("release", "t1", "k")

    def test_reentrant_acquire_fires_no_second_grant(self, locks,
                                                     simulator):
        events = self.hooked(locks)
        locks.acquire("t1", "k", LockMode.SHARED, lambda: None)
        locks.acquire("t1", "k", LockMode.SHARED, lambda: None)
        simulator.run()
        assert len([e for e in events if e[0] == "grant"]) == 1

    def test_sole_holder_upgrade_fires_no_second_grant(self, locks,
                                                       simulator):
        events = self.hooked(locks)
        locks.acquire("t1", "k", LockMode.SHARED, lambda: None)
        locks.acquire("t1", "k", LockMode.EXCLUSIVE, lambda: None)
        simulator.run()
        # Strengthened in place: one hold interval, not two.
        assert len([e for e in events if e[0] == "grant"]) == 1
        locks.release_all("t1")
        assert len([e for e in events if e[0] == "release"]) == 1

    def test_waiter_grant_fires_hook_at_wakeup(self, locks, simulator):
        events = self.hooked(locks)
        locks.acquire("t1", "k", LockMode.EXCLUSIVE, lambda: None)
        locks.acquire("t2", "k", LockMode.EXCLUSIVE, lambda: None)
        simulator.run()
        assert ("grant", "t2", "k", LockMode.EXCLUSIVE) not in events
        locks.release_all("t1")
        simulator.run()
        assert ("grant", "t2", "k", LockMode.EXCLUSIVE) in events

    def test_no_hooks_installed_is_free(self, locks, simulator):
        # The skip-when-empty pattern: empty lists, nothing to call.
        assert locks.on_grant == [] and locks.on_release == []
        locks.acquire("t1", "k", LockMode.EXCLUSIVE, lambda: None)
        simulator.run()
        locks.release_all("t1")

    def test_granted_count_and_total_waiting(self, locks, simulator):
        locks.acquire("t1", "a", LockMode.SHARED, lambda: None)
        locks.acquire("t2", "a", LockMode.SHARED, lambda: None)
        locks.acquire("t3", "a", LockMode.EXCLUSIVE, lambda: None)
        locks.acquire("t1", "b", LockMode.EXCLUSIVE, lambda: None)
        simulator.run()
        assert locks.granted_count() == 3
        assert locks.total_waiting() == 1
        locks.release_all("t1")
        locks.release_all("t2")
        simulator.run()
        assert locks.granted_count() == 1  # t3 woke up on "a"
        assert locks.total_waiting() == 0


def test_lock_table_holds_only_live_locks(locks, simulator):
    """Keys leave the table with their last holder and waiter, lookups
    never create them, and a transaction queued twice on one key stays
    in the waited-key map until both requests are gone (hypothesis once
    found the second grant tripping over the first one's clean-up)."""
    assert locks.waiting_count("never-touched") == 0
    assert not locks.holds("t0", "never-touched")
    assert locks._table == {}
    locks.acquire("t0", "k", LockMode.SHARED, lambda: None)
    locks.acquire("t1", "k", LockMode.EXCLUSIVE, lambda: None)
    locks.acquire("t1", "k", LockMode.SHARED, lambda: None)   # queued too
    assert locks._waiting_by_txn == {"t1": {"k"}}
    locks.release_all("t0")
    simulator.run()
    assert locks.holds("t1", "k", LockMode.EXCLUSIVE)
    assert locks._waiting_by_txn == {}
    locks.release_all("t1")
    assert locks._table == {} and locks._held_by_txn == {}
    assert locks._first_acquire_at == {}
    assert locks.granted_count() == locks.total_waiting() == 0
