"""Watchdog in live-hook mode, and hook-chain restoration when the
full observability stack (tracer, ledger, journal, registry, watchdog)
attaches and detaches in arbitrary orders.

The watchdog's detectors are tested post-hoc in test_journal; here
they run *while the cluster is live* — attached through the internal
journal recorder, scanned mid-run the way the admin plane's recurring
timer does it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.obs import (CostLedger, JournalRecorder, JournalRows,
                       MetricsRegistry, SpanTracer, Watchdog)

from tests.conftest import updating_spec
from tests.test_journal import _hook_state


def stuck_in_doubt_cluster():
    """A subordinate stranded in the in-doubt window by a partition."""
    config = PRESUMED_ABORT.with_options(ack_timeout=100.0,
                                         retry_interval=100.0)
    cluster = Cluster(config, nodes=["c", "s"])
    cluster.partition_at("c", "s", 4.5)
    return cluster, updating_spec("c", ["s"], txn_id="wd-1")


# ----------------------------------------------------------------------
# Live-hook mode
# ----------------------------------------------------------------------
class TestWatchdogLive:
    def test_findings_while_running(self):
        cluster, spec = stuck_in_doubt_cluster()
        watchdog = Watchdog(in_doubt_threshold=10.0).attach(cluster)
        assert watchdog.attached
        cluster.start_transaction(spec)
        cluster.run_until(30.0)
        # Scanned mid-run: the in-doubt window is still open, so it
        # fires at any duration; the swallowed COMMIT is an orphan.
        findings = watchdog.findings()
        detectors = {finding.detector for finding in findings}
        assert "in_doubt" in detectors
        assert "orphan" in detectors
        stuck = [f for f in findings if f.detector == "in_doubt"]
        assert stuck[0].txn == "wd-1" and stuck[0].node == "s"
        watchdog.detach()
        assert not watchdog.attached

    def test_quiet_cluster_no_findings(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        watchdog = Watchdog().attach(cluster)
        cluster.run_transaction(updating_spec("c", ["s"], txn_id="ok-1"))
        assert watchdog.findings() == []
        watchdog.detach()

    def test_findings_resolve_when_window_closes(self):
        cluster, spec = stuck_in_doubt_cluster()
        watchdog = Watchdog(in_doubt_threshold=1000.0).attach(cluster)
        cluster.start_transaction(spec)
        cluster.run_until(30.0)
        assert any(f.detector == "in_doubt" for f in watchdog.findings())
        cluster.heal("c", "s")
        cluster.run_until(400.0)
        # The window closed under the (huge) threshold: no in-doubt
        # finding survives; the retried COMMIT closed the orphan too.
        detectors = {f.detector for f in watchdog.findings()}
        assert "in_doubt" not in detectors
        watchdog.detach()

    def test_detach_before_attach_is_noop(self):
        watchdog = Watchdog()
        watchdog.detach()
        assert not watchdog.attached
        assert watchdog.findings() == []


# ----------------------------------------------------------------------
# Attach/detach symmetry across the full stack
# ----------------------------------------------------------------------
def full_stack():
    return [SpanTracer(), CostLedger(), JournalRecorder(),
            MetricsRegistry(), Watchdog()]


# 120 permutations of 5 instruments is overkill for CI; every 5th
# covers each instrument in each position.
@pytest.mark.parametrize("order",
                         list(itertools.permutations(range(5)))[::5])
def test_full_stack_detach_any_order(order):
    """All five instruments detached in any order must restore the
    exact pre-attach hook chains, preserving foreign hooks."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])

    def sentinel(*args, **kwargs):
        pass

    cluster.network.on_send.append(sentinel)
    cluster.nodes["s1"].on_transition.append(sentinel)
    cluster.metrics.on_transaction.append(sentinel)
    before = _hook_state(cluster)
    before["metrics.on_transaction"] = list(cluster.metrics.on_transaction)
    before["metrics.on_heuristic"] = list(cluster.metrics.on_heuristic)

    instruments = full_stack()
    for instrument in instruments:
        instrument.attach(cluster)
    cluster.run_transaction(
        updating_spec("c", ["s1", "s2"], txn_id=f"stack-{order}"))
    assert _hook_state(cluster) != before

    for index in order:
        instruments[index].detach()
    after = _hook_state(cluster)
    after["metrics.on_transaction"] = list(cluster.metrics.on_transaction)
    after["metrics.on_heuristic"] = list(cluster.metrics.on_heuristic)
    assert after == before
    assert sentinel in cluster.network.on_send
    assert sentinel in cluster.metrics.on_transaction


def test_stacked_instruments_all_observe():
    """One transaction, five instruments: each captures its view."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
    tracer, ledger, recorder, registry, watchdog = full_stack()
    for instrument in (tracer, ledger, recorder, registry, watchdog):
        instrument.attach(cluster)
    cluster.run_transaction(updating_spec("c", ["s1", "s2"],
                                          txn_id="all-1"))
    tracer.finish()
    assert tracer.spans
    assert "all-1" in ledger.txn_ids()
    assert len(recorder) > 0
    assert registry.counter_samples()[
        'repro_transactions_total{outcome="commit"}'] == 1
    assert watchdog.findings() == []
    assert len(watchdog.entries()) == len(recorder)
    for instrument in (tracer, ledger, recorder, registry, watchdog):
        instrument.detach()


# ----------------------------------------------------------------------
# Incremental scan == full rescan
# ----------------------------------------------------------------------
def full_rescan(watchdog, entries, end_time=None):
    """The four detectors written as whole-journal passes (the shape
    they had before the admin plane fed them a tail at a time): the
    reference the incremental fold must agree with."""
    from repro.obs.journal import SETTLED_STATES
    from repro.obs.watchdog import DETECTORS
    if end_time is None:
        end_time = max((e.t for e in entries), default=0.0)
    out = []
    opened = {}
    for e in entries:
        if e.kind != "transition" or e.txn is None:
            continue
        key = (e.txn, e.node)
        if e.ref == "prepared":
            opened.setdefault(key, e.t)
        elif key in opened:
            residency = e.t - opened.pop(key)
            if residency >= watchdog.in_doubt_threshold:
                out.append(("in_doubt", e.txn, e.node, e.t, residency))
    out += [("in_doubt", txn, node, end_time, end_time - start)
            for (txn, node), start in opened.items()]
    waiting = {}
    for e in entries:
        if e.txn is None or e.ref is None:
            continue
        key = (e.node, e.txn, e.ref)
        if e.kind == "wait":
            waiting.setdefault(key, e.t)
        elif e.kind == "grant" and key in waiting:
            burn = e.t - waiting.pop(key)
            if burn >= watchdog.lock_wait_threshold:
                out.append(("lock_wait", e.txn, e.node, e.t, burn))
    out += [("lock_wait", txn, node, end_time, end_time - start)
            for (node, txn, _key), start in waiting.items()]
    delivered = {p for e in entries if e.kind == "deliver"
                 for p in e.parents}
    out += [("orphan", e.txn, e.node, e.t, None) for e in entries
            if e.kind == "send" and e.eid not in delivered]
    last = {(e.txn, e.node): e for e in entries
            if e.kind == "transition" and e.txn is not None}
    out += [("orphan", txn, node, end_time, None)
            for (txn, node), e in last.items()
            if e.ref not in SETTLED_STATES]
    hardened = {(e.node, e.lsn) for e in entries if e.kind == "harden"}
    out += [("unacked_force", e.txn, e.node, end_time, None)
            for e in entries if e.kind == "write" and e.forced
            and (e.node, e.lsn) not in hardened]
    return sorted(out, key=lambda row: (row[3], DETECTORS.index(row[0]),
                                        row[2], row[1] or ""))


def as_rows(findings):
    return [(f.detector, f.txn, f.node, f.at,
             f.value if f.detector in ("in_doubt", "lock_wait") else None)
            for f in findings]


def fed_in_pieces(watchdog, entries, sizes, end_time=None):
    scan = watchdog.incremental()
    position = 0
    for size in itertools.cycle(sizes):
        if position >= len(entries):
            break
        scan.feed(entries[position:position + size])
        position += size
    return scan.findings(end_time)


def rows_fed_in_pieces(watchdog, entries, sizes):
    """The admin tick's shape: a row store that grows between ticks,
    each tick folding the rows past its cursor."""
    rows = JournalRows()
    row_of = {}
    scan = watchdog.incremental()
    cursor = 0
    position = 0
    for size in itertools.cycle(sizes):
        if position >= len(entries):
            break
        rows.extend(entries[position:position + size], row_of)
        position += size
        cursor = scan.feed_rows(rows, cursor)
        assert cursor == len(rows)
    return scan.findings()


def assert_incremental_matches(entries):
    watchdog = Watchdog(in_doubt_threshold=0.0, lock_wait_threshold=0.0)
    expected = full_rescan(watchdog, entries)
    whole = watchdog.scan(entries)
    assert as_rows(whole) == expected
    for sizes in ([1], [7], [1, 64, 3]):
        assert as_rows(fed_in_pieces(watchdog, entries, sizes)) == expected
        assert [f.to_dict() for f in rows_fed_in_pieces(
            watchdog, entries, sizes)] == [f.to_dict() for f in whole]
    # Mid-journal: what is open at the cut is reported as open.
    cut = entries[:len(entries) // 2]
    assert as_rows(fed_in_pieces(watchdog, cut, [5])) == \
        full_rescan(watchdog, cut)


class TestIncrementalScan:
    def test_seeded_mutation_journal(self):
        """Deliveries, grants, hardenings and settlements deleted at
        seeded positions leave every detector something open."""
        from repro.sim.randomness import RandomStream
        from tests.test_journal import record_contended_run
        entries, __ = record_contended_run()
        rng = RandomStream(1234)
        mutated = [e for e in entries
                   if not (e.kind in ("deliver", "grant", "harden",
                                      "transition") and rng.chance(0.2))]
        assert len(mutated) < len(entries)
        detectors = {row[0] for row in full_rescan(
            Watchdog(in_doubt_threshold=0.0, lock_wait_threshold=0.0),
            mutated)}
        assert {"in_doubt", "lock_wait", "orphan",
                "unacked_force"} <= detectors
        assert_incremental_matches(mutated)

    @pytest.mark.live
    @pytest.mark.parametrize("site", ["coord-post-decision",
                                      "sub-post-vote"])
    def test_live_torture_journals(self, site):
        """A journal with a kill, a WAL restart and recovery traffic:
        one live PA replay, crashed after the root's COMMITTED or a
        subordinate's PREPARED hardened."""
        from repro.transport.torture import record_live_sites, run_live_site
        node, label = {"coord-post-decision": ("n0", "committed"),
                       "sub-post-vote": ("n1", "prepared")}[site]
        sites, __, __ = record_live_sites("PA")
        crash = next(s for s in sites
                     if s.node == node and s.label == label)
        recorders = []
        run = run_live_site(
            "PA", 17, crash, "post",
            instrument=lambda c: recorders.append(
                JournalRecorder().attach(c)))
        assert run.ok, run.violations
        journal = recorders[0].entries()
        assert journal
        assert_incremental_matches(journal)

    def test_admin_tick_reads_only_the_tail(self, monkeypatch):
        """The admin plane's recurring scan folds the journal's rows
        past the watchdog's cursor and builds no entry objects."""
        from repro.obs.journal import JournalEntry
        from repro.transport.admin import AdminServer
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        recorder = JournalRecorder().attach(cluster)
        admin = AdminServer(cluster,
                            watchdog=Watchdog(in_doubt_threshold=0.0))
        built = []
        init = JournalEntry.__init__

        def counting_init(entry, *args, **kwargs):
            built.append(1)
            init(entry, *args, **kwargs)

        for index in range(3):
            cluster.run_transaction(
                updating_spec("c", ["s"], txn_id=f"tick-{index}"))
            monkeypatch.setattr(JournalEntry, "__init__", counting_init)
            found = admin._scan_now()
            monkeypatch.setattr(JournalEntry, "__init__", init)
            assert not built
            # Each tick stops exactly at the journal's end.
            assert admin.watchdog.cursor == len(recorder)
            assert [f.to_dict() for f in found] == [
                f.to_dict() for f in Watchdog(in_doubt_threshold=0.0).scan(
                    recorder.entries(), end_time=cluster.simulator.now)]
