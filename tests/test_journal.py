"""Flight-recorder journal, causal edges, divergence differ, watchdogs.

The journal is the oracle plane for the deployment twin: it must (a)
record every flow / log write / force / lock event with correct causal
parents, (b) serialise losslessly, (c) diff *empty* on every pair the
repo guarantees identical — record vs replay, wheel vs heap scheduler,
serial vs parallel shards, artifact replays — and (d) localize a
seeded single-event mutation to the exact first divergent event.
Attach/detach symmetry across all stacked obs components is the
regression the hook-install contract demands.
"""

import itertools
import json

import pytest

from repro.cli import main as cli_main
from repro.core.cluster import Cluster
from repro.core.config import BASIC_2PC, PRESUMED_ABORT
from repro.obs import (
    CostLedger,
    JournalEntry,
    JournalRecorder,
    JournalRows,
    SpanTracer,
    RunReport,
    Watchdog,
    diff_journals,
    journal_from_jsonl,
    journal_to_jsonl,
    normalize_txn_ids,
    prometheus_text,
    record_workload_journal,
    run_journal_self_check,
)
from repro.obs.journal import ROW
from repro.parallel.pool import RunSpec, run_specs
from repro.sim.events import WheelEventQueue
from repro.sim.kernel import Simulator
from tests.heap_queue import HeapEventQueue
from tests.conftest import updating_spec


def happens_before(by_eid, earlier, later):
    """Is entry ``earlier`` a causal ancestor of entry ``later``?"""
    stack, seen = [later], set()
    while stack:
        for parent in by_eid[stack.pop()].parents:
            if parent == earlier:
                return True
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return False


@pytest.fixture
def default_queue():
    """Restore ``Simulator.default_queue_class`` after each test."""
    saved = Simulator.default_queue_class
    yield
    Simulator.default_queue_class = saved


def record_simple_run(txns=2):
    """Journal ``txns`` 3-node PA commits; returns (entries, cluster)."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
    recorder = JournalRecorder().attach(cluster)
    for i in range(txns):
        cluster.run_transaction(
            updating_spec("c", ["s1", "s2"], txn_id=f"T{i}"))
    recorder.detach()
    return recorder.entries(), cluster


def contended_recorder():
    """Two transactions racing for one key: exercises wait->grant.
    Returns (recorder, outcomes)."""
    cluster = Cluster(BASIC_2PC, nodes=["c", "s"])
    recorder = JournalRecorder().attach(cluster)
    from repro.core.spec import flat_tree
    from repro.lrm.operations import write_op
    handles = []
    for i in range(2):
        spec = flat_tree("c", ["s"], txn_id=f"race-{i}")
        for participant in spec.participants:
            participant.ops.append(write_op("shared-key", i))
        handles.append(cluster.start_transaction(spec))
    cluster.run()
    recorder.detach()
    return recorder, [h.outcome for h in handles]


def record_contended_run():
    """The contended run's (entries, outcomes)."""
    recorder, outcomes = contended_recorder()
    return recorder.entries(), outcomes


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
class TestJournalRecorder:
    def test_entries_have_dense_stable_ids(self):
        entries, __ = record_simple_run()
        assert [e.eid for e in entries] == list(range(len(entries)))
        times = [e.t for e in entries]
        assert times == sorted(times)

    def test_all_event_kinds_recorded(self):
        entries, cluster = record_simple_run()
        kinds = {e.kind for e in entries}
        assert {"transition", "send", "deliver", "write", "harden",
                "grant", "release"} <= kinds
        sends = [e for e in entries if e.kind == "send"]
        assert len(sends) == cluster.network.sent

    def test_deliver_links_to_its_send(self):
        entries, __ = record_simple_run()
        by_eid = {e.eid: e for e in entries}
        delivers = [e for e in entries if e.kind == "deliver"]
        assert delivers
        for deliver in delivers:
            # One parent is the matching send (cross edge); the other,
            # if any, is the site's program-order predecessor.
            matches = [by_eid[p] for p in deliver.parents
                       if by_eid[p].kind == "send"
                       and by_eid[p].node == deliver.peer]
            assert len(matches) == 1
            send = matches[0]
            assert send.ref == deliver.ref
            assert send.peer == deliver.node

    def test_harden_links_to_its_write(self):
        entries, __ = record_simple_run()
        by_eid = {e.eid: e for e in entries}
        hardens = [e for e in entries if e.kind == "harden"]
        assert hardens
        for harden in hardens:
            matches = [by_eid[p] for p in harden.parents
                       if by_eid[p].kind == "write"
                       and by_eid[p].lsn == harden.lsn]
            assert len(matches) == 1
            assert matches[0].node == harden.node

    def test_release_links_to_grant(self):
        entries, __ = record_simple_run()
        by_eid = {e.eid: e for e in entries}
        releases = [e for e in entries if e.kind == "release"]
        assert releases
        for release in releases:
            grants = [by_eid[p] for p in release.parents
                      if by_eid[p].kind == "grant"]
            assert len(grants) == 1
            assert grants[0].ref == release.ref
            assert grants[0].txn == release.txn

    def test_wait_to_grant_edge_under_contention(self):
        entries, outcomes = record_contended_run()
        assert outcomes == ["commit", "commit"]
        by_eid = {e.eid: e for e in entries}
        waits = [e for e in entries if e.kind == "wait"]
        assert waits, "contended run must park a lock request"
        for wait in waits:
            grant = next(e for e in entries if e.kind == "grant"
                         and e.node == wait.node and e.txn == wait.txn
                         and e.ref == wait.ref and e.eid > wait.eid)
            assert wait.eid in grant.parents
            # The loser's grant causally follows the winner's release.
            releases = [e.eid for e in entries if e.kind == "release"
                        and e.ref == wait.ref and e.txn != wait.txn]
            assert any(happens_before(by_eid, r, grant.eid)
                       for r in releases)
        assert by_eid  # silence unused warning on small runs

    def test_parent_child_txn_edge_at_enrollment(self):
        entries, __ = record_simple_run(txns=1)
        by_eid = {e.eid: e for e in entries}
        # The subordinate's context-creation transition must link back
        # to the coordinator's side of the same transaction.
        creation = next(e for e in entries if e.kind == "transition"
                        and e.node == "s1" and e.peer is None)
        cross = [by_eid[p] for p in creation.parents
                 if by_eid[p].node == "c"]
        assert cross and all(p.txn == creation.txn for p in cross)

    def test_phase_stamped_from_protocol_state(self):
        entries, __ = record_simple_run(txns=1)
        prepare_sends = [e for e in entries if e.kind == "send"
                         and e.ref == "prepare"]
        assert prepare_sends
        # The coordinator is preparing when PREPAREs leave it.
        assert all(e.phase == "preparing" for e in prepare_sends)
        forced_commit_writes = [e for e in entries if e.kind == "write"
                                and e.ref == "commit" and e.forced]
        assert all(e.phase in ("committing", "preparing")
                   for e in forced_commit_writes)

    def test_attach_contract(self):
        first = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        second = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        recorder = JournalRecorder().attach(first)
        assert recorder.attach(first) is recorder
        with pytest.raises(RuntimeError):
            recorder.attach(second)
        recorder.detach()
        recorder.detach()  # idempotent
        assert not recorder.attached

    def test_detach_stops_recording(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        recorder = JournalRecorder().attach(cluster)
        cluster.run_transaction(updating_spec("c", ["s"], txn_id="J1"))
        recorded = len(recorder)
        recorder.detach()
        cluster.run_transaction(updating_spec("c", ["s"], txn_id="J2"))
        assert len(recorder) == recorded

    def test_kernel_events_opt_in(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        recorder = JournalRecorder(kernel_events=True).attach(cluster)
        cluster.run_transaction(updating_spec("c", ["s"], txn_id="K1"))
        recorder.detach()
        kinds = {e.kind for e in recorder.entries()}
        assert "kernel" in kinds
        assert not cluster.simulator._event_hooks


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
class TestJournalSerialisation:
    def test_jsonl_round_trip(self):
        entries, __ = record_simple_run()
        text = journal_to_jsonl(entries, meta={"workload": "test"})
        meta, back = journal_from_jsonl(text)
        assert meta == {"workload": "test"}
        assert back == entries

    def test_unsupported_schema_rejected(self):
        text = json.dumps({"schema": "repro-journal/999", "meta": {}})
        with pytest.raises(ValueError, match="repro-journal/999"):
            journal_from_jsonl(text)

    def test_malformed_line_named(self):
        entries, __ = record_simple_run(txns=1)
        text = journal_to_jsonl(entries)
        broken = text.splitlines()
        broken[3] = "{not json"
        with pytest.raises(ValueError, match="line 4"):
            journal_from_jsonl("\n".join(broken))

    def test_missing_field_named(self):
        header = json.dumps({"schema": "repro-journal/1", "meta": {}})
        entry = json.dumps({"eid": 0, "t": 0.0, "kind": "send"})
        with pytest.raises(ValueError, match="line 2.*node"):
            journal_from_jsonl(header + "\n" + entry)

    def test_empty_journal_rejected(self):
        with pytest.raises(ValueError, match="schema header"):
            journal_from_jsonl("")

    def test_normalize_txn_ids_by_first_appearance(self):
        entries = [
            JournalEntry(0, 0.0, "send", "a", "txn-99", "active"),
            JournalEntry(1, 1.0, "send", "a", "txn-42", "active"),
            JournalEntry(2, 2.0, "send", "a", "txn-99", "active"),
            JournalEntry(3, 3.0, "kernel", "a", None, None),
        ]
        normalized = normalize_txn_ids(entries)
        assert [e.txn for e in normalized] == ["t0", "t1", "t0", None]
        # Input untouched.
        assert entries[0].txn == "txn-99"


# ----------------------------------------------------------------------
# Row store: rendered straight from the rows
# ----------------------------------------------------------------------
def assert_rows_render_identically(recorder, meta=None):
    """The row renderer is byte-identical to ``journal_to_jsonl`` over
    the materialised entries, and those round-trip through the
    reader."""
    text = recorder.to_jsonl(meta=meta)
    entries = recorder.entries()
    assert text == journal_to_jsonl(entries, meta=meta)
    __, back = journal_from_jsonl(text)
    assert back == entries
    assert [recorder[0], recorder[-1]] == [entries[0], entries[-1]]


def record_cell(protocol, variant, seed=13, txns=6):
    """A generated workload under one audit cell's configuration."""
    from repro.obs.audit import cell_config
    from repro.sim.randomness import RandomStream
    from repro.workload.generator import WorkloadGenerator, WorkloadParams
    names = ["n0", "n1", "n2"]
    cluster = Cluster(cell_config(protocol, variant), nodes=names,
                      seed=seed)
    recorder = JournalRecorder().attach(cluster)
    generator = WorkloadGenerator(
        names, WorkloadParams(read_only_fraction=0.3, key_space=4),
        RandomStream(seed))
    for spec in generator.stream(txns):
        cluster.run_transaction(spec)
    recorder.detach()
    return recorder


class TestJournalRows:
    @pytest.mark.parametrize("variant", ["baseline", "read_only",
                                         "last_agent", "group_commit"])
    @pytest.mark.parametrize("protocol", ["basic", "pa", "pn", "pc"])
    def test_renders_identically(self, protocol, variant):
        recorder = record_cell(protocol, variant)
        assert len(recorder) > 0
        assert_rows_render_identically(
            recorder, meta={"protocol": protocol, "variant": variant})

    def test_contended_run_renders_identically(self):
        recorder, outcomes = contended_recorder()
        assert outcomes == ["commit", "commit"]
        assert any(e.kind == "wait" for e in recorder.entries())
        assert_rows_render_identically(recorder)

    def test_kernel_events_render_identically(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        recorder = JournalRecorder(kernel_events=True).attach(cluster)
        cluster.run_transaction(updating_spec("c", ["s"], txn_id="K1"))
        recorder.detach()
        assert any(e.kind == "kernel" for e in recorder.entries())
        assert_rows_render_identically(recorder)

    def test_integer_fault_times_journal_as_floats(self):
        """Faults scheduled at integer times put an int on the
        simulator clock; the store keeps ``t`` as a double, so those
        entries read and render as floats (``5.0``, never ``5``) on
        every path."""
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
        recorder = JournalRecorder().attach(cluster)
        cluster.crash_at("s1", 5)
        cluster.restart_at("s1", 40)
        cluster.start_transaction(
            updating_spec("c", ["s1", "s2"], txn_id="crash-1"))
        cluster.run_until(400)
        recorder.detach()
        entries = recorder.entries()
        assert all(type(e.t) is float for e in entries)
        restarted = [e for e in entries if e.t == 40]
        assert restarted and all(e.node == "s1" for e in restarted)
        assert '"t":40.0,' in recorder.to_jsonl()
        assert_rows_render_identically(recorder)

    @pytest.mark.live
    def test_live_twin_journal_renders_identically(self, tmp_path):
        import asyncio
        from repro.transport import LiveCluster
        from repro.transport.twin import twin_specs

        async def scenario():
            nodes = ["n0", "n1", "n2"]
            cluster = LiveCluster(PRESUMED_ABORT.with_options(io_latency=0.0),
                                  nodes=nodes, seed=11,
                                  log_dir=str(tmp_path))
            recorder = JournalRecorder().attach(cluster)
            await cluster.start()
            try:
                for spec in twin_specs(11, 4, nodes):
                    await cluster.run_transaction(spec)
            finally:
                await cluster.stop()
            recorder.detach()
            return recorder

        recorder = asyncio.run(scenario())
        assert any(e.kind == "harden" for e in recorder.entries())
        assert_rows_render_identically(recorder, meta={"live": True})

    def test_spilled_store_reads_as_one_journal(self, tmp_path):
        """Rows spilled to the segment file and the in-memory tail read
        as one journal: same length, entries, rows across the cut and
        byte-identical JSONL as a recorder that never spilled, with
        eids and parents continuing past every cut."""
        segment = tmp_path / "journal.rows"
        cluster = Cluster(PRESUMED_ABORT, nodes=["n0", "n1", "n2"], seed=5)
        spilling = JournalRecorder(segment=str(segment)).attach(cluster)
        whole = JournalRecorder().attach(cluster)
        for index in range(12):
            cluster.run_transaction(
                updating_spec("n0", ["n1", "n2"], txn_id=f"sp{index}"))
            if index % 4 == 1:
                spilling.rows.spill(len(spilling) - 3)
        spilling.detach()
        whole.detach()
        rows = spilling.rows
        assert 0 < rows.base < len(rows) == len(whole)
        assert segment.stat().st_size == rows.base * ROW.size
        assert len(rows.buf) < len(whole.rows.buf)
        meta = {"spilled": True}
        assert spilling.to_jsonl(meta) == whole.to_jsonl(meta)
        assert "".join(rows.render(meta, chunk=7)) == whole.to_jsonl(meta)
        assert spilling.entries() == whole.entries()
        cut = rows.base
        for start, stop in ((0, 5), (cut - 2, cut + 2), (cut, None),
                            (cut + 1, cut + 1)):
            assert list(rows.rows(start, stop)) == \
                list(whole.rows.rows(start, stop))
        assert spilling.entries(cut - 1) == whole.entries(cut - 1)
        assert spilling[0] == whole[0] and spilling[-1] == whole[-1]
        rows.spill(cut - 1)                      # behind the cut: no-op
        assert rows.base == cut

    def test_recorder_without_segment_never_spills(self):
        recorder = record_cell("pa", "baseline")
        before = len(recorder.rows.buf)
        recorder.rows.spill(len(recorder))
        assert (recorder.rows.base, len(recorder.rows.buf)) == (0, before)

    @pytest.mark.parametrize("window", [4, 256])
    def test_forget_window_bounds_the_maps_and_keeps_bytes(
            self, window, monkeypatch):
        """The recorder forgets a terminal (txn, node) pair
        ``FORGET_WINDOW`` terminal pairs later, once its writes have
        hardened, so its maps stay bounded; the journal is
        byte-identical to one recorded with every pair kept."""
        from repro.obs import journal
        from repro.verify.retention import steady_specs

        def record():
            names = ["n0", "n1", "n2"]
            cluster = Cluster(PRESUMED_ABORT, nodes=names, seed=3)
            recorder = JournalRecorder().attach(cluster)
            tap = recorder.tap          # the maps live on the tap
            for spec in steady_specs(names, 400, seed=3):
                cluster.run_transaction(spec)
            recorder.detach()
            return recorder, tap

        monkeypatch.setattr(journal, "FORGET_WINDOW", 10 ** 9)
        kept, kept_tap = record()
        monkeypatch.setattr(journal, "FORGET_WINDOW", window)
        trimmed, trimmed_tap = record()
        assert len(kept_tap._states) > 1000
        # The window, plus pairs whose END record waits for a force.
        held = window + len(trimmed_tap._unhardened)
        assert len(trimmed_tap._states) <= held
        assert len(trimmed_tap._last_txn_site) <= held
        assert trimmed.to_jsonl() == kept.to_jsonl()

    def test_packing_translates_and_drops_parents(self):
        """Packing entry objects renumbers them by row and keeps only
        the parents that are still in the journal."""
        entries, __ = record_simple_run(txns=1)
        kept = [e for e in entries if e.kind != "send"]
        rows = JournalRows()
        rows.extend(kept, {})
        row_of = {e.eid: row for row, e in enumerate(kept)}
        for entry, packed in zip(kept, rows.entries()):
            assert packed.signature() == entry.signature()
            assert packed.parents == tuple(
                row_of[p] for p in entry.parents if p in row_of)
        crowded = [JournalEntry(i, 0.0, "send", "a", None, None)
                   for i in range(3)]
        crowded.append(JournalEntry(3, 1.0, "deliver", "b", None, None,
                                    parents=[0, 1, 2]))
        with pytest.raises(ValueError, match="3 parents"):
            JournalRows().extend(crowded, {})


# ----------------------------------------------------------------------
# Divergence differ
# ----------------------------------------------------------------------
def _journal_text_for_seed(seed):
    """Module-level worker entry (picklable by reference)."""
    return journal_to_jsonl(
        record_workload_journal(PRESUMED_ABORT, seed=seed, txns=3))


class TestDiff:
    def test_record_replay_empty_for_all_protocols(self):
        results = run_journal_self_check(seed=13, txns=4)
        assert set(results) == {"basic", "presumed_abort",
                                "presumed_nothing", "presumed_commit"}
        for protocol, divergence in results.items():
            assert divergence is None, (
                f"{protocol}: {divergence.describe()}")

    def test_wheel_vs_heap_journals_equivalent(self, default_queue):
        Simulator.default_queue_class = WheelEventQueue
        wheel = record_workload_journal(PRESUMED_ABORT, seed=9, txns=5)
        Simulator.default_queue_class = HeapEventQueue
        heap = record_workload_journal(PRESUMED_ABORT, seed=9, txns=5)
        assert diff_journals(wheel, heap) is None

    def test_serial_vs_parallel_journals_equivalent(self):
        specs = [RunSpec(label=f"journal-{seed}",
                         fn=_journal_text_for_seed,
                         kwargs={"seed": seed}) for seed in (5, 6)]
        serial = run_specs(specs, workers=1)
        parallel = run_specs(specs, workers=2)
        for text_a, text_b in zip(serial, parallel):
            __, a = journal_from_jsonl(text_a)
            __, b = journal_from_jsonl(text_b)
            assert diff_journals(a, b) is None

    def test_global_interleaving_is_permitted(self):
        entries, __ = record_simple_run()
        # Stable sort by site preserves per-site order but scrambles
        # the global interleaving completely.
        reordered = sorted(entries, key=lambda e: e.node)
        assert diff_journals(entries, reordered) is None

    def test_single_event_mutation_localized(self):
        entries, __ = record_simple_run()
        mutated = list(entries)
        victim_index = next(
            i for i, e in enumerate(entries)
            if e.kind == "write" and e.forced and e.eid > 20)
        victim = entries[victim_index]
        clone = JournalEntry.from_dict(victim.to_dict())
        clone.forced = False
        mutated[victim_index] = clone
        divergence = diff_journals(entries, mutated)
        assert divergence is not None
        assert divergence.site == victim.node
        assert divergence.expected.eid == victim.eid
        assert divergence.observed.forced is False
        text = divergence.describe()
        assert victim.node in text and "expected" in text

    def test_earliest_divergence_wins(self):
        entries, __ = record_simple_run()
        mutated = [JournalEntry.from_dict(e.to_dict()) for e in entries]
        writes = [i for i, e in enumerate(entries) if e.kind == "write"]
        early, late = writes[1], writes[-1]
        mutated[early].ref = "mutated-early"
        mutated[late].ref = "mutated-late"
        divergence = diff_journals(entries, mutated)
        assert divergence.expected.eid == entries[early].eid

    def test_truncated_journal_ends_early(self):
        entries, __ = record_simple_run()
        divergence = diff_journals(entries, entries[:len(entries) // 2])
        assert divergence is not None
        assert "ends early" in divergence.reason

    def test_cross_edge_mispairing_detected(self):
        def pair(wiring):
            sends = [JournalEntry(0, 1.0, "send", "a", "t0", "active",
                                  ref="PREPARE", peer="b"),
                     JournalEntry(1, 1.0, "send", "a", "t0", "active",
                                  ref="PREPARE", peer="b")]
            delivers = [JournalEntry(2, 2.0, "deliver", "b", "t0",
                                     "active", ref="PREPARE", peer="a",
                                     parents=[wiring[0]]),
                        JournalEntry(3, 2.0, "deliver", "b", "t0",
                                     "active", ref="PREPARE", peer="a",
                                     parents=[wiring[1]])]
            return sends + delivers

        straight = pair((0, 1))
        crossed = pair((1, 0))
        assert diff_journals(straight, straight) is None
        divergence = diff_journals(straight, crossed)
        assert divergence is not None
        assert "causal parents" in divergence.reason

    def test_ignore_time_compares_structure_only(self):
        entries, __ = record_simple_run(txns=1)
        shifted = []
        for e in entries:
            clone = JournalEntry.from_dict(e.to_dict())
            clone.t = e.t + 100.0
            shifted.append(clone)
        assert diff_journals(entries, shifted) is not None
        assert diff_journals(entries, shifted, ignore_time=True) is None


# ----------------------------------------------------------------------
# Artifact replays journal identically
# ----------------------------------------------------------------------
class TestArtifactReplayJournals:
    def _instrumented(self, run_fn):
        recorder = JournalRecorder()
        result = run_fn(recorder.attach)
        recorder.detach()
        return normalize_txn_ids(recorder.entries()), result

    def test_chaos_schedule_replay_journals_equivalent(self):
        from repro.chaos.campaign import run_chaos_schedule
        schedule = [{"kind": "duplicate", "nth": 0, "copies": 2,
                     "gap": 1.0}]

        def run(instrument):
            return run_chaos_schedule("PA", "baseline", 12345, schedule,
                                      instrument=instrument)

        first, run_a = self._instrumented(run)
        second, run_b = self._instrumented(run)
        assert run_a.verdict == run_b.verdict
        assert first, "chaos replay journaled nothing"
        assert diff_journals(first, second) is None

    def test_torture_site_replay_journals_equivalent(self):
        from repro.torture.harness import record_sites, run_site
        sites, violations, __ = record_sites("PA", "baseline", 0)
        assert not violations
        site = sites[0]

        def run(instrument):
            return run_site("PA", "baseline", 0, site, "post",
                            instrument=instrument)

        first, run_a = self._instrumented(run)
        second, run_b = self._instrumented(run)
        assert run_a.verdict == run_b.verdict
        assert first, "torture replay journaled nothing"
        assert diff_journals(first, second) is None


# ----------------------------------------------------------------------
# Watchdogs
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_clean_run_is_quiet(self):
        entries, __ = record_simple_run()
        assert Watchdog().scan(entries) == []

    def test_zero_threshold_flags_every_in_doubt_window(self):
        entries, __ = record_simple_run(txns=1)
        findings = Watchdog(in_doubt_threshold=0.0).scan(entries)
        in_doubt = [f for f in findings if f.detector == "in_doubt"]
        # Both subordinates pass through PREPARED on the commit path.
        assert {f.node for f in in_doubt} == {"s1", "s2"}
        assert all(f.value is not None and f.value >= 0
                   for f in in_doubt)

    def test_zero_threshold_flags_lock_wait_burn(self):
        entries, __ = record_contended_run()
        findings = Watchdog(lock_wait_threshold=0.0).scan(entries)
        burns = [f for f in findings if f.detector == "lock_wait"]
        assert burns
        assert all("shared-key" in f.message for f in burns)

    def test_truncated_journal_surfaces_open_work(self):
        entries, __ = record_simple_run(txns=1)
        cut = next(i for i, e in enumerate(entries)
                   if e.kind == "write" and e.forced) + 1
        findings = Watchdog().scan(entries[:cut])
        detectors = {f.detector for f in findings}
        assert "unacked_force" in detectors
        assert "orphan" in detectors

    def test_live_attachment_matches_offline_scan(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
        watchdog = Watchdog(in_doubt_threshold=0.0).attach(cluster)
        cluster.run_transaction(
            updating_spec("c", ["s1", "s2"], txn_id="W1"))
        live = watchdog.findings()
        offline = Watchdog(in_doubt_threshold=0.0).scan(
            watchdog.entries())
        watchdog.detach()
        assert [f.to_dict() for f in live] == \
            [f.to_dict() for f in offline]
        assert live  # zero threshold fires on the prepared windows

    def test_run_report_surfaces_findings(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        watchdog = Watchdog(in_doubt_threshold=0.0).attach(cluster)
        cluster.run_transaction(updating_spec("c", ["s"], txn_id="R1"))
        report = RunReport.from_run(cluster, watchdog=watchdog)
        watchdog.detach()
        assert report.counters["watchdog findings"] >= 1
        assert any("watchdog [in_doubt]" in note for note in report.notes)

    def test_prometheus_exposition_format(self):
        entries, __ = record_simple_run(txns=1)
        findings = Watchdog(in_doubt_threshold=0.0).scan(entries)
        text = prometheus_text(entries, findings)
        assert "# TYPE repro_journal_entries_total counter" in text
        assert 'repro_journal_entries_total{kind="send"}' in text
        for detector in ("in_doubt", "lock_wait", "orphan",
                         "unacked_force"):
            assert (f'repro_watchdog_findings_total'
                    f'{{detector="{detector}"}}') in text
        assert f'{{detector="in_doubt"}} {len(findings)}' in text
        assert "# TYPE repro_journal_last_time gauge" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestJournalCLI:
    def test_journal_records_to_file(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        status = cli_main(["journal", "default", "--out", str(out),
                           "--watchdog", "--prom"])
        assert status == 0
        printed = capsys.readouterr().out
        assert "watchdog: no findings" in printed
        assert "repro_journal_entries_total" in printed
        meta, entries = journal_from_jsonl(out.read_text())
        assert meta["workload"] == "default"
        assert entries

    def test_journal_protocol_workload_to_stdout(self, capsys):
        status = cli_main(["journal", "presumed_commit", "--txns", "2"])
        assert status == 0
        out = capsys.readouterr().out
        __, entries = journal_from_jsonl(out)
        assert entries

    def test_journal_unknown_workload(self, capsys):
        assert cli_main(["journal", "no-such-workload"]) == 2

    def test_diff_equivalent_and_mutated(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert cli_main(["journal", "presumed_abort", "--txns", "3",
                         "--out", str(a)]) == 0
        assert cli_main(["journal", "presumed_abort", "--txns", "3",
                         "--out", str(b)]) == 0
        assert cli_main(["diff", str(a), str(b)]) == 0
        assert "journals equivalent" in capsys.readouterr().out

        lines = b.read_text().splitlines()
        for index, line in enumerate(lines[1:], start=1):
            data = json.loads(line)
            if data["kind"] == "write" and data["forced"]:
                data["forced"] = False
                lines[index] = json.dumps(data)
                mutated_eid = data["eid"]
                break
        b.write_text("\n".join(lines) + "\n")
        assert cli_main(["diff", str(a), str(b)]) == 1
        text = capsys.readouterr().out
        assert "first divergence" in text

        assert cli_main(["diff", str(a), str(b), "--json"]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["equivalent"] is False
        assert verdict["divergence"]["expected"]["eid"] == mutated_eid

    def test_diff_unreadable_input(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        a.write_text("{not a journal")
        assert cli_main(["diff", str(a), str(a)]) == 2
        assert cli_main(["diff", str(tmp_path / "missing.jsonl"),
                         str(a)]) == 2


# ----------------------------------------------------------------------
# Attach/detach symmetry across stacked obs components
# ----------------------------------------------------------------------
def _hook_state(cluster):
    """Every hook list in the cluster, as (label, contents) pairs."""
    state = {}
    network = cluster.network
    for name in ("on_send", "on_transmit", "on_deliver", "on_handled"):
        state[f"network.{name}"] = list(getattr(network, name))
    for node_name, node in cluster.nodes.items():
        state[f"{node_name}.on_transition"] = list(node.on_transition)
        for index, log in enumerate(node.logs()):
            state[f"{node_name}.log{index}.on_write"] = list(log.on_write)
            state[f"{node_name}.log{index}.on_flush"] = list(log.on_flush)
        for index, rm in enumerate(node.all_rms()):
            locks = rm.locks
            state[f"{node_name}.locks{index}.on_grant"] = \
                list(locks.on_grant)
            state[f"{node_name}.locks{index}.on_release"] = \
                list(locks.on_release)
            state[f"{node_name}.locks{index}.on_wait"] = \
                list(locks.on_wait)
    state["simulator.event_hooks"] = list(cluster.simulator._event_hooks)
    return state


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_attach_detach_symmetry_any_order(order):
    """SpanTracer + CostLedger + JournalRecorder detached in any order
    must restore the exact pre-attach hook chains — including hooks
    installed by someone else before them."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])

    def sentinel(*args, **kwargs):
        pass

    cluster.network.on_deliver.append(sentinel)
    cluster.nodes["c"].on_transition.append(sentinel)
    before = _hook_state(cluster)

    instruments = [SpanTracer(), CostLedger(), JournalRecorder()]
    for instrument in instruments:
        instrument.attach(cluster)
    cluster.run_transaction(
        updating_spec("c", ["s1", "s2"], txn_id=f"sym-{order}"))
    assert _hook_state(cluster) != before  # hooks actually installed

    for index in order:
        instruments[index].detach()
    after = _hook_state(cluster)
    assert after == before
    # The foreign sentinel survived the stack's detach.
    assert sentinel in cluster.network.on_deliver
