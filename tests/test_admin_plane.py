"""The admin plane over a live cluster: /metrics, /status, /indoubt,
/resolve, and the graceful drain path.

Everything here drives real sockets, so every test carries the
``live`` marker (skipped on sandboxes without loopback TCP).  The
scenarios mirror the paper's operational story: a partition strands an
in-doubt participant holding locks, the operator inspects it over
HTTP, forces a heuristic outcome through the wire, and the system
detects the damage when the true outcome arrives.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal

import pytest

from repro.core.config import PRESUMED_ABORT
from repro.core.spec import flat_tree
from repro.lrm.operations import write_op
from repro.net.message import MessageType
from repro.obs import JournalRecorder, MetricsRegistry, Watchdog
from repro.obs.journal import ROW
from repro.ops import OperatorConsole
from repro.transport import AdminServer, LiveCluster, ServeControl, serve
from repro.transport.wire import encode_frame, read_frame, spec_to_wire

from tests.test_registry import check_histograms, parse_exposition

pytestmark = pytest.mark.live


async def http_get(address, target, method="GET"):
    """One ``Connection: close`` HTTP request against the admin plane."""
    host, port = address
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"{method} {target} HTTP/1.1\r\n"
                 f"Host: {host}\r\n\r\n".encode("ascii"))
    raw = await asyncio.wait_for(reader.read(-1), 10)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("ascii").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    assert int(headers["content-length"]) == len(body)
    return status, headers, body.decode("utf-8")


def without_times(jsonl: str) -> str:
    return re.sub(r'"t":[^,]*,', '', jsonl)


def updating_spec(txn_id: str):
    spec = flat_tree("c", ["s"], txn_id=txn_id)
    spec.participant("c").ops.append(write_op("ledger", 1))
    spec.participant("s").ops.append(write_op("till", 1))
    return spec


async def start_plane(cluster):
    """The full operations plane on an already-built cluster."""
    registry = MetricsRegistry().attach(cluster)
    recorder = JournalRecorder().attach(cluster)
    admin = AdminServer(cluster, registry=registry, watchdog=Watchdog(),
                        console=OperatorConsole(cluster))
    await cluster.start()
    address = await admin.start()
    return admin, address, registry, recorder


# ----------------------------------------------------------------------
# Serve wiring: the full plane rides along with repro-2pc serve
# ----------------------------------------------------------------------
class TestServeWiring:
    def test_metrics_and_status_after_commit(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"

        async def scenario():
            addresses = {}
            up = asyncio.Event()
            holder = {}

            def ready(cluster, addrs):
                addresses.update(addrs)
                holder["cluster"] = cluster
                up.set()

            control = ServeControl()
            server = asyncio.ensure_future(serve(
                PRESUMED_ABORT, ["c", "s"], ready=ready, control=control,
                journal_path=str(journal_path)))
            await asyncio.wait_for(up.wait(), 10)
            host, port = addresses["c"]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({
                "kind": "begin",
                "spec": spec_to_wire(updating_spec("adm-1"))}))
            outcome = await asyncio.wait_for(read_frame(reader), 10)
            writer.close()

            admin = holder["cluster"].admin_address
            metrics = await http_get(admin, "/metrics")
            status = await http_get(admin, "/status")
            indoubt = await http_get(admin, "/indoubt")
            missing = await http_get(admin, "/nope")
            bad_method = await http_get(admin, "/metrics", method="POST")

            control.request_drain("test")
            await asyncio.wait_for(server, 15)
            return (outcome, metrics, status, indoubt, missing,
                    bad_method)

        outcome, metrics, status, indoubt, missing, bad_method = \
            asyncio.run(scenario())
        assert outcome["outcome"] == "commit"

        code, headers, body = metrics
        assert code == 200
        assert headers["content-type"].startswith(
            "text/plain; version=0.0.4")
        families = parse_exposition(body)
        check_histograms(families)
        sample = families["repro_transactions_total"]["samples"]
        assert sample[("", (("outcome", "commit"),))] == 1

        code, __, body = status
        assert code == 200
        data = json.loads(body)
        assert data["accepting"] is True
        assert data["transactions"]["completed"] == 1
        assert data["transactions"]["outcomes"] == {"commit": 1}
        assert data["transactions"]["in_doubt"] == 0
        assert data["heuristics"] == {"total": 0, "damaged": 0}
        assert set(data["nodes"]) == {"c", "s"}
        assert data["frames"]["sent"] > 0
        assert data["frames"]["received"] > 0

        assert missing[0] == 404
        assert bad_method[0] == 405

        # The `repro-2pc top` dashboard renders this admin state.
        from repro.obs import TopSnapshot, render_top
        snapshot = TopSnapshot.from_admin(data, json.loads(indoubt[2]))
        rendered = render_top(snapshot)
        assert "admin" in rendered
        assert "commit" in rendered
        assert "in-doubt (0)" in rendered

        # The drain flushed the journal with its reason in the header.
        header = json.loads(journal_path.read_text().splitlines()[0])
        assert header["meta"]["drain_reason"] == "test"
        assert header["meta"]["protocol"] == "presumed-abort"

    def test_spilled_journal_drains_byte_identical(self, tmp_path):
        """``serve`` spills the rows each watchdog tick folded to
        ``journal.rows``; the drained JSONL is byte-identical to an
        in-memory recorder's rendering of the same run (apart from the
        clock readings), and the segment is gone afterwards.  A hostile
        frame on the way is counted on ``/status``."""
        segment = tmp_path / "journal.rows"

        async def scenario():
            up = asyncio.get_running_loop().create_future()
            shadow = JournalRecorder()

            def ready(cluster, addrs):
                shadow.attach(cluster)
                up.set_result((cluster, addrs))

            control = ServeControl()
            server = asyncio.ensure_future(serve(
                PRESUMED_ABORT, ["c", "s"], ready=ready, control=control,
                log_dir=str(tmp_path)))
            cluster, addresses = await asyncio.wait_for(up, 10)
            reader, writer = await asyncio.open_connection(*addresses["c"])
            spilled = []
            for batch in range(3):
                for index in range(5):
                    writer.write(encode_frame({
                        "kind": "begin", "spec": spec_to_wire(
                            updating_spec(f"sp-{batch}-{index}"))}))
                    reply = await asyncio.wait_for(read_frame(reader), 10)
                    assert reply["outcome"] == "commit"
                await cluster.wait_quiescent()
                # /status runs a watchdog tick, which spills.
                await http_get(cluster.admin_address, "/status")
                spilled.append(segment.stat().st_size)
            writer.close()
            _r, hostile = await asyncio.open_connection(*addresses["s"])
            hostile.write(b"\x00\x00\x00\x02{]")
            await asyncio.sleep(0.05)
            status = json.loads((await http_get(
                cluster.admin_address, "/status"))[2])
            control.request_drain("test")
            await asyncio.wait_for(server, 15)
            shadow.detach()
            return spilled, status, shadow.to_jsonl(meta={
                "protocol": "presumed-abort", "nodes": ["c", "s"],
                "drain_reason": "test"})

        spilled, status, expected = asyncio.run(scenario())
        assert 0 < spilled[0] < spilled[1] < spilled[2]
        assert spilled[0] % ROW.size == 0           # whole packed rows
        assert status["frames"]["rejected"] == 1
        # Two recorders read the real-time clock one after the other, so
        # only the times differ; everything else is byte-identical.
        assert without_times((tmp_path / "journal.jsonl").read_text()) \
            == without_times(expected)
        assert not segment.exists()

    def test_sigterm_drains_and_flushes(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"

        async def scenario():
            up = asyncio.Event()
            server = asyncio.ensure_future(serve(
                PRESUMED_ABORT, ["c", "s"],
                ready=lambda cluster, addrs: up.set(),
                journal_path=str(journal_path)))
            await asyncio.wait_for(up.wait(), 10)
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(server, 15)

        asyncio.run(scenario())
        header = json.loads(journal_path.read_text().splitlines()[0])
        assert header["meta"]["drain_reason"] == "SIGTERM"


# ----------------------------------------------------------------------
# The operator's in-doubt workflow over HTTP
# ----------------------------------------------------------------------
class TestInDoubtConsole:
    def test_indoubt_resolve_and_damage(self):
        async def scenario():
            # Coordinator decides commit but the COMMIT to the
            # subordinate is swallowed; retries are quick so the true
            # outcome arrives promptly once the line heals.
            config = PRESUMED_ABORT.with_options(ack_timeout=0.2,
                                                 retry_interval=0.2)
            cluster = LiveCluster(config, nodes=["c", "s"])
            admin, address, registry, recorder = await start_plane(cluster)
            cluster.network.set_drop_filter(
                lambda m: m.msg_type is MessageType.COMMIT
                and m.dst == "s")
            try:
                handle = cluster.start_transaction(updating_spec("blk-1"))
                await cluster.wait_quiescent(timeout=10)
                # The coordinator decided (it still awaits the ACK, so
                # the handle completes only after the line heals).
                context = cluster.nodes["c"].ctx("blk-1")
                assert context.state.value == "committing"

                code, __, body = await http_get(address, "/indoubt")
                entries = json.loads(body)
                assert code == 200 and len(entries) == 1
                entry = entries[0]
                assert entry["node"] == "s" and entry["txn"] == "blk-1"
                assert entry["coordinator"] == "c"
                assert entry["phase"] == "prepared"
                assert entry["in_doubt_for"] > 0
                assert "till" in entry["held_keys"]

                # Scoped queries and the continuous watchdog agree.
                code, __, body = await http_get(address, "/indoubt?node=c")
                assert code == 200 and json.loads(body) == []
                code, __, __body = await http_get(address,
                                                  "/indoubt?node=ghost")
                assert code == 404
                code, __, body = await http_get(address, "/status")
                status = json.loads(body)
                assert status["transactions"]["in_doubt"] == 1
                assert status["watchdog"]["findings"]["in_doubt"] >= 1
                families = parse_exposition(
                    (await http_get(address, "/metrics"))[2])
                gauge = families["repro_txns_in_doubt"]["samples"]
                assert gauge[("", (("node", "s"),))] == 1
                wd = families["repro_watchdog_findings"]["samples"]
                assert wd[("", (("detector", "in_doubt"),))] >= 1

                # Bad operator input first...
                code, __, body = await http_get(
                    address, "/resolve?node=s&txn=blk-1&decision=maybe")
                assert code == 400
                code, __, __body = await http_get(
                    address, "/resolve?node=ghost&txn=blk-1&decision=abort")
                assert code == 404
                code, __, __body = await http_get(
                    address, "/resolve?node=s&txn=nope&decision=abort")
                assert code == 409

                # ...then the (wrong) heuristic call: abort at s while
                # the tree committed.
                code, __, body = await http_get(
                    address, "/resolve?node=s&txn=blk-1&decision=abort")
                assert code == 200
                resolved = json.loads(body)
                assert resolved["resolved"]["decision"] == "abort"
                # The heuristic event lands with the force-log write
                # (real I/O here), so wait for it rather than reading
                # the count out of the immediate response.
                await cluster.wait_quiescent(timeout=10)
                assert len(cluster.metrics.heuristics) == 1

                # A second resolve finds nothing in doubt.
                code, __, __body = await http_get(
                    address, "/resolve?node=s&txn=blk-1&decision=abort")
                assert code == 409

                # Heal the line; the retried COMMIT exposes the damage.
                cluster.network.set_drop_filter(None)
                for __attempt in range(100):
                    if cluster.metrics.damaged_heuristics():
                        break
                    await asyncio.sleep(0.05)
                assert cluster.metrics.damaged_heuristics()
                await cluster.wait_quiescent(timeout=10)
                assert handle.committed
                code, __, body = await http_get(address, "/status")
                status = json.loads(body)
                assert status["heuristics"]["total"] == 1
                assert status["heuristics"]["damaged"] == 1
                assert status["transactions"]["in_doubt"] == 0
            finally:
                await admin.stop()
                recorder.detach()
                registry.detach()
                await cluster.stop()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Drain refusal at the transaction port
# ----------------------------------------------------------------------
class TestDrainRefusal:
    def test_begin_refused_while_draining(self):
        async def scenario():
            cluster = LiveCluster(PRESUMED_ABORT, nodes=["c", "s"])
            addresses = await cluster.start()
            cluster.accepting = False
            try:
                host, port = addresses["c"]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame({
                    "kind": "begin",
                    "spec": spec_to_wire(updating_spec("late-1"))}))
                reply = await asyncio.wait_for(read_frame(reader), 10)
                writer.close()
                return reply
            finally:
                await cluster.stop()

        reply = asyncio.run(scenario())
        assert reply["kind"] == "error"
        assert reply["error"] == "draining"

    def test_admin_routes_without_collaborators(self):
        async def scenario():
            cluster = LiveCluster(PRESUMED_ABORT, nodes=["c"])
            await cluster.start()
            admin = AdminServer(cluster)     # no registry/console
            address = await admin.start()
            try:
                metrics = await http_get(address, "/metrics")
                indoubt = await http_get(address, "/indoubt")
                status = await http_get(address, "/status")
                return metrics, indoubt, status
            finally:
                await admin.stop()
                await cluster.stop()

        metrics, indoubt, status = asyncio.run(scenario())
        assert metrics[0] == 503
        assert indoubt[0] == 503
        assert status[0] == 200      # status degrades gracefully
