"""Flight-recorder journal: the canonical record of one run's schedule.

The simulator is deterministic, so *everything the paper's cost model
counts* — message flows, log writes, forced writes, lock holds — can
be captured as an append-only, causally-ordered event journal and
replayed as an oracle: two runs that are supposed to be equivalent
(wheel vs heap scheduler, serial vs parallel sweep shards, a live
transport vs its simulated twin) must produce journals that the
:mod:`repro.obs.diff` differ finds equivalent, and any divergence is
localized to the first causally-divergent event.

One journal entry is emitted per observable action, with a **stable
id** (``eid``, dense emission order) and **causal parent ids**:

==========  =========================================================
kind        meaning / causal parents
==========  =========================================================
transition  commit-context state change; parents: previous entry at
            this node, plus — at context creation on a cascaded /
            subordinate node — the latest entry of the same txn at
            the parent node (the parent/child txn edge)
send        a flow left ``src``; parent: previous entry at ``src``
deliver     the flow reached ``dst``; parents: its ``send`` entry
            (message edge) and the previous entry at ``dst``
write       a log record was appended; ``forced`` marks force
            requests
harden      the record reached stable storage; parents: its ``write``
            entry (force->ack edge) and the previous entry at the log
wait        a lock request parked in the wait queue
grant       a lock was granted; parent: its ``wait`` entry if any
release     strict-2PL release; parent: its ``grant`` entry
kernel      (opt-in) a simulator event dispatch
==========  =========================================================

Every entry also carries the protocol phase the (txn, node) pair was
in when the action happened, so divergence reports can say *where in
the protocol* two runs forked.

Storage is :class:`JournalRows`, one fixed-width packed row per entry
(an entry has at most two parents: its site predecessor and one cross
edge); the JSONL renderer and the watchdog read the rows directly, and
:class:`JournalEntry` objects are built only on request.
Serialisation is schema-versioned JSONL: a header line naming
:data:`SCHEMA`, then one entry per line.
"""

from __future__ import annotations

import json
import struct
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Journal wire-format version; bumped on any incompatible change.
SCHEMA = "repro-journal/1"

#: Phase stamped on entries hitting a (txn, node) pair before any
#: commit context exists there (mirrors repro.obs.ledger.IDLE_PHASE).
IDLE_PHASE = "idle"

#: (txn, node) protocol states that count as settled for orphan
#: detection — anything else at journal end is an abandoned span.
SETTLED_STATES = frozenset({
    "committed", "aborted", "forgotten", "read-only-done",
    "heuristic-committed", "heuristic-aborted",
})

#: Entry kinds.  Every store interns them first, so a kind's id is its
#: index here in every store and folds compare ids, not strings.
KINDS = ("transition", "send", "deliver", "write", "harden", "wait",
         "grant", "release", "kernel")
(TRANSITION, SEND, DELIVER, WRITE, HARDEN, WAIT, GRANT, RELEASE,
 KERNEL) = range(len(KINDS))

#: One entry: ``t``; kind, node, txn, phase, ref and peer string ids
#: (-1 = None); ``lsn`` (-1 = None); ``forced`` (-1 None, 0, 1); two
#: parent eids (-1 = empty slot, filled first slot first).
ROW = struct.Struct("<d6iqbqq")

#: A rendered entry: ``journal_to_jsonl``'s sorted-key compact line.
_LINE = ('{"eid":%d,"forced":%s,"kind":%s,"lsn":%s,"node":%s,'
         '"parents":[%s],"peer":%s,"phase":%s,"ref":%s,"t":%r,"txn":%s}')


class JournalEntry:
    """One observable action: stable id, causal parents, location.

    ``ref``/``peer`` are the kind-specific payload: message type and
    destination for ``send``, record type for ``write``/``harden``
    (with ``lsn``/``forced``), lock key and mode for ``wait``/
    ``grant``/``release``, new and old state for ``transition``.
    """

    __slots__ = ("eid", "t", "kind", "node", "txn", "phase", "ref",
                 "peer", "lsn", "forced", "parents")

    def __init__(self, eid: int, t: float, kind: str, node: str,
                 txn: Optional[str], phase: Optional[str],
                 ref: Optional[str] = None, peer: Optional[str] = None,
                 lsn: Optional[int] = None, forced: Optional[bool] = None,
                 parents: Sequence[int] = ()) -> None:
        self.eid = eid
        self.t = t
        self.kind = kind
        self.node = node
        self.txn = txn
        self.phase = phase
        self.ref = ref
        self.peer = peer
        self.lsn = lsn
        self.forced = forced
        self.parents = tuple(parents)

    # ------------------------------------------------------------------
    def signature(self, with_time: bool = True) -> Tuple:
        """What the differ compares: everything but ids and parents."""
        base = (self.kind, self.node, self.txn, self.phase, self.ref,
                self.peer, self.lsn, self.forced)
        return base + (self.t,) if with_time else base

    def describe(self) -> str:
        """One-line human rendering used in diff and watchdog output."""
        parts = [self.kind]
        if self.ref is not None:
            parts.append(self.ref)
        body = ":".join(parts)
        where = f"@{self.node}"
        if self.kind == "send" and self.peer is not None:
            where = f"{self.node}->{self.peer}"
        elif self.kind == "deliver" and self.peer is not None:
            where = f"{self.peer}->{self.node}"
        elif self.peer is not None:
            body += f"({self.peer})"
        extras = []
        if self.lsn is not None:
            extras.append(f"lsn={self.lsn}")
        if self.forced:
            extras.append("forced")
        if self.txn is not None:
            extras.append(f"txn={self.txn}")
        if self.phase is not None:
            extras.append(f"phase={self.phase}")
        extras.append(f"t={self.t:g}")
        return f"{body} {where} [{', '.join(extras)}]"

    def to_dict(self) -> Dict[str, object]:
        return {
            "eid": self.eid, "t": self.t, "kind": self.kind,
            "node": self.node, "txn": self.txn, "phase": self.phase,
            "ref": self.ref, "peer": self.peer, "lsn": self.lsn,
            "forced": self.forced, "parents": list(self.parents),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JournalEntry":
        return cls(eid=data["eid"], t=data["t"], kind=data["kind"],
                   node=data["node"], txn=data.get("txn"),
                   phase=data.get("phase"), ref=data.get("ref"),
                   peer=data.get("peer"), lsn=data.get("lsn"),
                   forced=data.get("forced"),
                   parents=data.get("parents") or ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, JournalEntry):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"<JournalEntry #{self.eid} {self.describe()}>"


class _Ids(dict):
    """String -> id (next id on first sight, None is -1); a dict, not a
    ``StringInterner``, so a repeat is one C-level subscript."""

    __slots__ = ("strings",)

    def __init__(self) -> None:
        super().__init__({None: -1})
        self.strings: List[str] = []

    def __missing__(self, value: str) -> int:
        ident = self[value] = len(self.strings)
        self.strings.append(value)
        return ident


class JournalRows:
    """The journal store: one packed :data:`ROW` per entry.

    ``buf`` holds the rows back to back (an entry's eid is its row
    number); ``ids`` interns strings and ``ids.strings`` maps an id
    back.  Times are stored as doubles, so an integer clock reading
    (``Simulator.at(5)``) is journalled as ``5.0``.
    """

    __slots__ = ("buf", "ids")

    def __init__(self) -> None:
        self.buf = bytearray()
        self.ids = _Ids()
        for kind in KINDS:
            self.ids[kind]      # interned first: a kind's id is its index

    def __len__(self) -> int:
        return len(self.buf) // ROW.size

    def rows(self, start: int = 0, stop: Optional[int] = None
             ) -> Iterable[Tuple]:
        """Unpacked rows ``start:stop`` (unpacked from a copy, so
        appending meanwhile is safe)."""
        end = None if stop is None else stop * ROW.size
        return ROW.iter_unpack(self.buf[start * ROW.size:end])

    def entries(self, start: int = 0, stop: Optional[int] = None
                ) -> List[JournalEntry]:
        names = self.ids.strings + [None]       # id -1 reads as None
        return [JournalEntry(
            eid, t, names[kind], names[node], names[txn], names[phase],
            names[ref], names[peer], None if lsn < 0 else lsn,
            None if forced < 0 else forced == 1,
            () if p0 < 0 else (p0,) if p1 < 0 else (p0, p1))
            for eid, (t, kind, node, txn, phase, ref, peer, lsn, forced,
                      p0, p1) in enumerate(self.rows(start, stop), start)]

    def extend(self, entries: Iterable[JournalEntry],
               row_of: Dict[int, int]) -> None:
        """Pack entry objects (e.g. a loaded journal) as rows.

        ``row_of`` maps eids already packed to their rows and is
        extended; parents are translated through it, and a parent
        that is not in it (cut out of the journal) is dropped.
        """
        ids = self.ids
        for entry in entries:
            parents = [row_of[p] for p in entry.parents if p in row_of]
            if len(parents) > 2:
                raise ValueError(f"journal entry {entry.eid} has "
                                 f"{len(parents)} parents; a row holds 2")
            parents += [-1, -1]
            row_of[entry.eid] = len(self)
            self.buf += ROW.pack(
                entry.t, ids[entry.kind], ids[entry.node], ids[entry.txn],
                ids[entry.phase], ids[entry.ref], ids[entry.peer],
                -1 if entry.lsn is None else entry.lsn,
                -1 if entry.forced is None else entry.forced,
                parents[0], parents[1])

    def to_jsonl(self, meta: Optional[Dict[str, object]] = None) -> str:
        """Byte-identical to ``journal_to_jsonl(self.entries(), meta)``,
        rendered from the rows with each string JSON-encoded once."""
        # An id or ``forced`` of -1 (None) reads the last item, "null".
        encoded = [json.dumps(s) for s in self.ids.strings] + ["null"]
        lines = [json.dumps({"schema": SCHEMA, "meta": dict(meta or {})},
                            sort_keys=True)]
        append = lines.append
        for eid, (t, kind, node, txn, phase, ref, peer, lsn, forced,
                  p0, p1) in enumerate(self.rows()):
            append(_LINE % (
                eid, ("false", "true", "null")[forced], encoded[kind],
                "null" if lsn < 0 else lsn, encoded[node],
                "" if p0 < 0 else p0 if p1 < 0 else f"{p0},{p1}",
                encoded[peer], encoded[phase], encoded[ref], t,
                encoded[txn]))
        return "\n".join(lines)


class JournalRecorder:
    """Records a cluster run as a causally-linked journal.

    Attach/detach follow the Tracer contract: attaching twice to the
    same cluster is a no-op, attaching elsewhere while attached
    raises, ``detach()`` removes every installed hook and is
    idempotent.  All installs are list-appends, so an unattached
    cluster pays nothing.

    ``kernel_events`` additionally journals every simulator event
    dispatch (huge — debugging only; every event name is interned).
    """

    def __init__(self, kernel_events: bool = False) -> None:
        self.cluster = None
        self.kernel_events = kernel_events
        #: The journal itself.
        self.rows = JournalRows()
        self._clock = None
        self._installed: List[Tuple[list, object]] = []
        self._kernel_hook = None
        # Causal bookkeeping.
        self._last_at_site: Dict[str, int] = {}
        self._last_txn_site: Dict[Tuple[str, str], int] = {}
        self._states: Dict[Tuple[str, str], str] = {}
        self._sends: Dict[int, int] = {}          # msg_id -> send eid
        self._writes: Dict[Tuple[str, int], int] = {}  # (site, lsn) -> eid
        self._waits: Dict[Tuple[str, str, str], int] = {}
        self._grants: Dict[Tuple[str, str, str], int] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, cluster) -> "JournalRecorder":
        if self.cluster is cluster:
            return self
        if self.cluster is not None:
            raise RuntimeError("JournalRecorder is already attached to a "
                               "different cluster; detach() first")
        self.cluster = cluster
        self._clock = cluster.simulator

        def install(hook_list: list, hook) -> None:
            hook_list.append(hook)
            self._installed.append((hook_list, hook))

        install(cluster.network.on_send, self._on_send)
        install(cluster.network.on_deliver, self._on_deliver)
        for node in cluster.nodes.values():
            install(node.on_transition, self._on_transition)
            seen_logs = set()
            for rm in [node] + node.all_rms():
                log = getattr(rm, "log", None)
                if log is None or id(log) in seen_logs:
                    continue
                seen_logs.add(id(log))
                install(log.on_write, self._on_write)
                install(log.on_flush, self._on_flush)
            for rm in node.all_rms():
                locks = rm.locks
                install(locks.on_wait, partial(self._on_wait, node.name))
                install(locks.on_grant, partial(self._on_grant, node.name))
                install(locks.on_release,
                        partial(self._on_release, node.name))
        if self.kernel_events:
            self._kernel_hook = self._on_kernel
            cluster.simulator.add_event_hook(self._kernel_hook)
        return self

    def detach(self) -> None:
        """Remove every installed hook (idempotent)."""
        for hook_list, hook in self._installed:
            try:
                hook_list.remove(hook)
            except ValueError:
                pass
        self._installed = []
        if self.cluster is not None and self._kernel_hook is not None:
            self.cluster.simulator.remove_event_hook(self._kernel_hook)
        self._kernel_hook = None
        self.cluster = None

    @property
    def attached(self) -> bool:
        return self.cluster is not None

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(self, kind: int, site: str, txn: Optional[str],
              phase: Optional[str], ref: Optional[str] = None,
              peer: Optional[str] = None, lsn: int = -1, forced: int = -1,
              extra_parent: int = -1) -> int:
        rows = self.rows
        eid = len(rows.buf) // ROW.size
        parent = self._last_at_site.get(site, -1)
        if parent < 0:
            parent, extra_parent = extra_parent, -1
        elif extra_parent == parent:
            extra_parent = -1
        ids = rows.ids
        rows.buf += ROW.pack(self._clock.now, kind, ids[site], ids[txn],
                             ids[phase], ids[ref], ids[peer], lsn, forced,
                             parent, extra_parent)
        self._last_at_site[site] = eid
        if txn is not None:
            self._last_txn_site[(txn, site)] = eid
        return eid

    def _phase(self, txn: Optional[str], site: str) -> str:
        # Detached own-log RMs journal under "node/rm"; protocol state
        # lives at the owning node.
        node = site.split("/", 1)[0]
        return self._states.get((txn, node), IDLE_PHASE)

    # ------------------------------------------------------------------
    # Hook bodies
    # ------------------------------------------------------------------
    def _on_transition(self, node: str, txn_id: str, old, new) -> None:
        extra = -1
        if old is None:
            # Context creation: link the parent/child txn edge so the
            # causal DAG shows who enrolled this node.
            context = self.cluster.nodes[node].ctx(txn_id)
            parent_node = getattr(context, "parent", None)
            if parent_node is not None:
                extra = self._last_txn_site.get((txn_id, parent_node), -1)
        state = self._states[(txn_id, node)] = new.value
        self._emit(TRANSITION, node, txn_id, state, ref=state,
                   peer=old.value if old is not None else None,
                   extra_parent=extra)

    def _on_send(self, message) -> None:
        eid = self._emit(SEND, message.src, message.txn_id,
                         self._phase(message.txn_id, message.src),
                         ref=message.msg_type.value, peer=message.dst)
        self._sends[message.msg_id] = eid

    def _on_deliver(self, message) -> None:
        self._emit(DELIVER, message.dst, message.txn_id,
                   self._phase(message.txn_id, message.dst),
                   ref=message.msg_type.value, peer=message.src,
                   extra_parent=self._sends.pop(message.msg_id, -1))

    def _on_write(self, record) -> None:
        site = record.node
        eid = self._emit(WRITE, site, record.txn_id,
                         self._phase(record.txn_id, site),
                         ref=record.record_type.value, lsn=record.lsn,
                         forced=record.forced)
        self._writes[(site, record.lsn)] = eid

    def _on_flush(self, durable) -> None:
        for record in durable:
            site = record.node
            self._emit(HARDEN, site, record.txn_id,
                       self._phase(record.txn_id, site),
                       ref=record.record_type.value, lsn=record.lsn,
                       extra_parent=self._writes.pop((site, record.lsn),
                                                     -1))

    def _on_wait(self, node: str, txn_id: str, key: str, mode) -> None:
        eid = self._emit(WAIT, node, txn_id, self._phase(txn_id, node),
                         ref=key, peer=getattr(mode, "value", str(mode)))
        self._waits[(node, txn_id, key)] = eid

    def _on_grant(self, node: str, txn_id: str, key: str, mode) -> None:
        eid = self._emit(GRANT, node, txn_id, self._phase(txn_id, node),
                         ref=key, peer=getattr(mode, "value", str(mode)),
                         extra_parent=self._waits.pop((node, txn_id, key),
                                                      -1))
        self._grants[(node, txn_id, key)] = eid

    def _on_release(self, node: str, txn_id: str, key: str) -> None:
        self._emit(RELEASE, node, txn_id, self._phase(txn_id, node),
                   ref=key,
                   extra_parent=self._grants.pop((node, txn_id, key), -1))

    def _on_kernel(self, event) -> None:
        self._emit(KERNEL, "kernel", None, None,
                   ref=getattr(event, "name", "") or "event")

    # ------------------------------------------------------------------
    # Queries / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> JournalEntry:
        index = range(len(self))[index]     # negative and bounds
        return self.rows.entries(index, index + 1)[0]

    def entries(self, start: int = 0) -> List[JournalEntry]:
        """The journal from entry ``start`` on, as entry objects."""
        return self.rows.entries(start)

    def to_jsonl(self, meta: Optional[Dict[str, object]] = None) -> str:
        return self.rows.to_jsonl(meta)


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def journal_to_jsonl(entries: Sequence[JournalEntry],
                     meta: Optional[Dict[str, object]] = None) -> str:
    """Header line + one JSON object per entry, in eid order."""
    header = {"schema": SCHEMA, "meta": dict(meta or {})}
    lines = [json.dumps(header, sort_keys=True)]
    for entry in sorted(entries, key=lambda e: e.eid):
        lines.append(json.dumps(entry.to_dict(), sort_keys=True,
                                separators=(",", ":")))
    return "\n".join(lines)


def journal_from_jsonl(text: str
                       ) -> Tuple[Dict[str, object], List[JournalEntry]]:
    """Parse a journal; returns (meta, entries).

    Raises :class:`ValueError` naming the offending line for malformed
    JSON, missing fields, or an unsupported schema version.
    """
    meta: Optional[Dict[str, object]] = None
    entries: List[JournalEntry] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {lineno}: invalid JSON: {error}")
        if meta is None:
            schema = data.get("schema")
            if schema != SCHEMA:
                raise ValueError(
                    f"line {lineno}: unsupported journal schema "
                    f"{schema!r} (this reader handles {SCHEMA!r})")
            meta = dict(data.get("meta") or {})
            continue
        missing = [f for f in ("eid", "t", "kind", "node")
                   if f not in data]
        if missing:
            raise ValueError(f"line {lineno}: journal entry missing "
                             f"field(s) {', '.join(missing)}")
        entries.append(JournalEntry.from_dict(data))
    if meta is None:
        raise ValueError("empty journal: no schema header line")
    return meta, entries


def normalize_txn_ids(entries: Sequence[JournalEntry]
                      ) -> List[JournalEntry]:
    """Rewrite txn ids to ``t0, t1, ...`` by first appearance.

    Transaction ids draw from a process-global counter, so two
    recordings of the same workload in one process name their
    transactions differently; normalizing makes such journals
    comparable.  Returns new entries; the input is left untouched.
    """
    alias: Dict[str, str] = {}
    out: List[JournalEntry] = []
    for entry in entries:
        txn = entry.txn
        if txn is not None:
            short = alias.get(txn)
            if short is None:
                short = f"t{len(alias)}"
                alias[txn] = short
            txn = short
        out.append(JournalEntry(
            eid=entry.eid, t=entry.t, kind=entry.kind, node=entry.node,
            txn=txn, phase=entry.phase, ref=entry.ref, peer=entry.peer,
            lsn=entry.lsn, forced=entry.forced, parents=entry.parents))
    return out
