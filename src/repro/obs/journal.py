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
edge); :class:`JournalEntry` objects are built only on request.
Serialisation is schema-versioned JSONL: a header line naming
:data:`SCHEMA`, then one entry per line.

The rows are also the cluster's one per-event tap.  A
:class:`JournalTap` owns the hooks and writes the rows; everything that
watches a run per event — this recorder, the cost ledger, the metrics
registry, the span tracer, the watchdog — is a :class:`Fold` over them
(see docs/OBSERVABILITY.md, "One tap, many folds").
"""

from __future__ import annotations

import json
import struct
from collections import deque
from functools import partial
from itertools import chain
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.hooks import Observer

#: Journal wire-format version; bumped on any incompatible change.
SCHEMA = "repro-journal/1"

#: Phase stamped on entries hitting a (txn, node) pair before any
#: commit context exists there (e.g. the enrollment data flows).
IDLE_PHASE = "idle"

#: (txn, node) protocol states that count as settled for orphan
#: detection — anything else at journal end is an abandoned span.
SETTLED_STATES = frozenset({
    "committed", "aborted", "forgotten", "read-only-done",
    "heuristic-committed", "heuristic-aborted",
})

#: (txn, node) states after which the node keeps nothing of the
#: transaction; the recorder forgets the pair too, FORGET_WINDOW such
#: pairs later.
TERMINAL_STATES = frozenset({"forgotten", "read-only-done"})

#: Terminal (txn, node) pairs whose phase and last entry the recorder
#: still holds.  A pair leaves the window only once its log writes have
#: all hardened (an END record hardens with the node's next force,
#: however late); other entries that follow a terminal transition — a
#: straggling message answered from the log — keep their terminal
#: phase stamp while the pair is in the window (the twin, torture,
#: chaos and live-torture corpora see them at most two terminal pairs
#: later) and read as idle past it.
FORGET_WINDOW = 256

#: Entry kinds.  Every store interns them first, so a kind's id is its
#: index here in every store and folds compare ids, not strings.
KINDS = ("transition", "send", "deliver", "write", "harden", "wait",
         "grant", "release", "kernel")
(TRANSITION, SEND, DELIVER, WRITE, HARDEN, WAIT, GRANT, RELEASE,
 KERNEL) = range(len(KINDS))

#: One entry: ``t``; kind, node, txn, phase, ref and peer string ids
#: (-1 = None); ``lsn`` (-1 = None); ``forced`` (-1 None, 0, 1); two
#: parent eids (-1 = empty slot, filled first slot first); ``aux``, the
#: facts folds need that the JSONL never prints (the ``AUX_`` bits).
ROW = struct.Struct("<d6iqbqqB")

#: ``aux`` bits: the clock gave ``t`` as an int (rows store doubles);
#: the cross edge (a delivery's send, a harden's write, a grant's wait,
#: a release's grant) is ``p0``, not ``p1``; a creation transition of a
#: context with no parent.  ``aux >> 3``: a send's counting bucket
#: (``Message.phase``).
AUX_INT_CLOCK, AUX_CROSS_FIRST, AUX_ROOT = 1, 2, 4
BUCKETS = ("commit", "data", "recovery")
_BUCKET_BITS = {name: index << 3 for index, name in enumerate(BUCKETS)}

#: Rows a fold may trail its tap by: every ``FOLD_BATCH`` rows the tap
#: folds every member, so a fold that nobody reads still pays as it
#: goes and holds at most one batch of unread rows.
FOLD_BATCH = 2048

#: A rendered entry: ``journal_to_jsonl``'s sorted-key compact line
#: (``t`` as its repr), and ``forced`` -1/0/1 as JSON.
_LINE = ('{"eid":%d,"forced":%s,"kind":%s,"lsn":%s,"node":%s,'
         '"parents":[%s],"peer":%s,"phase":%s,"ref":%s,"t":%s,"txn":%s}')
_FORCED = ("false", "true", "null")


def _header(meta: Optional[Dict[str, object]]) -> str:
    return json.dumps({"schema": SCHEMA, "meta": dict(meta or {})},
                      sort_keys=True)


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
    number) and ``pending`` the newest ones still as unpacked tuples,
    which :meth:`pack` moves into ``buf`` (the tap packs a batch at a
    time, after its folds have read it); ``ids`` interns strings and
    ``ids.strings`` maps an id back.  Times are stored as doubles, so
    an integer clock reading (``Simulator.at(5)``) is journalled as
    ``5.0`` (``aux`` keeps that it was an int).

    With a ``segment`` path the store can :meth:`spill`: rows below a
    cut move, still packed, to that append-only file and leave memory,
    so a long-lived recorder holds only its recent tail.  Everything
    that reads rows (``len``, :meth:`rows`, :meth:`entries`,
    :meth:`render`) reads segment + tail as one journal.
    """

    __slots__ = ("buf", "pending", "ids", "base", "segment")

    def __init__(self, segment: Optional[str] = None) -> None:
        self.buf = bytearray()
        self.pending: List[Tuple] = []
        self.ids = _Ids()
        for kind in KINDS:
            self.ids[kind]      # interned first: a kind's id is its index
        #: Rows spilled to the segment: the tail's first row is ``base``.
        self.base = 0
        self.segment = segment
        if segment is not None:
            open(segment, "wb").close()     # a new journal starts empty

    def __len__(self) -> int:
        return self.base + len(self.buf) // ROW.size + len(self.pending)

    def pack(self) -> None:
        """Move the ``pending`` rows into ``buf``."""
        if self.pending:
            self.buf += b"".join([ROW.pack(*row) for row in self.pending])
            self.pending.clear()

    def spill(self, upto: int) -> None:
        """Move rows below ``upto`` to the segment (no-op without one)."""
        if self.segment is None or upto <= self.base:
            return
        self.pack()
        cut = (upto - self.base) * ROW.size
        with open(self.segment, "ab") as handle, \
                memoryview(self.buf) as view:
            handle.write(view[:cut])
        self.drop(upto)

    def drop(self, upto: int) -> None:
        """Forget the in-memory rows below ``upto``."""
        packed = self.base + len(self.buf) // ROW.size
        del self.buf[:(min(upto, packed) - self.base) * ROW.size]
        del self.pending[:max(upto - packed, 0)]
        self.base = upto

    def copy(self) -> "JournalRows":
        """A copy that stops here (it shares the string ids, and reads
        rows spilled so far from the same segment)."""
        self.pack()
        twin = JournalRows()
        twin.buf, twin.ids = bytearray(self.buf), self.ids
        twin.base, twin.segment = self.base, self.segment
        return twin

    def _packed(self, start: int, stop: int) -> Union[bytes, bytearray]:
        """Packed rows ``start:stop``, from segment and ``buf``."""
        if start >= stop:
            return b""
        data = b""
        if start < self.base:
            with open(self.segment, "rb") as handle:
                handle.seek(start * ROW.size)
                data = handle.read((min(stop, self.base) - start) * ROW.size)
        lo = max(start - self.base, 0) * ROW.size
        hi = (stop - self.base) * ROW.size
        tail = self.buf[lo:hi] if hi > lo else b""
        return data + tail if data else tail

    def rows(self, start: int = 0, stop: Optional[int] = None
             ) -> Iterable[Tuple]:
        """Unpacked rows ``start:stop`` (read from copies, so appending
        meanwhile is safe)."""
        stop = len(self) if stop is None else min(stop, len(self))
        packed = self.base + len(self.buf) // ROW.size
        fresh = self.pending[max(start - packed, 0):max(stop - packed, 0)]
        if start >= packed:
            return fresh
        return chain(ROW.iter_unpack(self._packed(start, min(stop, packed))),
                     fresh)

    def entries(self, start: int = 0, stop: Optional[int] = None
                ) -> List[JournalEntry]:
        names = self.ids.strings + [None]       # id -1 reads as None
        return [JournalEntry(
            eid, t, names[kind], names[node], names[txn], names[phase],
            names[ref], names[peer], None if lsn < 0 else lsn,
            None if forced < 0 else forced == 1,
            () if p0 < 0 else (p0,) if p1 < 0 else (p0, p1))
            for eid, (t, kind, node, txn, phase, ref, peer, lsn, forced,
                      p0, p1, _) in enumerate(self.rows(start, stop), start)]

    def extend(self, entries: Iterable[JournalEntry],
               row_of: Dict[int, int]) -> None:
        """Pack entry objects (e.g. a loaded journal) as rows.

        ``row_of`` maps eids already packed to their rows and is
        extended; parents are translated through it, and a parent
        that is not in it (cut out of the journal) is dropped.
        """
        ids = self.ids
        self.pack()
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
                parents[0], parents[1], 0)

    def render(self, meta: Optional[Dict[str, object]] = None,
               chunk: int = 1024) -> Iterator[str]:
        """:meth:`to_jsonl` in pieces of at most ``chunk`` entries, for
        writing a journal out without holding all of its text."""
        encoded = self._encoded()
        yield _header(meta)
        for start in range(0, len(self), chunk):
            yield "\n" + "\n".join(self._lines(encoded, start,
                                               start + chunk))

    def to_jsonl(self, meta: Optional[Dict[str, object]] = None) -> str:
        """Byte-identical to ``journal_to_jsonl(self.entries(), meta)``,
        rendered from the rows with each string JSON-encoded once."""
        return "\n".join([_header(meta)]
                         + self._lines(self._encoded(), 0, len(self)))

    def _encoded(self) -> List[str]:
        # An id or ``forced`` of -1 (None) reads the last item, "null".
        return [json.dumps(s) for s in self.ids.strings] + ["null"]

    def _lines(self, encoded: List[str], start: int, stop: int
               ) -> List[str]:
        lines = []
        last = when = None
        for eid, (t, kind, node, txn, phase, ref, peer, lsn, forced, p0,
                  p1, _) in enumerate(self.rows(start, stop), start):
            if t != last:               # rows run in time order
                last, when = t, repr(t)
            lines.append(_LINE % (
                eid, _FORCED[forced], encoded[kind],
                "null" if lsn < 0 else lsn, encoded[node],
                "" if p0 < 0 else p0 if p1 < 0 else f"{p0},{p1}",
                encoded[peer], encoded[phase], encoded[ref], when,
                encoded[txn]))
        return lines


def _mode_name(mode) -> str:
    """A lock mode's journal name (enum members carry it as their
    value; read directly, the enum ``value`` property is a call)."""
    name = getattr(mode, "_value_", None)
    return str(mode) if name is None else name


class Fold(Observer):
    """Base of the observers that read a cluster's rows, not its hooks.

    Attaching joins the cluster's :class:`JournalTap`; the fold keeps a
    row ``cursor``, and :meth:`sync` folds the rows written since
    (``_fold(rows, start)``).  Syncs happen at each read method, every
    :data:`FOLD_BATCH` rows the tap writes, and at ``detach``.  A fold
    keeps its own state from the rows it reads: it never reads a row's
    ``phase``, which turns idle once the tap forgets the pair.
    """

    #: The tap while attached, and the first row not folded yet.
    tap: Optional["JournalTap"] = None
    cursor = 0
    #: While a member that keeps rows is attached the tap keeps (or
    #: spills) them; otherwise it drops what every member has folded.
    keeps_rows = False
    #: Notes not folded yet, ``(row position, clock reading, node,
    #: txn, text)`` each: a list on the folds that take notes.
    notes: Sequence = ()

    def _install(self, cluster) -> None:
        tap = JournalTap.of(cluster)
        if self.keeps_rows and len(tap.rows):
            tap = JournalTap().attach(cluster)      # its journal starts now
        tap.join(self)

    def detach(self) -> None:
        if self.tap is not None:
            self.tap.leave(self)
        super().detach()

    def sync(self) -> None:
        """Fold every row (and note) the tap has written so far."""
        tap = self.tap
        if tap is not None:
            stop = len(tap.rows)
            if self.cursor < stop or self.notes:
                self._fold(tap.rows, self.cursor)
                self.cursor = stop

    def _fold(self, rows: JournalRows, start: int) -> None:
        """Fold ``rows`` from row ``start`` on (and the ``notes``)."""


class JournalTap(Observer):
    """A cluster's one per-event tap: the hooks, writing one :data:`ROW`
    per event into :attr:`rows`.  ``JournalTap.of(cluster)`` is the
    cluster's shared tap, attached with its first :class:`Fold` and
    detached with its last; a recorder that cannot share it gets a
    private one (:meth:`adopt`)."""

    def __init__(self) -> None:
        self.rows = JournalRows()
        self.members: List[Fold] = []
        self._due = FOLD_BATCH
        self._count = 0         # rows written: the next eid
        #: Parents and phases, for a member that keeps the rows.
        self._causal = False
        self._clock = None
        # Causal bookkeeping.
        self._last_at_site: Dict[str, int] = {}
        self._last_txn_site: Dict[Tuple[str, str], int] = {}
        self._states: Dict[Tuple[str, str], str] = {}
        self._terminal: "deque[Tuple[str, str]]" = deque()
        #: (txn, node) -> log writes not hardened yet.
        self._unhardened: Dict[Tuple[str, str], int] = {}
        self._sends: Dict[int, int] = {}          # msg_id -> send eid
        self._writes: Dict[Tuple[str, int], int] = {}  # (site, lsn) -> eid
        self._waits: Dict[Tuple[str, str, str], int] = {}
        self._grants: Dict[Tuple[str, str, str], int] = {}

    @classmethod
    def of(cls, cluster) -> "JournalTap":
        """The cluster's shared tap, attached on first use."""
        tap = getattr(cluster, "journal_tap", None)
        if tap is None:
            tap = cluster.journal_tap = cls().attach(cluster)
        return tap

    def _install(self, cluster) -> None:
        self._clock = cluster.simulator
        self.hook(cluster.network.on_send, self._on_send)
        self.hook(cluster.network.on_deliver, self._on_deliver)
        for node in cluster.nodes.values():
            self.hook(node.on_transition, self._on_transition)
            self.hook(node.on_note, self._on_note)
            for log in node.logs():
                self.hook(log.on_write, self._on_write)
                self.hook(log.on_flush, self._on_flush)
            for rm in node.all_rms():
                locks = rm.locks
                self.hook(locks.on_wait, partial(self._on_wait, node.name))
                self.hook(locks.on_grant, partial(self._on_grant, node.name))
                self.hook(locks.on_release,
                          partial(self._on_release, node.name))

    def join(self, member: Fold) -> None:
        self.members.append(member)
        member.tap, member.cursor = self, len(self.rows)
        if member.keeps_rows:
            member.rows, self._causal = self.rows, True

    def adopt(self, recorder: "JournalRecorder") -> bool:
        """Share this tap with ``recorder`` if nothing is written and no
        other recorder shares it (its journal reads as if recorded alone);
        it brings its store, segment and (on a private tap) kernel events."""
        if len(self.rows) or any(isinstance(member, JournalRecorder)
                                 for member in self.members):
            return False
        self.rows, self._count = recorder.rows, len(recorder.rows)
        for member in self.members:
            if member.keeps_rows:
                member.rows = self.rows
        if recorder.kernel_events:
            self.event_hook(self.cluster.simulator, self._on_kernel)
        self.join(recorder)
        return True

    def leave(self, member: Fold) -> None:
        member.sync()
        self.members.remove(member)
        member.tap = None
        if not self.members:
            cluster = self.cluster
            self.rows.pack()
            self.detach()
            if getattr(cluster, "journal_tap", None) is self:
                cluster.journal_tap = None
        elif member.keeps_rows:
            member.rows = self.rows.copy()      # its journal stops here
            self._causal = any(m.keeps_rows for m in self.members)

    def drain(self) -> None:
        """Fold every member up to now, then spill the rows if a member
        keeps them, else drop them."""
        for member in self.members:
            member.sync()
        stop = len(self.rows)
        if any(member.keeps_rows for member in self.members):
            self.rows.pack()
            self.rows.spill(stop)
        else:
            self.rows.drop(stop)
        self._due = stop + FOLD_BATCH

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(self, kind: int, site: str, txn: Optional[str],
              ref: Optional[str] = None, peer: Optional[str] = None,
              lsn: int = -1, forced: int = -1, extra_parent: int = -1,
              aux: int = 0) -> int:
        eid = self._count
        self._count = eid + 1
        rows = self.rows
        ids = rows.ids
        if self._causal:
            # Protocol state lives at the node; detached own-log RMs
            # journal under ``node/rm``.
            node = site if "/" not in site else site.split("/", 1)[0]
            key = (txn, node)
            phase = -1 if kind == KERNEL else \
                ids[self._states.get(key, IDLE_PHASE)]
            last = self._last_at_site
            parent = last.get(site, -1)
            if parent < 0:
                parent, extra_parent = extra_parent, -1
                aux |= AUX_CROSS_FIRST
            elif extra_parent == parent:
                extra_parent = -1
                aux |= AUX_CROSS_FIRST
            last[site] = eid
            if txn is not None and node is site:
                self._last_txn_site[key] = eid  # parent edges link nodes
        else:       # rows nobody renders: no phase, only the cross edge
            phase, parent, extra_parent = -1, extra_parent, -1
            aux |= AUX_CROSS_FIRST
        now = self._clock.now
        if now.__class__ is not float:
            if now.__class__ is int:
                aux |= AUX_INT_CLOCK
            now = float(now)
        rows.pending.append((now, kind, ids[site], ids[txn], phase, ids[ref],
                             ids[peer], lsn, forced, parent, extra_parent,
                             aux))
        if eid >= self._due:
            self.drain()
        return eid

    # ------------------------------------------------------------------
    # Hook bodies
    # ------------------------------------------------------------------
    def _on_transition(self, node: str, txn_id: str, old, new) -> None:
        extra, aux = -1, 0
        if old is None:
            # Context creation: link the parent/child txn edge so the
            # causal DAG shows who enrolled this node.
            context = self.cluster.nodes[node].ctx(txn_id)
            parent_node = getattr(context, "parent", None)
            if parent_node is not None:
                extra = self._last_txn_site.get((txn_id, parent_node), -1)
            elif context is not None:
                aux = AUX_ROOT
        key, state = (txn_id, node), new._value_
        if self._causal:
            self._states[key] = state
        self._emit(TRANSITION, node, txn_id, state,
                   old._value_ if old is not None else None, -1, -1, extra,
                   aux)
        if self._causal and state in TERMINAL_STATES:
            terminal = self._terminal
            terminal.append(key)
            for _ in range(len(terminal) - FORGET_WINDOW):
                key = terminal.popleft()
                if key in self._unhardened:
                    terminal.append(key)        # a write still to harden
                elif self._states.get(key) in TERMINAL_STATES:
                    # (Not if the pair came back to life since.)
                    del self._states[key]
                    self._last_txn_site.pop(key, None)

    def _on_send(self, message) -> None:
        self._sends[message.msg_id] = self._emit(
            SEND, message.src, message.txn_id, message.msg_type._value_,
            message.dst, -1, -1, -1, _BUCKET_BITS[message.phase._value_])

    def _on_deliver(self, message) -> None:
        self._emit(DELIVER, message.dst, message.txn_id,
                   message.msg_type._value_, message.src, -1, -1,
                   self._sends.pop(message.msg_id, -1))

    # The maps below give rows their cross edges and the forget window
    # its hardening check; rows nobody renders need neither.
    def _on_write(self, record) -> None:
        site, txn, lsn = record.node, record.txn_id, record.lsn
        eid = self._emit(WRITE, site, txn, record.record_type._value_,
                         None, lsn, record.forced)
        if self._causal:
            self._writes[(site, lsn)] = eid
            key = (txn, site.split("/", 1)[0] if "/" in site else site)
            self._unhardened[key] = self._unhardened.get(key, 0) + 1

    def _on_flush(self, durable) -> None:
        unhardened = self._unhardened
        for record in durable:
            site, txn, lsn = record.node, record.txn_id, record.lsn
            self._emit(HARDEN, site, txn, record.record_type._value_, None,
                       lsn, -1, self._writes.pop((site, lsn), -1))
            if self._causal:
                key = (txn, site.split("/", 1)[0] if "/" in site else site)
                left = unhardened.pop(key, 1) - 1
                if left:
                    unhardened[key] = left

    def _on_wait(self, node: str, txn_id: str, key: str, mode) -> None:
        eid = self._emit(WAIT, node, txn_id, key, _mode_name(mode))
        if self._causal:
            self._waits[(node, txn_id, key)] = eid

    def _on_grant(self, node: str, txn_id: str, key: str, mode) -> None:
        lock = (node, txn_id, key)
        eid = self._emit(GRANT, node, txn_id, key, _mode_name(mode), -1, -1,
                         self._waits.pop(lock, -1))
        if self._causal:
            self._grants[lock] = eid

    def _on_release(self, node: str, txn_id: str, key: str) -> None:
        self._emit(RELEASE, node, txn_id, key, None, -1, -1,
                   self._grants.pop((node, txn_id, key), -1))

    def _on_note(self, node: str, txn_id: str, text: str) -> None:
        for member in self.members:
            if isinstance(member.notes, list):
                member.notes.append(
                    (len(self.rows), self._clock.now, node, txn_id, text))

    def _on_kernel(self, event) -> None:
        self._emit(KERNEL, "kernel", None,
                   str(getattr(event, "name", "") or "event"))


class JournalRecorder(Fold):
    """Records a cluster run as a causally-linked journal: the rows of
    the cluster's tap, kept (a recorder attached once rows are written,
    or one with kernel events, records through a private tap, as if
    alone).

    ``kernel_events`` additionally journals every simulator event
    dispatch (huge — debugging only; every event name is interned).
    ``segment`` names the file :meth:`JournalRows.spill` moves folded
    rows to (``serve`` uses one); without one the journal stays in
    memory.
    """

    keeps_rows = True

    def __init__(self, kernel_events: bool = False,
                 segment: Optional[str] = None) -> None:
        self.kernel_events = kernel_events
        #: The journal itself.
        self.rows = JournalRows(segment)

    def _install(self, cluster) -> None:
        tap = (None if len(self.rows) or self.kernel_events
               else JournalTap.of(cluster))
        if tap is None or not tap.adopt(self):
            JournalTap().attach(cluster).adopt(self)

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
    lines = [_header(meta)]
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
