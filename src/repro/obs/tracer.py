"""SpanTracer: turns cluster hooks into per-transaction span trees.

The tracer attaches to a :class:`~repro.core.cluster.Cluster` and
listens on the observability hooks the substrates expose:

====================  ==============================================
hook                  span activity
====================  ==============================================
node.on_transition    open/close the root txn span and phase spans
log.on_write          open a log-force span for each forced record
log.on_flush          close log-force spans as records harden
network.on_send       open a message-wait span at the sender
network.on_deliver    close it at the receiver
node.on_note          attach protocol notes as point events
====================  ==============================================

All hooks are list-append installs, so an unattached cluster pays
nothing — the hook lists stay empty and the kernel's ``if hooks:``
fast paths skip them.

The span tree for one committed transaction (Figure 2's Presumed
Abort flow) looks like::

    txn T1 @Coord
      prepare @Coord              (PREPARING: prepares out, votes in)
        msg:prepare @Coord        (wait for delivery at Sub1)
        msg:prepare @Coord
      prepare @Sub1               (vote deliberation at the subordinate)
        log-force:prepared @Sub1
        msg:vote-yes @Sub1
      ...
      commit @Coord               (COMMITTING: decision out, acks in)
        log-force:committed @Coord
        msg:commit @Coord
      commit @Sub1
        log-force:committed @Sub1
        msg:ack @Sub1
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.states import TxnState
from repro.hooks import Observer
from repro.obs.span import (KIND_LOG, KIND_MESSAGE, KIND_PHASE, KIND_TXN,
                            Span)

#: States that open a named phase span on the node entering them.
#: States not listed (ACTIVE, COMMITTED, ABORTED, FORGOTTEN,
#: READ_ONLY_DONE) only close whatever phase was running.
PHASE_OF_STATE: Dict[TxnState, str] = {
    TxnState.PREPARING: "prepare",
    TxnState.PREPARED: "in-doubt",
    TxnState.COMMITTING: "commit",
    TxnState.ABORTING: "abort",
    TxnState.HEURISTIC_COMMITTED: "heuristic",
    TxnState.HEURISTIC_ABORTED: "heuristic",
}

#: Root-node states at which the transaction span ends (the commit
#: protocol is over from the application's point of view).
ROOT_FINAL_STATES = frozenset({
    TxnState.FORGOTTEN,
    TxnState.READ_ONLY_DONE,
})


class SpanTracer(Observer):
    """Collects spans from one cluster.  Attach, run, export."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 1
        self._roots: Dict[str, Span] = {}                # txn -> root span
        self._phases: Dict[Tuple[str, str], Span] = {}   # (txn, node) -> span
        self._forces: Dict[Tuple[int, int], Span] = {}   # (log id, lsn)
        self._messages: Dict[int, Span] = {}             # msg_id -> span

    def _install(self, cluster) -> None:
        self.hook(cluster.network.on_send, self._on_send)
        self.hook(cluster.network.on_deliver, self._on_deliver)
        for node in cluster.nodes.values():
            self.hook(node.on_transition, self._on_transition)
            self.hook(node.on_note, self._on_note)
            for log in node.logs():
                self.hook(log.on_write, self._on_write)
                self.hook(log.on_flush, self._on_flush)

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _open(self, name: str, kind: str, node: str, txn_id: str,
              parent: Optional[Span]) -> Span:
        span = Span(span_id=self._next_id, name=name, kind=kind, node=node,
                    txn_id=txn_id, start=self._now,
                    parent_id=parent.span_id if parent else None)
        self._next_id += 1
        self.spans.append(span)
        return span

    def _parent_for(self, txn_id: str, node: str) -> Optional[Span]:
        """The open phase on this node, else the txn root span."""
        phase = self._phases.get((txn_id, node))
        if phase is not None:
            return phase
        return self._roots.get(txn_id)

    # ------------------------------------------------------------------
    # Hook bodies
    # ------------------------------------------------------------------
    def _on_transition(self, node: str, txn_id: str,
                       old: Optional[TxnState], new: TxnState) -> None:
        now = self._now
        context = self.cluster.nodes[node].ctx(txn_id)
        # Root txn span: opened when the commit coordinator first
        # creates the context.  Restart recovery also rebuilds parentless
        # contexts, so only the first one becomes the root.
        if old is None and context is not None and context.parent is None \
                and txn_id not in self._roots:
            root = self._open(f"txn {txn_id}", KIND_TXN, node, txn_id,
                              parent=None)
            root.attributes["coordinator"] = node
            self._roots[txn_id] = root

        phase = self._phases.pop((txn_id, node), None)
        if phase is not None:
            phase.close(now)

        name = PHASE_OF_STATE.get(new)
        if name is not None:
            span = self._open(name, KIND_PHASE, node, txn_id,
                              parent=self._roots.get(txn_id))
            span.attributes["state"] = new.value
            self._phases[(txn_id, node)] = span

        root = self._roots.get(txn_id)
        if root is not None and not root.finished:
            if new in (TxnState.COMMITTED, TxnState.ABORTED,
                       TxnState.HEURISTIC_COMMITTED,
                       TxnState.HEURISTIC_ABORTED) \
                    and node == root.node:
                root.attributes.setdefault("outcome", new.value)
            if new in ROOT_FINAL_STATES and node == root.node:
                root.close(now)

    def _on_write(self, record) -> None:
        if not record.forced:
            return
        span = self._open(f"log-force:{record.record_type.value}",
                          KIND_LOG, record.node, record.txn_id,
                          parent=self._parent_for(record.txn_id,
                                                  record.node))
        span.attributes["lsn"] = record.lsn
        self._forces[(id_of_log(record), record.lsn)] = span

    def _on_flush(self, durable) -> None:
        now = self._now
        for record in durable:
            span = self._forces.pop((id_of_log(record), record.lsn), None)
            if span is not None:
                span.close(now)

    def _on_send(self, message) -> None:
        span = self._open(f"msg:{message.msg_type.value}", KIND_MESSAGE,
                          message.src, message.txn_id,
                          parent=self._parent_for(message.txn_id,
                                                  message.src))
        span.attributes["dst"] = message.dst
        self._messages[message.msg_id] = span

    def _on_deliver(self, message) -> None:
        span = self._messages.pop(message.msg_id, None)
        if span is not None:
            span.close(self._now)

    def _on_note(self, node: str, txn_id: str, text: str) -> None:
        target = self._parent_for(txn_id, node)
        if target is not None:
            target.add_event(self._now, f"{node}: {text}")

    # ------------------------------------------------------------------
    # Finishing and queries
    # ------------------------------------------------------------------
    def finish(self) -> List[Span]:
        """Close every still-open span at the current virtual time.

        Messages lost to partitions/crashes and phases interrupted by a
        crash leave open spans; closing them at ``finish()`` time keeps
        exports well-formed while their duration still shows the stall.
        """
        now = self._now
        for span in self.spans:
            span.close(now)
        self._phases.clear()
        self._forces.clear()
        self._messages.clear()
        return self.spans

    def spans_for(self, txn_id: str) -> List[Span]:
        return [s for s in self.spans if s.txn_id == txn_id]

    def txn_ids(self) -> List[str]:
        seen: List[str] = []
        for span in self.spans:
            if span.txn_id not in seen:
                seen.append(span.txn_id)
        return seen

    def phase_durations(self) -> Dict[str, List[float]]:
        """Completed phase-span durations grouped by phase name."""
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            if span.kind == KIND_PHASE and span.end is not None:
                out.setdefault(span.name, []).append(span.duration)
        return out


def id_of_log(record) -> int:
    """Key log-force spans by the record's owning log.

    LSNs restart per log manager, so (node-name, lsn) would collide
    between a TM log and a detached RM's private log on the same node.
    ``record.node`` is unique per log manager (detached own-log RMs get
    a ``node/rm`` name), so hashing it keys the force map safely.
    """
    return hash(record.node)
