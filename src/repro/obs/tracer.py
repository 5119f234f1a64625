"""SpanTracer: folds the cluster's journal rows into per-transaction
span trees.

The tracer installs no hooks: it is a :class:`~repro.obs.journal.Fold`
over the rows of the cluster's :class:`~repro.obs.journal.JournalTap`,
and takes the protocol notes the tap hands it:

====================  ==============================================
row / note            span activity
====================  ==============================================
transition            open/close the root txn span and phase spans
write                 open a log-force span for each forced record
harden                close log-force spans as records harden
send                  open a message-wait span at the sender
deliver               close it at the receiver
note                  attach a protocol note as a point event
====================  ==============================================

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
from repro.obs.journal import (AUX_CROSS_FIRST, AUX_INT_CLOCK, AUX_ROOT,
                               DELIVER, HARDEN, SEND, TRANSITION, WRITE,
                               Fold, JournalRows)
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
ROOT_FINAL_STATES = frozenset({TxnState.FORGOTTEN, TxnState.READ_ONLY_DONE})

# The same by the rows' state names; states that give a root its outcome.
_PHASE_OF = {state.value: name for state, name in PHASE_OF_STATE.items()}
_ROOT_FINAL = frozenset(state.value for state in ROOT_FINAL_STATES)
_OUTCOMES = frozenset({"committed", "aborted", "heuristic-committed",
                       "heuristic-aborted"})


class SpanTracer(Fold):
    """Collects spans from one cluster.  Attach, run, export."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self.notes: List[tuple] = []
        self._roots: Dict[str, Span] = {}                # txn -> root span
        self._phases: Dict[Tuple[str, str], Span] = {}   # (txn, node) -> span
        self._forces: Dict[Tuple[int, int], Span] = {}   # (log, lsn) ids
        self._messages: Dict[int, Span] = {}             # send eid -> span

    @property
    def spans(self) -> List[Span]:
        self.sync()
        return self._spans

    def _fold(self, rows: JournalRows, start: int) -> None:
        names, messages = rows.ids.strings, self._messages
        forces = self._forces
        notes, next_note = self.notes, 0
        due = notes[0][0] if notes else len(rows)
        for eid, (t, kind, node, txn, _, ref, peer, lsn, forced, p0, p1,
                  aux) in enumerate(rows.rows(start), start):
            while eid >= due:                 # notes fired before this row
                self._note(*notes[next_note])
                next_note += 1
                due = notes[next_note][0] if next_note < len(notes) \
                    else len(rows)
            if aux & AUX_INT_CLOCK:
                t = int(t)
            if kind == TRANSITION:
                self._transition(t, names[node], names[txn], names[ref],
                                 peer < 0 and aux & AUX_ROOT)
            elif kind == SEND:
                node, txn = names[node], names[txn]
                span = self._open(t, "msg:" + names[ref], KIND_MESSAGE,
                                  node, txn, self._under(txn, node))
                span.attributes["dst"] = names[peer]
                messages[eid] = span
            elif kind == DELIVER:
                span = messages.pop(p0 if aux & AUX_CROSS_FIRST else p1, None)
                if span is not None:
                    span.close(t)
            elif kind == WRITE and forced == 1:
                site, txn = names[node], names[txn]
                span = self._open(t, "log-force:" + names[ref], KIND_LOG,
                                  site, txn, self._under(txn, site))
                span.attributes["lsn"] = lsn
                forces[node, lsn] = span
            elif kind == HARDEN:
                span = forces.pop((node, lsn), None)
                if span is not None:
                    span.close(t)
        for note in notes[next_note:]:
            self._note(*note)
        notes.clear()

    def _under(self, txn_id: str, node: str) -> Optional[Span]:
        """The open phase on this node, else the txn root span."""
        return self._phases.get((txn_id, node)) or self._roots.get(txn_id)

    def _open(self, start, name: str, kind: str, node: str, txn_id: str,
              parent: Optional[Span]) -> Span:
        span = Span(len(self._spans) + 1, name, kind, node, txn_id, start,
                    parent.span_id if parent else None)
        self._spans.append(span)
        return span

    def _transition(self, now, node: str, txn_id: str, state: str,
                    creates_root: bool) -> None:
        # Root txn span: opened when the commit coordinator first
        # creates the context.  Restart recovery also rebuilds parentless
        # contexts, so only the first one becomes the root.
        roots = self._roots
        if creates_root and txn_id not in roots:
            root = roots[txn_id] = self._open(now, f"txn {txn_id}",
                                              KIND_TXN, node, txn_id, None)
            root.attributes["coordinator"] = node
        phase = self._phases.pop((txn_id, node), None)
        if phase is not None:
            phase.close(now)
        name = _PHASE_OF.get(state)
        root = roots.get(txn_id)
        if name is not None:
            span = self._phases[(txn_id, node)] = self._open(
                now, name, KIND_PHASE, node, txn_id, root)
            span.attributes["state"] = state
        if root is not None and not root.finished and node == root.node:
            if state in _OUTCOMES:
                root.attributes.setdefault("outcome", state)
            if state in _ROOT_FINAL:
                root.close(now)

    def _note(self, _position, now, node: str, txn_id: str,
              text: str) -> None:
        target = self._under(txn_id, node)
        if target is not None:
            target.add_event(now, f"{node}: {text}")

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
        for span in self.spans:         # (folds up to now first)
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

