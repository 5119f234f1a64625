"""Transaction specifications: who participates, where, doing what.

A :class:`TransactionSpec` describes one distributed transaction as a
commit tree (the paper's "transaction commit tree"): each participant
names its parent, carries the operations it performs against its
node's resource managers, and the per-participant optimization flags
(last agent, unsolicited vote, OK-to-leave-out offer, veto).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.lrm.operations import Operation

_TXN_SEQ = itertools.count(1)


def next_txn_id(prefix: str = "txn") -> str:
    return f"{prefix}-{next(_TXN_SEQ)}"


@dataclass(slots=True)
class ParticipantSpec:
    """One member of the commit tree.

    Attributes:
        node: Name of the TM node this participant runs on.
        parent: Parent node in the commit tree; None for the root.
        ops: Operations against the node's default (integrated) RM.
        rm_ops: Operations against named detached RMs on the node.
        last_agent: This child receives the coordinator's YES vote and
            makes the commit decision (requires config.last_agent).
        unsolicited_vote: This participant prepares itself and votes
            without waiting for a prepare (requires the config toggle).
        ok_to_leave_out: The participant offers, on its YES vote, to be
            left out of future transactions in which it does no work.
        veto: Test/benchmark hook — this participant votes NO.
    """

    node: str
    parent: Optional[str] = None
    ops: List[Operation] = field(default_factory=list)
    rm_ops: Dict[str, List[Operation]] = field(default_factory=dict)
    last_agent: bool = False
    unsolicited_vote: bool = False
    ok_to_leave_out: bool = False
    #: This participant's conversation with its coordinator uses the
    #: long-locks variation (its ack rides the next transaction).
    long_locks: bool = False
    veto: bool = False

    @property
    def is_root(self) -> bool:
        return self.parent is None


@dataclass(slots=True)
class TransactionSpec:
    """A complete distributed transaction over a commit tree.

    Attributes:
        participants: The commit tree (exactly one root).
        txn_id: Unique id; autogenerated when omitted.
        await_work_done: Children report work completion upstream with
            a data flow before the root initiates commit (the common
            case).  When False the root commits as soon as its own
            work finishes, exercising the prepare-before-work-finished
            path the paper describes for peer environments.
        long_locks: Request the long-locks variation on this
            transaction's conversations (requires the config toggle).
    """

    participants: List[ParticipantSpec]
    txn_id: str = field(default_factory=next_txn_id)
    await_work_done: bool = True
    long_locks: bool = False

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Tree structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        roots = [p for p in self.participants if p.is_root]
        if len(roots) != 1:
            raise ConfigurationError(
                f"a commit tree needs exactly one root, found {len(roots)}")
        names = [p.node for p in self.participants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate participant nodes: {names}")
        by_node = {p.node: p for p in self.participants}
        for participant in self.participants:
            if participant.parent is not None and \
                    participant.parent not in by_node:
                raise ConfigurationError(
                    f"{participant.node} names unknown parent "
                    f"{participant.parent}")
        # Reachability from the root (rejects cycles / disconnected parts).
        reached = {roots[0].node}
        frontier = [roots[0].node]
        while frontier:
            current = frontier.pop()
            for child in self.children_of(current):
                if child.node in reached:
                    raise ConfigurationError(
                        f"cycle at {child.node} in commit tree")
                reached.add(child.node)
                frontier.append(child.node)
        if reached != set(names):
            raise ConfigurationError(
                f"commit tree disconnected: unreachable "
                f"{sorted(set(names) - reached)}")
        last_agents_per_parent: Dict[Optional[str], int] = {}
        for participant in self.participants:
            if participant.last_agent:
                if participant.is_root:
                    raise ConfigurationError("the root cannot be a last agent")
                count = last_agents_per_parent.get(participant.parent, 0) + 1
                last_agents_per_parent[participant.parent] = count
                if count > 1:
                    raise ConfigurationError(
                        f"{participant.parent} designates more than one "
                        f"last agent")

    @property
    def root(self) -> ParticipantSpec:
        return next(p for p in self.participants if p.is_root)

    def participant(self, node: str) -> ParticipantSpec:
        for candidate in self.participants:
            if candidate.node == node:
                return candidate
        raise KeyError(f"no participant on node {node!r}")

    def children_of(self, node: str) -> List[ParticipantSpec]:
        return [p for p in self.participants if p.parent == node]

    def has_participant(self, node: str) -> bool:
        return any(p.node == node for p in self.participants)

    @property
    def size(self) -> int:
        return len(self.participants)


def flat_tree(root: str, children: Sequence[str], txn_id: Optional[str] = None,
              **spec_kwargs) -> TransactionSpec:
    """A one-level tree: root coordinating every child directly."""
    participants = [ParticipantSpec(node=root)]
    participants += [ParticipantSpec(node=c, parent=root) for c in children]
    kwargs = dict(spec_kwargs)
    if txn_id is not None:
        kwargs["txn_id"] = txn_id
    return TransactionSpec(participants=participants, **kwargs)


def chain_tree(nodes: Sequence[str], txn_id: Optional[str] = None,
               **spec_kwargs) -> TransactionSpec:
    """A linear chain: each node the cascaded coordinator of the next."""
    if not nodes:
        raise ConfigurationError("chain_tree needs at least one node")
    participants = [ParticipantSpec(node=nodes[0])]
    for parent, child in zip(nodes, nodes[1:]):
        participants.append(ParticipantSpec(node=child, parent=parent))
    kwargs = dict(spec_kwargs)
    if txn_id is not None:
        kwargs["txn_id"] = txn_id
    return TransactionSpec(participants=participants, **kwargs)
