"""Commit-tree topology builders."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.lrm.operations import write_op


def _default_ops(node: str) -> List:
    return [write_op(f"key-{node}", 1)]


def flat_spec(nodes: Sequence[str], updates: bool = True,
              txn_id: Optional[str] = None) -> TransactionSpec:
    """Root plus n-1 direct children."""
    participants = [ParticipantSpec(
        node=nodes[0], ops=_default_ops(nodes[0]) if updates else [])]
    for name in nodes[1:]:
        participants.append(ParticipantSpec(
            node=name, parent=nodes[0],
            ops=_default_ops(name) if updates else []))
    kwargs = {"txn_id": txn_id} if txn_id else {}
    return TransactionSpec(participants=participants, **kwargs)


def chain_spec(nodes: Sequence[str], updates: bool = True,
               txn_id: Optional[str] = None) -> TransactionSpec:
    """A maximal-depth tree: every member cascades to the next."""
    participants = [ParticipantSpec(
        node=nodes[0], ops=_default_ops(nodes[0]) if updates else [])]
    for parent, child in zip(nodes, nodes[1:]):
        participants.append(ParticipantSpec(
            node=child, parent=parent,
            ops=_default_ops(child) if updates else []))
    kwargs = {"txn_id": txn_id} if txn_id else {}
    return TransactionSpec(participants=participants, **kwargs)


def balanced_tree_spec(nodes: Sequence[str], fanout: int = 2,
                       updates: bool = True) -> TransactionSpec:
    """A balanced tree with the given fanout (breadth-first filling)."""
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    participants = [ParticipantSpec(
        node=nodes[0], ops=_default_ops(nodes[0]) if updates else [])]
    for index, name in enumerate(nodes[1:], start=1):
        parent = nodes[(index - 1) // fanout]
        participants.append(ParticipantSpec(
            node=name, parent=parent,
            ops=_default_ops(name) if updates else []))
    return TransactionSpec(participants=participants)
