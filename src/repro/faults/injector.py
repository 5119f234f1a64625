"""Declarative fault schedules.

A :class:`FaultPlan` lists failures with their injection times; the
:class:`FaultInjector` arms them on a cluster.  Message loss is
probabilistic (seeded through the simulator's fault stream, so runs
stay reproducible) and can be scoped by message type or link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.cluster import Cluster
from repro.errors import ConfigurationError
from repro.net.message import Message


@dataclass(frozen=True)
class CrashSite:
    """A deterministic crash point: one observable protocol action.

    ``kind`` is ``"force"`` (a forced log write on the node), ``"send"``
    (a message the node puts on the wire) or ``"deliver"`` (a message
    the node receives).  ``seq`` is the zero-based ordinal of that kind
    of action on that node within the run — the addressing is stable
    because the simulator is deterministic for a given seed.  ``label``
    is purely descriptive (record/message type) and takes no part in
    matching.
    """

    kind: str
    node: str
    seq: int
    label: str = ""

    KINDS = ("force", "send", "deliver")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown crash-site kind {self.kind!r}; "
                             f"expected one of {self.KINDS}")
        if self.seq < 0:
            raise ValueError(f"crash-site seq must be >= 0, got {self.seq}")

    def describe(self) -> str:
        text = f"{self.kind}#{self.seq}@{self.node}"
        return f"{text} ({self.label})" if self.label else text

    def to_dict(self) -> dict:
        return {"kind": self.kind, "node": self.node, "seq": self.seq,
                "label": self.label}

    @classmethod
    def from_dict(cls, data: dict) -> "CrashSite":
        return cls(kind=data["kind"], node=data["node"],
                   seq=int(data["seq"]), label=data.get("label", ""))


@dataclass(frozen=True)
class CrashPlan:
    """Crash ``node`` — either at virtual time ``at`` (restarting at
    ``restart_at``, optional), or exactly at a :class:`CrashSite`
    (``when`` picks the pre/post side of the site's effect; restart
    follows ``restart_after`` time units later, optional)."""

    node: str
    at: Optional[float] = None
    restart_at: Optional[float] = None
    site: Optional[CrashSite] = None
    when: str = "pre"
    restart_after: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.at is None) == (self.site is None):
            raise ValueError(
                "a CrashPlan needs exactly one of `at` (time-addressed) "
                "or `site` (site-addressed)")
        if self.at is not None:
            if self.restart_at is not None and self.restart_at <= self.at:
                raise ValueError(
                    f"restart_at {self.restart_at} must follow crash at "
                    f"{self.at}")
            if self.restart_after is not None:
                raise ValueError(
                    "restart_after only applies to site-addressed plans; "
                    "use restart_at")
        else:
            if self.site.node != self.node:
                raise ValueError(
                    f"site names node {self.site.node!r} but the plan "
                    f"crashes {self.node!r}")
            if self.when not in ("pre", "post"):
                raise ValueError(
                    f"when must be 'pre' or 'post', got {self.when!r}")
            if self.restart_at is not None:
                raise ValueError(
                    "restart_at only applies to time-addressed plans; "
                    "use restart_after")
            if self.restart_after is not None and self.restart_after <= 0:
                raise ValueError(
                    f"restart_after must be positive, "
                    f"got {self.restart_after}")


@dataclass(frozen=True)
class PartitionPlan:
    """Cut the (a, b) link at ``at``; heal at ``heal_at`` (optional)."""

    a: str
    b: str
    at: float
    heal_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ValueError(
                f"heal_at {self.heal_at} must follow partition at "
                f"{self.at}")


@dataclass(frozen=True)
class MessageLossPlan:
    """Drop each matching message with ``probability``.

    Scope with ``msg_types`` (message-type values) and/or ``links``
    ((src, dst) pairs); empty means unrestricted.
    """

    probability: float
    msg_types: Tuple[str, ...] = ()
    links: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability out of range: {self.probability}")

    def matches(self, message: Message) -> bool:
        if self.msg_types and message.msg_type.value not in self.msg_types:
            return False
        if self.links and (message.src, message.dst) not in self.links:
            return False
        return True


@dataclass
class FaultPlan:
    """A complete failure schedule for one run."""

    crashes: List[CrashPlan] = field(default_factory=list)
    partitions: List[PartitionPlan] = field(default_factory=list)
    message_loss: Optional[MessageLossPlan] = None

    def crash(self, node: str, at: float,
              restart_at: Optional[float] = None) -> "FaultPlan":
        self.crashes.append(CrashPlan(node, at=at, restart_at=restart_at))
        return self

    def crash_at_site(self, site: CrashSite, when: str = "pre",
                      restart_after: Optional[float] = None) -> "FaultPlan":
        self.crashes.append(CrashPlan(site.node, site=site, when=when,
                                      restart_after=restart_after))
        return self

    def partition(self, a: str, b: str, at: float,
                  heal_at: Optional[float] = None) -> "FaultPlan":
        self.partitions.append(PartitionPlan(a, b, at, heal_at))
        return self

    def lose_messages(self, probability: float,
                      msg_types: Tuple[str, ...] = (),
                      links: Tuple[Tuple[str, str], ...] = ()
                      ) -> "FaultPlan":
        self.message_loss = MessageLossPlan(probability, msg_types, links)
        return self

    def validate(self) -> "FaultPlan":
        """Reject cross-plan conflicts a single plan's own
        ``__post_init__`` cannot see.

        Raises :class:`ConfigurationError` for negative injection
        times, overlapping time-addressed crash windows on one node,
        and duplicate site-addressed crashes — each of which would
        otherwise arm as undefined behavior (a node crashed while
        already down, or two interrupts racing for one protocol
        action).
        """
        for partition in self.partitions:
            if partition.at < 0:
                raise ConfigurationError(
                    f"partition {partition.a}-{partition.b} at negative "
                    f"time {partition.at}")
        windows: dict = {}
        seen_sites = set()
        for crash in self.crashes:
            if crash.site is not None:
                key = (crash.site.kind, crash.site.node, crash.site.seq,
                       crash.when)
                if key in seen_sites:
                    raise ConfigurationError(
                        f"duplicate site-addressed crash: "
                        f"{crash.site.describe()} [{crash.when}] appears "
                        f"twice")
                seen_sites.add(key)
                continue
            if crash.at < 0:
                raise ConfigurationError(
                    f"crash of {crash.node!r} at negative time "
                    f"{crash.at}")
            start = crash.at
            end = (crash.restart_at if crash.restart_at is not None
                   else float("inf"))
            for other_start, other_end in windows.get(crash.node, []):
                if start < other_end and other_start < end:
                    raise ConfigurationError(
                        f"overlapping crash plans for {crash.node!r}: "
                        f"[{start}, {end}) overlaps "
                        f"[{other_start}, {other_end}) — the node would "
                        f"be crashed while already down")
            windows.setdefault(crash.node, []).append((start, end))
        return self


class FaultInjector:
    """Arms a :class:`FaultPlan` on a cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._rng = cluster.simulator.stream("faults")
        self.injected_drops = 0
        #: The drop filter that was installed before our first
        #: ``apply()`` with message loss; ``clear_message_loss()``
        #: restores it rather than wiping whatever the caller had.
        self._filter_underneath = None
        self._loss_installed = False

    def apply(self, plan: FaultPlan) -> None:
        from repro.torture.sites import arm_crash
        plan.validate()
        for crash in plan.crashes:
            if crash.site is not None:
                arm_crash(self.cluster, crash.site, when=crash.when,
                          restart_after=crash.restart_after)
                continue
            self.cluster.crash_at(crash.node, crash.at)
            if crash.restart_at is not None:
                self.cluster.restart_at(crash.node, crash.restart_at)
        for partition in plan.partitions:
            self.cluster.partition_at(partition.a, partition.b,
                                      partition.at)
            if partition.heal_at is not None:
                self.cluster.heal_at(partition.a, partition.b,
                                     partition.heal_at)
        if plan.message_loss is not None:
            loss = plan.message_loss
            beneath = self.cluster.network.drop_filter
            if not self._loss_installed:
                self._filter_underneath = beneath
                self._loss_installed = True

            def drop(message: Message) -> bool:
                # Compose: whatever was installed first (a user filter,
                # or a previously applied plan) keeps dropping its
                # messages; this plan's loss applies on top.
                if beneath is not None and beneath(message):
                    return True
                if not loss.matches(message):
                    return False
                if self._rng.chance(loss.probability):
                    self.injected_drops += 1
                    return True
                return False

            self.cluster.network.set_drop_filter(drop)

    def clear_message_loss(self) -> None:
        """Remove every loss predicate this injector installed,
        restoring the filter that was present before the first one."""
        if self._loss_installed:
            self.cluster.network.set_drop_filter(self._filter_underneath)
        self._filter_underneath = None
        self._loss_installed = False
