"""The simulated network connecting transaction-manager nodes.

Semantics chosen to match commercial WAN behaviour the paper assumes:

* point-to-point delivery after a per-link latency;
* a partitioned or crashed destination silently loses the message —
  senders recover via the commit protocol's own timeouts/retries, which
  is exactly the regime in which heuristic decisions arise;
* every successful send is counted as one flow (the unit of Tables 2-4).

By default links are FIFO and at-most-once.  Both guarantees are
*opt-out*: installing an :attr:`Network.adversary` (see
:mod:`repro.chaos`) lets a seeded chaos schedule duplicate, reorder,
delay or hold individual deliveries.  With no adversary installed
(``adversary is None``, the default) the send path is byte-for-byte
the historical one, so existing runs stay bit-identical.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Set, Tuple

from repro.metrics.collector import MetricsCollector
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.sim.kernel import Simulator


class Delivery(partial):
    """One flow in flight, as one object: called, it hands its message
    to the network's ``_deliver``; as the event's name it reads
    ``deliver:<message.describe()>``, made only when read
    (kernel-events journal, profiler, error message)."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"deliver:{self.args[0].describe()}"

    def __repr__(self) -> str:
        return repr(str(self))


#: The undisturbed delivery plan: one arrival, no extra delay, in order.
_IN_ORDER = ((0.0, True),)


class NetworkError(RuntimeError):
    """Raised for misconfiguration (unknown node, duplicate registration)."""


class Network:
    """Routes messages between registered nodes on the simulator clock."""

    def __init__(self, simulator: Simulator, metrics: MetricsCollector,
                 latency: Optional[LatencyModel] = None,
                 fifo: bool = True) -> None:
        self.simulator = simulator
        self.metrics = metrics
        self.latency_model = latency or ConstantLatency(1.0)
        #: LU 6.2 conversations are sessions: messages between a pair
        #: of nodes never overtake each other.  With ``fifo`` (the
        #: default) a jittered latency model cannot reorder a link.
        self.fifo = fifo
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._alive: Dict[str, Callable[[], bool]] = {}
        self._partitioned: Set[Tuple[str, str]] = set()
        self._last_delivery: Dict[Tuple[str, str], float] = {}
        self._drop_filter: Optional[Callable[[Message], bool]] = None
        #: Delivery adversary (duck-typed: ``plan(message, delay)``
        #: returning ``None`` for the default single in-order delivery,
        #: or a list of ``(extra_delay, fifo)`` delivery plans).  None —
        #: the default — preserves FIFO at-most-once semantics exactly.
        self.adversary = None
        self._rng = simulator.stream("network")
        self.delivered = 0
        self.sent = 0
        #: Trace hooks invoked with each message actually transmitted.
        self.on_send: list = []
        #: Hooks invoked after a message's delivery has been scheduled
        #: (the message is irrevocably on the wire).  The torture
        #: harness crashes senders here — unlike ``on_send``, which
        #: fires before scheduling, an interrupt raised from this hook
        #: leaves the message in flight.
        self.on_transmit: list = []
        #: Trace hooks invoked with each message as it reaches a live
        #: destination (repro.obs closes message-wait spans here).
        self.on_deliver: list = []
        #: Hooks invoked after the destination handler processed a
        #: message (the crash window "received and fully acted on").
        self.on_handled: list = []

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def register(self, name: str, handler: Callable[[Message], None],
                 alive: Optional[Callable[[], bool]] = None) -> None:
        """Attach a node.  ``alive`` lets crashed nodes drop inbound traffic."""
        if name in self._handlers:
            raise NetworkError(f"node {name!r} already registered")
        self._handlers[name] = handler
        self._alive[name] = alive or (lambda: True)

    def knows(self, name: str) -> bool:
        return name in self._handlers

    def partition(self, a: str, b: str) -> None:
        """Cut the link between two nodes (both directions)."""
        self._require(a)
        self._require(b)
        self._partitioned.add((a, b))
        self._partitioned.add((b, a))

    def heal(self, a: str, b: str) -> None:
        """Restore the link between two nodes.

        Like :meth:`partition`, unknown names raise
        :class:`NetworkError`: a typo'd node in a heal schedule would
        otherwise silently heal nothing and the run would hang until
        its timeout.
        """
        self._require(a)
        self._require(b)
        self._partitioned.discard((a, b))
        self._partitioned.discard((b, a))

    def heal_all(self) -> None:
        self._partitioned.clear()

    def is_partitioned(self, a: str, b: str) -> bool:
        return (a, b) in self._partitioned

    def set_drop_filter(self,
                        drop: Optional[Callable[[Message], bool]]) -> None:
        """Install a predicate that drops matching messages (fault injection)."""
        self._drop_filter = drop

    @property
    def drop_filter(self) -> Optional[Callable[[Message], bool]]:
        """The currently installed drop predicate (None when clear).

        Exposed so fault injectors can *compose* with an existing
        filter instead of clobbering it.
        """
        return self._drop_filter

    def _require(self, name: str) -> None:
        if name not in self._handlers:
            raise NetworkError(f"unknown node {name!r}")

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Message) -> bool:
        """Send a message; returns False if it was dropped at send time.

        A send is counted as a flow whenever the sender actually puts it
        on the wire (the paper counts flows the sender pays for, whether
        or not a failure later loses them).  Messages dropped by the
        injected drop-filter *before* transmission are not counted.
        """
        src, dst = message.src, message.dst
        if src not in self._handlers or dst not in self._handlers:
            self._require(src)
            self._require(dst)

        if self._drop_filter is not None and self._drop_filter(message):
            self.metrics.record_drop("injected", message.msg_type._value_,
                                     src)
            return False

        self.sent += 1
        self.metrics.record_flow(message.phase._value_,
                                 message.msg_type._value_, src,
                                 message.txn_id)
        for hook in self.on_send:
            hook(message)

        if self._partitioned and self.is_partitioned(src, dst):
            self.metrics.record_drop("partition", message.msg_type._value_,
                                     src)
            return False

        delay = self.latency_model.latency(src, dst, self._rng)
        self._transmit(message, delay)
        if self.on_transmit:
            for hook in self.on_transmit:
                hook(message)
        return True

    def _transmit(self, message: Message, delay: float) -> None:
        """Put an accepted message on the wire.

        This is the transport seam: the base class schedules simulated
        delivery (FIFO-clamped per link, possibly rewritten by an
        adversary); ``repro.transport`` subclasses override it to write
        real TCP frames and feed arrivals back through ``_deliver``.
        Everything before this point (flow accounting, drop filters,
        partitions, hooks) is transport-independent.
        """
        # Each plan is one scheduled arrival; an adversary may rewrite
        # the default single in-order one.  FIFO-respecting plans take
        # (and advance) the link clamp; non-FIFO plans bypass it, which
        # is how reordering and stale delivery violate the session
        # guarantee on purpose.
        plans = (None if self.adversary is None
                 else self.adversary.plan(message, delay))
        link = (message.src, message.dst)
        for extra, in_order in _IN_ORDER if plans is None else plans:
            arrival = self.simulator.now + delay + extra
            if in_order and self.fifo:
                arrival = max(arrival, self._last_delivery.get(link, 0.0))
                self._last_delivery[link] = arrival
            delivery = Delivery(self._deliver, message)
            self.simulator.at(arrival, delivery, name=delivery)

    def _deliver(self, message: Message) -> None:
        # Re-check the partition at delivery time: a partition that forms
        # while the message is in flight loses it, matching real links.
        if self._partitioned and self.is_partitioned(message.src,
                                                     message.dst):
            self.metrics.record_drop("partition", message.msg_type._value_,
                                     message.src)
            return
        if not self._alive[message.dst]():
            self.metrics.record_drop("crashed", message.msg_type._value_,
                                     message.src)
            return
        self.delivered += 1
        for hook in self.on_deliver:
            hook(message)
        self._handlers[message.dst](message)
        if self.on_handled:
            for hook in self.on_handled:
                hook(message)
