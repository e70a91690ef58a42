"""Communication links: constant or degraded delay, loss, reliability.

The paper models the long-haul network between each local site and the
central complex as a fixed communications delay (0.2 s in the base case,
0.5 s in the sensitivity study) and *requires* that asynchronous update
messages from a given site are processed at the central site in the order
they were originated (Section 2).  A healthy :class:`Link` provides
exactly that: constant latency, hence FIFO delivery per link.

Messages are arbitrary Python objects; delivery deposits them into the
destination's :class:`~repro.sim.resources.Store` mailbox.

Two extensions support the fault-injection subsystem
(:mod:`repro.sim.faults`):

* a link can be *degraded* (:meth:`Link.set_fault`): messages are dropped
  with a given probability at send time and delivery delays gain a
  multiplicative factor plus uniform jitter.  The link hands each
  message over the moment it arrives, so a jittered message can overtake
  its predecessor;
* :class:`ReliableEndpoint` layers a TCP-like reliability protocol over a
  lossy link pair: per-message sequence numbers, cumulative
  acknowledgements, timeout-based retransmission with exponential backoff,
  and receiver-side deduplication plus hold-back reassembly -- giving
  exactly-once, in-order delivery of application messages no matter how
  lossy or jittered the underlying links are.

Under a fault plan every application message rides a reliable channel,
so the channel is the one mechanism that restores send order; only
acknowledgements and heartbeats travel unframed, and neither depends on
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from .engine import Environment
from .resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

__all__ = ["Link", "Message", "ReliableEndpoint", "ACK_KIND"]

#: Message kind used by :class:`ReliableEndpoint` acknowledgement frames.
ACK_KIND = "chan-ack"


@dataclass(slots=True)
class Message:
    """An envelope carried over a :class:`Link`.

    ``kind`` is a short tag for traces and acknowledgement frames (the
    receiver dispatches on the payload's type) and ``payload`` carries
    protocol-specific content.  ``rel_seq`` is the reliability sequence
    number stamped by a :class:`ReliableEndpoint` (``None`` for messages
    sent outside a reliable channel).
    """

    kind: str
    payload: Any = None
    source: Any = None
    rel_seq: int | None = field(default=None)
    #: Channel incarnation the frame belongs to.  A crashed node loses
    #: its channel state; on rejoin both ends :meth:`ReliableEndpoint.reset`
    #: to a new incarnation and frames (including acks) from the old one
    #: are discarded rather than confused with the fresh sequence space.
    rel_inc: int = field(default=0)


class Link:
    """One-way link with propagation delay.

    With a constant delay delivery is FIFO (the event calendar is
    stable).  Under fault injection messages may be dropped and delays
    are scaled and jittered, so a message can arrive before one sent
    earlier; it still lands in :attr:`mailbox` on arrival, and the
    :class:`ReliableEndpoint` reading that mailbox puts application
    messages back in send order.
    """

    def __init__(self, env: Environment, delay: float,
                 name: str = "link") -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.delay = float(delay)
        self.name = name
        self.mailbox = Store(env)
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        # Degradation state (set by the fault injector).
        self._drop_probability = 0.0
        self._jitter = 0.0
        self._delay_factor = 1.0
        self._rng: "random.Random | None" = None
        #: True while :meth:`set_fault` has left the link lossy, jittered
        #: or slowed (kept current by :meth:`set_fault`/:meth:`clear_fault`).
        self.degraded = False
        #: Optional observer invoked with each dropped message.
        self.on_drop: Callable[[Message], None] | None = None

    # -- degradation ---------------------------------------------------------

    def set_fault(self, drop_probability: float = 0.0, jitter: float = 0.0,
                  delay_factor: float = 1.0,
                  rng: "random.Random | None" = None) -> None:
        """Degrade the link (probabilistic loss, jittered/scaled delay).

        ``rng`` supplies the randomness for drop decisions and jitter;
        it must be provided whenever ``drop_probability`` or ``jitter``
        is non-zero so runs stay deterministic under a fixed seed.
        """
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], "
                f"got {drop_probability}")
        if jitter < 0 or delay_factor <= 0:
            raise ValueError(
                f"invalid degradation (jitter {jitter}, "
                f"delay_factor {delay_factor})")
        if rng is None and (0.0 < drop_probability < 1.0 or jitter > 0):
            raise ValueError("randomised degradation requires an rng")
        self._drop_probability = drop_probability
        self._jitter = jitter
        self._delay_factor = delay_factor
        self._rng = rng
        self.degraded = (drop_probability > 0.0 or jitter > 0.0 or
                         delay_factor != 1.0)

    def clear_fault(self) -> None:
        """Restore the healthy constant-delay, loss-free behaviour."""
        self._drop_probability = 0.0
        self._jitter = 0.0
        self._delay_factor = 1.0
        self._rng = None
        self.degraded = False

    # -- transmission --------------------------------------------------------

    def send(self, message: Message) -> None:
        """Transmit ``message`` to :attr:`mailbox`.

        It arrives after the link's delay, scaled and jittered while the
        link is degraded; a degraded link may drop it instead.
        """
        self.messages_sent += 1
        delay = self.delay
        if self.degraded:
            if self._drop_probability >= 1.0 or (
                    self._drop_probability > 0.0 and
                    self._rng.random() < self._drop_probability):
                self.messages_dropped += 1
                if self.on_drop is not None:
                    self.on_drop(message)
                return
            delay = delay * self._delay_factor
            if self._jitter > 0.0:
                delay += self._rng.uniform(0.0, self._jitter)
        self.env.timer(delay, partial(self._hand_over, message))

    def _hand_over(self, message: Message) -> None:
        self.messages_delivered += 1
        self.mailbox.put(message)

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet delivered (dropped ones excluded)."""
        return (self.messages_sent - self.messages_delivered -
                self.messages_dropped)


class ReliableEndpoint:
    """One end of a reliable, in-order message channel over lossy links.

    Both ends of a site<->central link pair own a ``ReliableEndpoint``
    whose ``out_link`` is their sending link.  Application messages get a
    per-channel sequence number (``rel_seq``) and are retransmitted on a
    timeout with exponential backoff (capped, *unbounded* retries: the
    protocol's commit/release orders must eventually arrive or master
    locks would leak forever -- bounded give-up belongs at the
    transaction level, not the transport level).  The receiver
    deduplicates, reassembles in order through a hold-back buffer, and
    answers every incoming frame with a cumulative acknowledgement.

    The owner's dispatch loop feeds every raw frame from its inbound
    mailbox to :meth:`pump`, which returns the application messages that
    became deliverable (in order, exactly once).
    """

    def __init__(self, env: Environment, out_link: Link, name: str,
                 timeout: float, backoff: float = 2.0,
                 max_timeout: float = 8.0,
                 on_retransmit: Callable[[Message], None] | None = None,
                 on_duplicate: Callable[[Message], None] | None = None):
        if timeout <= 0 or backoff < 1.0 or max_timeout < timeout:
            raise ValueError(
                f"invalid retransmission policy (timeout {timeout}, "
                f"backoff {backoff}, max {max_timeout})")
        self.env = env
        self.out_link = out_link
        self.name = name
        self.timeout = float(timeout)
        self.backoff = float(backoff)
        self.max_timeout = float(max_timeout)
        self.on_retransmit = on_retransmit
        self.on_duplicate = on_duplicate
        self._next_seq = 0
        #: Unacknowledged sends, in ``rel_seq`` order: rel_seq ->
        #: (message, current retransmission timeout).
        self._unacked: dict[int, tuple[Message, float]] = {}
        self._recv_delivered = -1
        self._holdback: dict[int, Message] = {}
        self.incarnation = 0
        self.retransmits = 0
        self.duplicates_discarded = 0
        self.acks_sent = 0
        self.stale_frames = 0

    # -- sending -------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Transmit an application message reliably."""
        seq = self._next_seq
        self._next_seq += 1
        message.rel_seq = seq
        message.rel_inc = self.incarnation
        self._unacked[seq] = (message, self.timeout)
        self.out_link.send(message)
        self.env.timer(self.timeout,
                       partial(self._retransmit, seq, self.incarnation))

    def _retransmit(self, seq: int, incarnation: int) -> float | None:
        """Retransmission timer action for one message.

        Resends the frame and returns the next, backed-off delay; returns
        ``None`` (ending the timer) once the frame is acknowledged,
        abandoned or belongs to a previous incarnation.
        """
        if incarnation != self.incarnation:
            return None
        entry = self._unacked.get(seq)
        if entry is None:
            return None
        message, delay = entry
        delay = min(delay * self.backoff, self.max_timeout)
        self._unacked[seq] = (message, delay)
        self.retransmits += 1
        if self.on_retransmit is not None:
            self.on_retransmit(message)
        self.out_link.send(message)
        return delay

    @property
    def unacked(self) -> int:
        """Application messages sent but not yet acknowledged."""
        return len(self._unacked)

    def abandon(self) -> None:
        """Give up on every unacknowledged send (peer is gone for good).

        Used at failover: once a site re-points at the standby it will
        never talk to the dead primary again, so retransmitting to it
        forever is pure noise.  Retransmission timers see the empty
        table and end at their next firing.
        """
        self._unacked.clear()

    def reset(self, incarnation: int) -> None:
        """Restart the channel in a new incarnation (crash recovery).

        Drops all send *and* receive state: unacked messages of the old
        incarnation are gone (application-level recovery decides what to
        resend), the sequence spaces restart at zero, and frames still
        in flight from the old incarnation -- including its acks, whose
        cumulative sequence numbers would otherwise retire fresh sends
        -- are discarded by :meth:`pump`.  Both ends of a channel must
        be reset to the same incarnation together.
        """
        self.incarnation = incarnation
        self._unacked.clear()
        self._holdback.clear()
        self._next_seq = 0
        self._recv_delivered = -1

    # -- receiving -----------------------------------------------------------

    def pump(self, message: Message) -> list[Message]:
        """Process one raw inbound frame; return deliverable app messages.

        Acknowledgement frames retire unacked sends and yield nothing.
        Application frames are deduplicated and reassembled in ``rel_seq``
        order; every one (fresh or duplicate) triggers a cumulative ack
        so the peer's retransmission timers converge.
        """
        if message.kind == ACK_KIND:
            if message.rel_inc != self.incarnation:
                self.stale_frames += 1
                return []
            # Keys are inserted in rel_seq order, so the acknowledged
            # frames are exactly a prefix of the table.
            acked_through = message.payload
            unacked = self._unacked
            while unacked:
                seq = next(iter(unacked))
                if seq > acked_through:
                    break
                del unacked[seq]
            return []
        seq = message.rel_seq
        if seq is None:
            # Not channel-framed: a heartbeat, deliberately unreliable
            # and order-free; pass through untouched.
            return [message]
        if message.rel_inc != self.incarnation:
            # A frame from a previous channel incarnation (pre-crash);
            # its sequence numbers mean nothing now.  Drop without ack:
            # the old incarnation's timers are already abandoned.
            self.stale_frames += 1
            return []
        deliverable: list[Message] = []
        if seq <= self._recv_delivered or seq in self._holdback:
            self.duplicates_discarded += 1
            if self.on_duplicate is not None:
                self.on_duplicate(message)
        else:
            self._holdback[seq] = message
            while self._recv_delivered + 1 in self._holdback:
                self._recv_delivered += 1
                deliverable.append(
                    self._holdback.pop(self._recv_delivered))
        self._send_ack()
        return deliverable

    def _send_ack(self) -> None:
        self.acks_sent += 1
        self.out_link.send(Message(kind=ACK_KIND,
                                   payload=self._recv_delivered,
                                   rel_inc=self.incarnation))
