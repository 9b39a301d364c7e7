"""Topic-based publish/subscribe broker with parameterized subscriptions.

This is the core abstraction of the paper (Sections 3.5 and 4.3):

* components publish messages on named **channels**;
* subscriptions may carry a **parameter object** ("a script may request
  location updates, but only from the GPS sensor ... the scanning
  interval in this case is also passed using the parameters");
* subscriptions can be deactivated and reactivated (``release`` /
  ``renew`` — RogueFinder toggles its Wi-Fi subscription this way);
* **publishers can observe the subscription set** of their channels:
  "sensors [can] listen for changes in subscriptions to the channels they
  publish on.  Sensors can enable or disable scanning based on this
  information" — the energy argument for choosing pub/sub over tuple
  spaces (Section 3.5).

Delivery is pluggable: stand-alone brokers deliver synchronously, while a
broker owned by a Pogo context routes deliveries through the node's
scheduler so that script handlers are serialized and watchdogged.
"""

from __future__ import annotations

import itertools
import sys
from typing import Any, Callable, Dict, List, Optional

from .envelope import Envelope
from .messages import validate_message

#: Signature of subscription-change listeners: (channel, subscription, change)
SubscriptionListener = Callable[[str, "Subscription", str], None]

#: Change kinds reported to subscription listeners.
SUB_ADDED = "added"
SUB_RELEASED = "released"
SUB_RENEWED = "renewed"
SUB_REMOVED = "removed"


class Subscription:
    """A handle to one subscription, as returned by ``subscribe()``.

    Mirrors Table 1's ``Subscription`` object: ``release()`` deactivates,
    ``renew()`` reactivates; both are idempotent ("these methods have no
    effect when the subscription is inactive or active respectively").
    """

    __slots__ = (
        "id", "_broker", "channel", "handler", "parameters", "owner", "active",
        "removed", "delivery_count",
    )

    def __init__(
        self,
        broker: "Broker",
        channel: str,
        handler: Callable[[Any], None],
        parameters: Optional[Dict[str, Any]] = None,
        owner: Optional[str] = None,
    ) -> None:
        # Ids are per-broker (see Broker._next_sub_id): deterministic
        # across simulations in one process, unique within a context.
        self.id = broker._next_sub_id()
        self._broker = broker
        self.channel = channel
        self.handler = handler
        self.parameters = dict(parameters) if parameters else {}
        #: Identifies the subscribing component (script name, link id);
        #: used for cleanup when a script stops.
        self.owner = owner
        self.active = True
        self.removed = False
        self.delivery_count = 0

    def release(self) -> None:
        """Deactivate: no deliveries until :meth:`renew`."""
        if self.removed or not self.active:
            return
        self.active = False
        self._broker._notify(self.channel, self, SUB_RELEASED)

    def renew(self) -> None:
        """Reactivate a released subscription."""
        if self.removed or self.active:
            return
        self.active = True
        self._broker._notify(self.channel, self, SUB_RENEWED)

    def remove(self) -> None:
        """Permanently remove the subscription from the broker."""
        if self.removed:
            return
        self.removed = True
        self.active = False
        self._broker._remove(self)

    def parameter(self, key: str, default: Any = None) -> Any:
        return self.parameters.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "removed" if self.removed else ("active" if self.active else "released")
        return f"<Subscription #{self.id} {self.channel!r} {state} params={self.parameters}>"


def _default_deliver(subscription: "Subscription", message: Any) -> None:
    """Default delivery: call the handler directly (picklable, unlike a
    lambda — brokers live inside the Shard snapshot graph)."""
    subscription.handler(message)


class Broker:
    """A topic broker for one context (or one sensor manager)."""

    __slots__ = (
        "name", "_sub_ids", "_subscriptions", "_active_index", "_channel_watchers",
        "_global_watchers", "_deliver", "publish_count", "delivery_count",
        "_m_publishes", "_m_deliveries", "_m_copies_avoided", "_spans", "_h_fanout",
    )

    def __init__(
        self,
        name: str = "broker",
        deliver: Optional[Callable[[Subscription, Any], None]] = None,
        metrics=None,
        spans=None,
    ) -> None:
        self.name = name
        self._sub_ids = itertools.count(1)
        self._subscriptions: Dict[str, List[Subscription]] = {}
        #: Subscription index: interned topic -> the pre-filtered list of
        #: active subscriptions, built lazily on publish and invalidated
        #: (entry dropped) on any subscription change for that channel.
        #: Publish cost is therefore independent of how many released or
        #: foreign-channel subscriptions the broker carries.
        self._active_index: Dict[str, List[Subscription]] = {}
        self._channel_watchers: Dict[str, List[SubscriptionListener]] = {}
        self._global_watchers: List[SubscriptionListener] = []
        self._deliver = deliver or _default_deliver
        self.publish_count = 0
        self.delivery_count = 0
        # Pre-bound metric counters (kernel metrics plane); None-guarded so
        # stand-alone brokers in unit tests work without a kernel.
        self._m_publishes = metrics.counter("broker.publishes") if metrics else None
        self._m_deliveries = metrics.counter("broker.deliveries") if metrics else None
        self._m_copies_avoided = metrics.counter("broker.copies_avoided") if metrics else None
        # Pre-bound tracing handle (kernel span plane), same None-guard.
        self._spans = spans
        self._h_fanout = spans.hop("broker.fanout") if spans else None

    def _next_sub_id(self) -> int:
        return next(self._sub_ids)

    # ------------------------------------------------------------------
    # Subscribing
    # ------------------------------------------------------------------
    def subscribe(
        self,
        channel: str,
        handler: Callable[[Any], None],
        parameters: Optional[Dict[str, Any]] = None,
        owner: Optional[str] = None,
    ) -> Subscription:
        """Create an active subscription on ``channel``."""
        if not channel or not isinstance(channel, str):
            raise ValueError(f"invalid channel name: {channel!r}")
        # Interning gives every equal topic string one identity, so the
        # per-publish index lookup takes the dict's pointer-comparison
        # fast path instead of hashing/comparing characters.
        channel = sys.intern(channel)
        if parameters is not None:
            validate_message(parameters)
        subscription = Subscription(self, channel, handler, parameters, owner)
        self._subscriptions.setdefault(channel, []).append(subscription)
        self._notify(channel, subscription, SUB_ADDED)
        return subscription

    def _remove(self, subscription: Subscription) -> None:
        subs = self._subscriptions.get(subscription.channel, [])
        if subscription in subs:
            subs.remove(subscription)
            if not subs:
                del self._subscriptions[subscription.channel]
        self._notify(subscription.channel, subscription, SUB_REMOVED)

    def remove_owned_by(self, owner: str) -> int:
        """Remove every subscription created by ``owner`` (script stop)."""
        doomed = [
            s
            for subs in self._subscriptions.values()
            for s in subs
            if s.owner == owner
        ]
        for subscription in doomed:
            subscription.remove()
        return len(doomed)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, channel: str, message: Any) -> int:
        """Deliver ``message`` to all active subscriptions on ``channel``.

        The message is wrapped in an :class:`Envelope` — validated once,
        frozen — and every subscriber receives the *same* immutable view,
        so handlers cannot interfere with one another (mutation raises
        instead of silently diverging; handlers that edit take
        ``message.copy()``).  Returns the number of deliveries.
        """
        envelope = Envelope.wrap(message)
        payload = envelope.payload
        self.publish_count += 1
        if self._m_publishes is not None:
            self._m_publishes.inc()
        subs = self._active_index.get(channel)
        if subs is None:
            subs = self._active_subs(channel)
        delivered = 0
        # The index entry is replaced (never mutated) on invalidation, so
        # iterating it has snapshot semantics; the per-subscription active
        # check preserves the old behaviour for handlers that release a
        # later subscription mid-fanout.
        for subscription in subs:
            if not subscription.active:
                continue
            subscription.delivery_count += 1
            self.delivery_count += 1
            delivered += 1
            self._deliver(subscription, payload)
        if delivered:
            if self._m_deliveries is not None:
                self._m_deliveries.inc(delivered)
            # One shared frozen view replaced `delivered` deep copies.
            if self._m_copies_avoided is not None:
                self._m_copies_avoided.inc(delivered)
        if self._h_fanout is not None and self._spans.enabled:
            now = self._spans.now()
            span_id = self._h_fanout.record(
                self._spans.tag(envelope),
                envelope.hop_span,
                now,
                now,
                {"channel": channel, "deliveries": delivered},
            )
            if span_id:
                envelope.hop_span = span_id
        return delivered

    # ------------------------------------------------------------------
    # Introspection (what sensors use to duty-cycle)
    # ------------------------------------------------------------------
    def _active_subs(self, channel: str) -> List[Subscription]:
        """The index entry for ``channel``, built on first use."""
        subs = self._active_index.get(channel)
        if subs is None:
            subs = self._active_index[sys.intern(channel)] = [
                s for s in self._subscriptions.get(channel, ()) if s.active
            ]
        return subs

    def subscriptions(self, channel: str, active_only: bool = True) -> List[Subscription]:
        if active_only:
            return list(self._active_subs(channel))
        return list(self._subscriptions.get(channel, []))

    def has_subscribers(self, channel: str) -> bool:
        return bool(self._active_subs(channel))

    def channels(self) -> List[str]:
        return sorted(self._subscriptions)

    def all_subscriptions(self) -> List[Subscription]:
        return [s for subs in self._subscriptions.values() for s in subs]

    # ------------------------------------------------------------------
    # Subscription-change notification
    # ------------------------------------------------------------------
    def watch_channel(self, channel: str, listener: SubscriptionListener) -> None:
        """Be notified of subscription changes on one channel (sensors)."""
        self._channel_watchers.setdefault(channel, []).append(listener)

    def watch_all(self, listener: SubscriptionListener) -> None:
        """Be notified of every subscription change (context links)."""
        self._global_watchers.append(listener)

    def unwatch_all(self, listener: SubscriptionListener) -> None:
        if listener in self._global_watchers:
            self._global_watchers.remove(listener)

    def _notify(self, channel: str, subscription: Subscription, change: str) -> None:
        # Every change kind (add/release/renew/remove) can alter the
        # active set, so drop the channel's index entry before listeners
        # run — a listener may publish and rebuild it immediately.
        self._active_index.pop(channel, None)
        for listener in list(self._channel_watchers.get(channel, [])):
            listener(channel, subscription, change)
        for listener in list(self._global_watchers):
            listener(channel, subscription, change)
