"""Unit tests for the publish/subscribe broker."""

import pytest

from repro.core.broker import (
    SUB_ADDED,
    SUB_RELEASED,
    SUB_REMOVED,
    SUB_RENEWED,
    Broker,
)
from repro.core.messages import MessageError


def test_publish_reaches_subscribers():
    broker = Broker()
    got = []
    broker.subscribe("ch", got.append)
    delivered = broker.publish("ch", {"n": 1})
    assert delivered == 1
    assert got == [{"n": 1}]


def test_publish_without_subscribers_is_fine():
    broker = Broker()
    assert broker.publish("nobody", {"n": 1}) == 0


def test_subscribers_share_an_immutable_view():
    """Deliveries are one shared frozen view: mutation raises instead of
    silently diverging between subscribers; ``copy()`` is the escape hatch."""
    broker = Broker()
    first, second = [], []
    broker.subscribe("ch", first.append)
    broker.subscribe("ch", second.append)
    broker.publish("ch", {"list": [1]})
    with pytest.raises(MessageError):
        first[0]["list"].append(2)
    with pytest.raises(MessageError):
        first[0]["extra"] = True
    assert second[0]["list"] == [1]
    mutable = first[0].copy()
    mutable["extra"] = True
    assert "extra" not in second[0]


def test_release_and_renew():
    broker = Broker()
    got = []
    sub = broker.subscribe("ch", got.append)
    sub.release()
    broker.publish("ch", {"n": 1})
    assert got == []
    sub.renew()
    broker.publish("ch", {"n": 2})
    assert got == [{"n": 2}]


def test_release_renew_idempotent():
    """Table 1: "these methods have no effect when the subscription is
    inactive or active respectively"."""
    broker = Broker()
    changes = []
    broker.watch_all(lambda ch, sub, change: changes.append(change))
    sub = broker.subscribe("ch", lambda m: None)
    sub.release()
    sub.release()
    sub.renew()
    sub.renew()
    assert changes == [SUB_ADDED, SUB_RELEASED, SUB_RENEWED]


def test_removed_subscription_cannot_be_revived():
    broker = Broker()
    got = []
    sub = broker.subscribe("ch", got.append)
    sub.remove()
    sub.renew()
    broker.publish("ch", {"n": 1})
    assert got == []
    assert not broker.has_subscribers("ch")


def test_parameters_stored_and_queryable():
    broker = Broker()
    sub = broker.subscribe("locations", lambda m: None, {"provider": "GPS", "interval": 60000})
    assert sub.parameter("provider") == "GPS"
    assert sub.parameter("missing", "default") == "default"
    assert broker.subscriptions("locations")[0].parameters["interval"] == 60000


def test_invalid_parameters_rejected():
    broker = Broker()
    with pytest.raises(MessageError):
        broker.subscribe("ch", lambda m: None, {"bad": object()})


def test_invalid_channel_rejected():
    broker = Broker()
    with pytest.raises(ValueError):
        broker.subscribe("", lambda m: None)
    with pytest.raises(ValueError):
        broker.subscribe(None, lambda m: None)


def test_channel_watchers_see_changes():
    broker = Broker()
    events = []
    broker.watch_channel("wifi-scan", lambda ch, sub, change: events.append((ch, change)))
    sub = broker.subscribe("wifi-scan", lambda m: None)
    broker.subscribe("other", lambda m: None)  # not watched
    sub.release()
    sub.remove()
    assert events == [
        ("wifi-scan", SUB_ADDED),
        ("wifi-scan", SUB_RELEASED),
        ("wifi-scan", SUB_REMOVED),
    ]


def test_has_subscribers_respects_active_state():
    """The sensor duty-cycling primitive (Section 4.3)."""
    broker = Broker()
    sub = broker.subscribe("wifi-scan", lambda m: None)
    assert broker.has_subscribers("wifi-scan")
    sub.release()
    assert not broker.has_subscribers("wifi-scan")
    sub.renew()
    assert broker.has_subscribers("wifi-scan")


def test_remove_owned_by():
    broker = Broker()
    broker.subscribe("a", lambda m: None, owner="script:x")
    broker.subscribe("b", lambda m: None, owner="script:x")
    keep = broker.subscribe("a", lambda m: None, owner="script:y")
    removed = broker.remove_owned_by("script:x")
    assert removed == 2
    assert broker.all_subscriptions() == [keep]


def test_channels_listing():
    broker = Broker()
    broker.subscribe("b", lambda m: None)
    broker.subscribe("a", lambda m: None)
    assert broker.channels() == ["a", "b"]


def test_delivery_counters():
    broker = Broker()
    sub = broker.subscribe("ch", lambda m: None)
    broker.publish("ch", 1)
    broker.publish("ch", 2)
    assert sub.delivery_count == 2
    assert broker.publish_count == 2
    assert broker.delivery_count == 2


def test_unsubscribe_during_publish_is_safe():
    broker = Broker()
    got = []
    subs = []

    def handler_that_removes(message):
        got.append(message)
        subs[0].remove()

    subs.append(broker.subscribe("ch", handler_that_removes))
    broker.subscribe("ch", got.append)
    broker.publish("ch", 1)
    broker.publish("ch", 2)
    assert got == [1, 1, 2]
