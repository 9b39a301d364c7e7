"""Unit tests for the store-and-forward buffer."""

import pytest

from repro.core.buffer import DEFAULT_MAX_AGE_MS, InMemoryStore, MessageBuffer
from repro.sim import HOUR, Kernel


@pytest.fixture(params=["memory"])
def store(request):
    """The buffer's one storage backend: flash modelled as a list."""
    return InMemoryStore


def test_enqueue_and_peek(store):
    kernel = Kernel()
    buffer = MessageBuffer(kernel)
    assert type(buffer.store) is store
    buffer.enqueue("collector@x", {"op": "pub", "n": 1})
    buffer.enqueue("collector@x", {"op": "pub", "n": 2})
    buffer.enqueue("other@x", {"op": "pub", "n": 3})
    batches = buffer.peek_batches()
    assert [dest for dest, _ in batches] == ["collector@x", "other@x"]
    assert [m.payload["n"] for m in batches[0][1]] == [1, 2]
    assert len(buffer) == 3


def test_mark_sent_removes(store):
    kernel = Kernel()
    buffer = MessageBuffer(kernel)
    assert type(buffer.store) is store
    buffer.enqueue("a", {"n": 1})
    buffer.enqueue("a", {"n": 2})
    (dest, messages), = buffer.peek_batches()
    buffer.mark_sent(messages)
    assert buffer.empty
    assert buffer.drained == 2


def test_expiry_drops_old_messages(store):
    """The 24-hour purge that lost user 2a's trip data (Section 5.3)."""
    kernel = Kernel()
    buffer = MessageBuffer(kernel, max_age_ms=DEFAULT_MAX_AGE_MS)
    assert type(buffer.store) is store
    buffer.enqueue("a", {"n": "old"})
    kernel.run_until(25 * HOUR)
    buffer.enqueue("a", {"n": "fresh"})
    (dest, messages), = buffer.peek_batches()
    assert buffer.expired == 1
    assert [m.payload["n"] for m in messages] == ["fresh"]


def test_peek_purges_implicitly(store):
    kernel = Kernel()
    buffer = MessageBuffer(kernel, max_age_ms=1000.0)
    assert type(buffer.store) is store
    buffer.enqueue("a", {"n": 1})
    kernel.run_until(2000.0)
    assert buffer.peek_batches() == []
    assert buffer.expired == 1


def test_counters(store):
    kernel = Kernel()
    buffer = MessageBuffer(kernel)
    assert type(buffer.store) is store
    for n in range(4):
        buffer.enqueue("a", {"n": n})
    assert buffer.enqueued == 4
