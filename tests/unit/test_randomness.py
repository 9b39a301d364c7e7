"""Unit tests for named, seeded random streams."""

from repro.sim import RandomStreams, derive_seed


def test_same_seed_same_stream_reproduces():
    a = RandomStreams(42).stream("mobility")
    b = RandomStreams(42).stream("mobility")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    streams = RandomStreams(42)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_adding_consumers_does_not_perturb_existing_streams():
    lonely = RandomStreams(7)
    draws_without = [lonely.stream("x").random() for _ in range(5)]

    crowded = RandomStreams(7)
    crowded.stream("newcomer").random()
    draws_with = [crowded.stream("x").random() for _ in range(5)]
    assert draws_without == draws_with


def test_stream_is_cached():
    streams = RandomStreams(1)
    assert streams.stream("s") is streams.stream("s")


def test_contains():
    streams = RandomStreams(1)
    assert "s" not in streams
    streams.stream("s")
    assert "s" in streams


def test_derive_seed_distributes_adjacent_inputs():
    seeds = {derive_seed(i, "n") for i in range(100)}
    assert len(seeds) == 100
    seeds_by_name = {derive_seed(0, f"n{i}") for i in range(100)}
    assert len(seeds_by_name) == 100
