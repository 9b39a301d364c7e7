"""Unit tests for message validation, wire format and copying."""

import pytest

from repro.core.envelope import thaw_message
from repro.core.messages import (
    MessageError,
    from_json,
    message_size_bytes,
    to_json,
    validate_message,
)


def test_scalars_and_trees_validate():
    for value in (1, 1.5, "x", True, None, {"a": [1, {"b": None}]}, [1, 2, 3]):
        validate_message(value)


def test_invalid_types_rejected_with_path():
    with pytest.raises(MessageError) as exc:
        validate_message({"outer": {"inner": object()}})
    assert "$.outer.inner" in str(exc.value)
    with pytest.raises(MessageError) as exc:
        validate_message([1, [2, set()]])
    assert "[1][1]" in str(exc.value)


def test_non_string_keys_rejected():
    with pytest.raises(MessageError):
        validate_message({1: "x"})


def test_json_roundtrip():
    message = {"b": 1, "a": [True, None, 2.5], "c": {"nested": "x"}}
    assert from_json(to_json(message)) == message


def test_json_is_compact_and_sorted():
    text = to_json({"b": 1, "a": 2})
    assert text == '{"a":2,"b":1}'


def test_size_counts_utf8_bytes():
    assert message_size_bytes({"a": 1}) == len('{"a":1}')
    assert message_size_bytes({"a": "é"}) == len('{"a":"é"}'.encode("utf-8"))


def test_copy_is_deep_and_isolated():
    original = {"list": [1, 2], "map": {"k": "v"}}
    clone = thaw_message(original)
    clone["list"].append(3)
    clone["map"]["k"] = "changed"
    assert original == {"list": [1, 2], "map": {"k": "v"}}


def test_copy_converts_tuples_to_lists():
    assert thaw_message({"t": (1, 2)}) == {"t": [1, 2]}


# ---------------------------------------------------------------------------
# Tuple normalization: one observable shape regardless of delivery path
# ---------------------------------------------------------------------------


def test_tuple_payload_local_delivery_matches_json_roundtrip():
    """A tuple payload must look identical whether delivered locally
    (through the broker's frozen view) or remotely (via the wire)."""
    from repro.core.broker import Broker

    message = {"samples": (1, 2, 3), "nested": {"pair": ("a", "b")}}
    local = []
    broker = Broker()
    broker.subscribe("ch", local.append)
    broker.publish("ch", message)

    remote = from_json(to_json(message))

    assert local[0] == remote
    assert local[0]["samples"] == [1, 2, 3]
    assert remote["samples"] == [1, 2, 3]
    assert local[0]["nested"]["pair"] == ["a", "b"]


def test_tuple_normalized_at_ingest_not_just_on_copy():
    """freeze_message converts tuples to (frozen) lists up front, so the
    delivered object reports list semantics — isinstance, ==, json."""
    from repro.core.envelope import Envelope

    env = Envelope.wrap({"t": (1, 2)})
    assert isinstance(env.payload["t"], list)
    assert env.payload["t"] == [1, 2]
    assert env.json == '{"t":[1,2]}'
    assert thaw_message(env) == {"t": [1, 2]}


def test_tuple_wire_size_matches_list_wire_size():
    assert message_size_bytes({"t": (1, 2)}) == message_size_bytes({"t": [1, 2]})
