"""Unit tests for the handoff frame (repro.fleet.wire): a whole-batch
pickle, so the receiver gets copies of the sender's own objects."""

import math

import pytest

from repro.core.envelope import Envelope, FrozenDict, FrozenList, MessageError, freeze_message
from repro.core.shard import Handoff
from repro.fleet.wire import decode_batch, encode_batch


def _env(payload, trace_id=0, origin_ms=0.0, hop_span=0):
    envelope = Envelope(freeze_message(payload))
    envelope.trace_id = trace_id
    envelope.origin_ms = origin_ms
    envelope.hop_span = hop_span
    return envelope


def _cross(stanza):
    """``stanza`` as the receiving shard gets it: one handoff, one frame."""
    (out,) = decode_batch(
        encode_batch([Handoff(1.0, 1, "a@pogo", "b@pogo", stanza)])
    )
    return out.stanza


class TestRoundTrip:
    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_plain_stanza_batch(self):
        batch = [
            Handoff(12.5, 1, "device-1@pogo", "fleet@pogo",
                    {"kind": "message", "body": "hi", "n": 3}),
            Handoff(12.5, 2, "device-2@pogo", "fleet@pogo",
                    {"kind": "message", "body": "yo", "n": 4}),
        ]
        out = decode_batch(encode_batch(batch))
        assert out == batch

    def test_plain_dict_stays_plain(self):
        stanza = {"kind": "iq", "x": 1}
        out = _cross(stanza)
        assert type(out) is dict
        assert out == stanza

    def test_nan_survives_structurally(self):
        assert math.isnan(_cross({"kind": "m", "v": math.nan})["v"])


class TestEnvelopeSidecar:
    """An envelope inside a stanza arrives as an envelope, where it was,
    with its trace fields: the receiving collector's span terminus reads
    them."""

    def test_envelope_position_and_trace_fields_survive(self):
        envelope = _env({"temp": 21.5}, trace_id=0xDEADBEEF,
                        origin_ms=123.25, hop_span=7)
        got = _cross({"kind": "message", "payload": envelope})["payload"]
        assert isinstance(got, Envelope)
        assert (got.trace_id, got.origin_ms, got.hop_span) == (0xDEADBEEF, 123.25, 7)
        assert got.payload == {"temp": 21.5}

    def test_envelope_nested_in_list_survives(self):
        stanza = {
            "kind": "batch",
            "items": [
                {"e": _env({"a": 1}, trace_id=1)},
                {"e": _env({"b": 2}, trace_id=2)},
            ],
        }
        first, second = (item["e"] for item in _cross(stanza)["items"])
        assert isinstance(first, Envelope) and first.trace_id == 1
        assert isinstance(second, Envelope) and second.trace_id == 2
        assert first.payload == {"a": 1}

    def test_envelope_payload_containers_come_back_frozen(self):
        # A handler that edits a received payload raises on either side
        # of the pipe: the partition never decides whether it succeeds.
        envelope = _env({"readings": [1, 2, 3], "meta": {"x": "y"}})
        payload = _cross({"kind": "message", "payload": envelope})["payload"].payload
        assert payload == {"readings": [1, 2, 3], "meta": {"x": "y"}}
        assert type(payload) is FrozenDict and type(payload["readings"]) is FrozenList
        with pytest.raises(MessageError):
            payload["readings"].append(3)
        with pytest.raises(MessageError):
            payload["meta"]["x"] = "z"
