"""Unit tests for the batched binary handoff codec (repro.fleet.wire)."""

import json
import math
import pickle

import pytest

from repro.core.envelope import Envelope, Stanza, canonical_json, freeze_message
from repro.core.shard import Handoff
from repro.fleet.wire import MAGIC, WireError, decode_batch, encode_batch


class _Weird:
    """A stanza that is not a message tree at all."""


def _env(payload, trace_id=0, origin_ms=0.0, hop_span=0):
    envelope = Envelope(freeze_message(payload))
    envelope.trace_id = trace_id
    envelope.origin_ms = origin_ms
    envelope.hop_span = hop_span
    return envelope


class TestRoundTrip:
    def test_empty_batch(self):
        frame = encode_batch([])
        assert frame[:3] == MAGIC
        assert decode_batch(frame) == []

    def test_plain_stanza_batch(self):
        batch = [
            Handoff(12.5, 1, "device-1@pogo", "fleet@pogo",
                    Stanza({"kind": "message", "body": "hi", "n": 3})),
            Handoff(12.5, 2, "device-2@pogo", "fleet@pogo",
                    Stanza({"kind": "message", "body": "yo", "n": 4})),
        ]
        out = decode_batch(encode_batch(batch))
        assert out == batch
        assert all(isinstance(h.stanza, Stanza) for h in out)

    def test_submit_ms_none_is_rejected_at_encode(self):
        # Every handoff a shard egresses carries its submit time; one
        # without it could not be placed by the receiving shard.
        batch = [Handoff(None, 7, "a@pogo", "b@pogo", {"kind": "presence"})]
        with pytest.raises(WireError, match="seq 7 from a@pogo has no submit time"):
            encode_batch(batch)

    def test_plain_dict_stays_plain(self):
        batch = [Handoff(1.0, 1, "a@pogo", "b@pogo", {"kind": "iq", "x": 1})]
        (out,) = decode_batch(encode_batch(batch))
        assert type(out.stanza) is dict
        assert out.stanza == batch[0].stanza

    def test_jids_are_interned_once(self):
        batch = [
            Handoff(float(i), i, "sender@pogo", "receiver@pogo",
                    {"kind": "message", "i": i})
            for i in range(50)
        ]
        frame = encode_batch(batch)
        assert decode_batch(frame) == batch
        # Interning + compression: far below one JID copy per record.
        naive = sum(len("sender@pogo") + len("receiver@pogo") for _ in batch)
        assert len(frame) < naive

    def test_decoded_stanza_json_cache_is_seeded(self):
        stanza = Stanza({"kind": "message", "body": "cached"})
        expected = canonical_json(stanza)
        (out,) = decode_batch(
            encode_batch([Handoff(5.0, 1, "a@pogo", "b@pogo", stanza)])
        )
        # Receiver must not re-serialize: the cache holds the wire text.
        assert out.stanza._json == expected


class TestEnvelopeSidecar:
    def test_envelope_position_and_trace_fields_survive(self):
        envelope = _env({"temp": 21.5}, trace_id=0xDEADBEEF,
                        origin_ms=123.25, hop_span=7)
        stanza = Stanza({"kind": "message", "payload": envelope})
        (out,) = decode_batch(
            encode_batch([Handoff(9.0, 3, "a@pogo", "b@pogo", stanza)])
        )
        got = out.stanza["payload"]
        assert isinstance(got, Envelope)
        assert got.trace_id == 0xDEADBEEF
        assert got.origin_ms == 123.25
        assert got.hop_span == 7
        assert got.payload == {"temp": 21.5}

    def test_envelope_nested_in_list_survives(self):
        stanza = {
            "kind": "batch",
            "items": [
                {"e": _env({"a": 1}, trace_id=1)},
                {"e": _env({"b": 2}, trace_id=2)},
            ],
        }
        (out,) = decode_batch(
            encode_batch([Handoff(1.0, 1, "a@pogo", "b@pogo", stanza)])
        )
        first = out.stanza["items"][0]["e"]
        second = out.stanza["items"][1]["e"]
        assert isinstance(first, Envelope) and first.trace_id == 1
        assert isinstance(second, Envelope) and second.trace_id == 2
        assert first.payload == {"a": 1}

    def test_envelope_payload_containers_come_back_plain(self):
        # Same contract as the pickle path it replaces: frozen payload
        # containers decode as plain dicts/lists.
        envelope = _env({"readings": [1, 2, 3], "meta": {"x": "y"}})
        stanza = Stanza({"kind": "message", "payload": envelope})
        (out,) = decode_batch(
            encode_batch([Handoff(0.5, 1, "a@pogo", "b@pogo", stanza)])
        )
        payload = out.stanza["payload"].payload
        assert payload == {"readings": [1, 2, 3], "meta": {"x": "y"}}


class TestUnfaithfulStanza:
    """A stanza JSON would not give back equal is refused at encode —
    loudly, naming the handoff — rather than carried some other way."""

    @staticmethod
    def _refused(stanza):
        with pytest.raises(WireError) as excinfo:
            encode_batch([Handoff(1.0, 41, "odd-sender@pogo", "b@pogo", stanza)])
        message = str(excinfo.value)
        assert "odd-sender@pogo" in message
        assert "seq 41" in message

    def test_tuple_leaf_is_a_wire_error(self):
        self._refused({"kind": "odd", "pair": (1, 2)})

    def test_non_string_key_is_a_wire_error(self):
        self._refused({"kind": "odd", 3: "three"})

    def test_non_dict_stanza_is_a_wire_error(self):
        self._refused(_Weird())

    def test_unfaithful_record_in_a_batch_is_the_one_named(self):
        batch = [
            Handoff(1.0, 1, "a@pogo", "b@pogo",
                    Stanza({"kind": "message", "n": 1})),
            Handoff(2.0, 2, "c@pogo", "b@pogo", {"kind": "odd", "t": (1,)}),
        ]
        with pytest.raises(WireError, match="seq 2 from c@pogo"):
            encode_batch(batch)


class TestFrameValidation:
    def test_bad_magic_is_rejected(self):
        with pytest.raises(WireError, match="magic"):
            decode_batch(b"XXX\x00\x00\x00\x00\x00")

    def test_retired_pickle_flag_is_rejected(self):
        # Record flag 0x02 used to mean "the body is a pickle".  A frame
        # that sets it must be refused before its bytes are interpreted.
        frame = bytearray(encode_batch(
            [Handoff(1.0, 1, "a@pogo", "b@pogo", {"kind": "message"})]
        ))
        assert frame[3] == 0  # stored raw, so offsets below are the body's
        flags_at = 4 + 4 + (2 + len("a@pogo")) + (2 + len("b@pogo")) + 4
        assert frame[flags_at] == 0
        # ...and 0x01 said "this record has a submit time"; all do now.
        for retired in (0x02, 0x01):
            frame[flags_at] = retired
            with pytest.raises(WireError, match="flags"):
                decode_batch(bytes(frame))

    def test_trailing_bytes_are_rejected(self):
        frame = encode_batch(
            [Handoff(1.0, 1, "a@pogo", "b@pogo", {"kind": "message"})]
        )
        assert frame[3] == 0  # small frame: stored raw, safe to append to
        with pytest.raises(WireError, match="trailing"):
            decode_batch(frame + b"junk")

    def test_decompressed_length_mismatch_is_rejected(self):
        big = [
            Handoff(float(i), i, "a@pogo", "b@pogo",
                    {"kind": "message", "body": "x" * 50})
            for i in range(10)
        ]
        frame = bytearray(encode_batch(big))
        assert frame[3] == 1  # compressed
        frame[4:8] = (9999).to_bytes(4, "little")
        with pytest.raises(WireError, match="decompressed"):
            decode_batch(bytes(frame))

    def test_large_batch_compresses(self):
        big = [
            Handoff(float(i), i, f"device-{i}@pogo", "fleet@pogo",
                    Stanza({"kind": "message", "body": "battery=77%", "i": i}))
            for i in range(200)
        ]
        frame = encode_batch(big)
        assert frame[3] == 1
        assert decode_batch(frame) == big
        pickled = sum(
            len(pickle.dumps(h, protocol=pickle.HIGHEST_PROTOCOL)) for h in big
        )
        assert len(frame) * 5 <= pickled  # the ISSUE's ≥5x reduction floor

    def test_nan_survives_structurally(self):
        (out,) = decode_batch(
            encode_batch([Handoff(1.0, 1, "a@pogo", "b@pogo",
                                  {"kind": "m", "v": math.nan})])
        )
        assert math.isnan(out.stanza["v"])
