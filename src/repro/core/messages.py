"""Messages: trees of key/value pairs with a JSON wire format.

Section 4.3: "Messages are represented as a tree of key/value pairs,
which map directly onto JavaScript objects ... Messages are serialized to
JSON notation when they are to be delivered to a remote node."

In the Python reproduction messages are plain dicts/lists/scalars.  This
module provides validation (so scripts cannot publish un-serializable
objects and have them explode later inside the transport), canonical JSON
encoding and wire-size accounting (Table 4's "Size" columns measure
exactly these byte counts).  A handler that wants a mutable copy of a
delivered message takes ``message.copy()`` (shallow) or
:func:`~repro.core.envelope.thaw_message` (deep).

Since the envelope refactor the hot publish path carries
:class:`~repro.core.envelope.Envelope` objects instead of raw dicts —
validated once, frozen, with its wire size (and its canonical JSON, once
asked for) cached.  Every function here is envelope-aware: an envelope
answers from its cache.  A stanza that embeds envelopes (a batch of
pubs) is one call to the envelope module's encoder, which serialises
each embedded payload again: its hook hands the encoder the envelope's
payload.  So a stanza is sized once, where it first meets the wire, and
the switchboard carries the number with it (:func:`size_with_member`).
"""

from __future__ import annotations

import json
from typing import Any

from .envelope import Envelope, MessageError, canonical_json, validate_message

__all__ = [
    "MessageError",
    "validate_message",
    "to_json",
    "from_json",
    "message_size_bytes",
    "size_with_member",
]


def to_json(value: Any) -> str:
    """Serialize a message to compact, key-sorted JSON.

    For an :class:`Envelope` the cached canonical text is reused instead
    of re-serializing; an invalid tree raises :class:`MessageError`
    naming the offending path.
    """
    return canonical_json(value)


def from_json(text: str) -> Any:
    """Parse a wire message."""
    return json.loads(text)


def message_size_bytes(value: Any) -> int:
    """Wire size of a message in bytes (UTF-8 JSON).

    An envelope answers from its cached size, so sizing one envelope
    again serialises nothing.  Any other value is encoded on every call,
    the payloads of the envelopes inside a stanza included; the
    switchboard therefore sizes a stanza once and carries the number.
    """
    if isinstance(value, Envelope):
        return value.wire_size
    return len(canonical_json(value).encode("utf-8"))


def size_with_member(stanza: dict, size: int, key: str, value: Any) -> int:
    """Wire size of ``{**stanza, key: value}``, given ``size``, that of
    ``stanza``.

    A new member adds its own text and, unless the object was empty, one
    comma; where it sorts moves bytes around but adds none.  The
    member's text is the canonical encoder's, so nothing is escaped here.
    A key the stanza has already is replaced, so that copy is sized whole.
    """
    if key in stanza:
        return message_size_bytes({**stanza, key: value})
    # ``{"key":value}`` less its two braces.
    return size + message_size_bytes({key: value}) - 2 + (1 if stanza else 0)
