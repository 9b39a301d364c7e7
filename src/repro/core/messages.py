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
validated once, frozen, with canonical JSON cached.  Every function here
is envelope-aware: an envelope answers from its cache.  A stanza that
embeds envelopes (a batch of pubs) is one call to the envelope module's
encoder, which serialises each embedded payload again: its hook hands
the encoder the envelope's payload, not the cached text.
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
    again (the buffer, the participation tracker) serialises nothing.
    Any other value is encoded on every call: a stanza that embeds
    envelopes serialises their payloads again each time it is sized.
    """
    if isinstance(value, Envelope):
        return value.wire_size
    return len(canonical_json(value).encode("utf-8"))
