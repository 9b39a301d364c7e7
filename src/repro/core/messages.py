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
is envelope-aware, so stanzas that embed envelopes (batches of pubs)
serialize by splicing the cached payload text rather than walking the
tree again.  The dict-based API below remains the compatibility surface
for scripts, tests and tools.
"""

from __future__ import annotations

import json
from typing import Any

from .envelope import (
    SCALARS as _SCALARS,
    Envelope,
    FrozenDict,
    FrozenList,
    MessageError,
    Stanza,
    canonical_json,
)

__all__ = [
    "MessageError",
    "validate_message",
    "to_json",
    "from_json",
    "message_size_bytes",
]


def validate_message(value: Any, _path: str = "$") -> None:
    """Ensure ``value`` is a JSON-able tree of key/value pairs.

    Raises :class:`MessageError` naming the offending path otherwise.
    Envelopes and frozen subtrees validated at ingest are trusted and
    short-circuit — the single-validation invariant of the envelope
    pipeline.
    """
    if isinstance(value, _SCALARS):
        return
    cls = type(value)
    if cls is FrozenDict or cls is FrozenList or cls is Envelope:
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise MessageError(f"non-string key {key!r} at {_path}")
            validate_message(item, f"{_path}.{key}")
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            validate_message(item, f"{_path}[{index}]")
        return
    raise MessageError(f"unsupported type {type(value).__name__} at {_path}")


def to_json(value: Any) -> str:
    """Serialize a message to compact, key-sorted JSON.

    For an :class:`Envelope` (or a stanza containing envelopes) the
    cached canonical text is reused instead of re-serializing.
    """
    try:
        return canonical_json(value)
    except MessageError:
        raise
    except (TypeError, ValueError):
        # Produce the classic path-annotated error for invalid trees.
        validate_message(value)
        raise


def from_json(text: str) -> Any:
    """Parse a wire message."""
    return json.loads(text)


def message_size_bytes(value: Any) -> int:
    """Wire size of a message in bytes (UTF-8 JSON).

    Envelopes answer from their cached size; computing the size of the
    same payload at the buffer, transport, switch and participation
    tracker therefore costs one serialization total, not four.
    """
    if isinstance(value, Envelope):
        return value.wire_size
    if isinstance(value, Stanza):
        return value.wire_size
    return len(to_json(value).encode("utf-8"))
