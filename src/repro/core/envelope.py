"""Immutable message envelopes: validate once, serialize at most once.

The seed reproduction re-did per-message work at every hop of the publish
path: ``validate_message`` at the broker, a deep copy per local
subscriber, and a fresh ``json.dumps`` (inside ``to_json`` /
``message_size_bytes``) at the buffer, the transport, the XMPP switch and
the participation tracker — five walks over the *same* payload.  MOSDEN
identifies exactly this per-message middleware overhead as the
scalability limit of collaborative sensing platforms.

An :class:`Envelope` does each unit of work once per message lifetime:

* **one validation** — the payload tree is checked (and tuples
  normalized to lists, as JSON serialization would) in a single walk at
  construction;
* **structural immutability** — the walk produces a frozen view
  (:class:`FrozenDict` / :class:`FrozenList`), so every subscriber can
  safely share the *same* object and the per-delivery deep copy
  disappears.  Handlers that want to mutate take an explicit
  ``message.copy()`` (or ``dict(message)`` / ``list(...)``);
* **lazy canonical JSON** — ``env.json`` and ``env.wire_size`` are
  computed on first use and cached, each on its own: sizing keeps the
  byte count, not the text.

One encoder sizes everything else: :func:`canonical_json` hands a stanza
(a plain dict the middleware builds around envelopes) to the stdlib
encoder, whose ``default`` hook answers an envelope with its frozen
payload.

Frozen containers subclass ``dict`` / ``list``, so reads, iteration,
``==`` against plain containers, and ``json.dumps`` all behave exactly as
before; only mutation changes (it raises instead of silently diverging
from what other subscribers see).  They pickle as themselves, so a
payload that crosses a worker pipe or a shard snapshot stays frozen.
"""

from __future__ import annotations

import json as _json
from typing import Any, Tuple

#: Types allowed at message leaves.
SCALARS = (str, int, float, bool, type(None))


class MessageError(TypeError):
    """Raised when a value cannot be used as a Pogo message."""


def _envelope_payload(value: Any) -> Any:
    if isinstance(value, Envelope):
        return value.payload
    raise MessageError(f"unsupported type {type(value).__name__}")


#: The canonical wire format (compact, key-sorted, UTF-8): the one
#: encoder, built once — ``json.dumps`` with arguments constructs one per
#: call.  Its ``default`` hook answers an envelope inside a stanza with
#: the envelope's frozen payload.
_canonical_encode = _json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, ensure_ascii=False, default=_envelope_payload
).encode


def _blocked(self, *args: Any, **kwargs: Any) -> None:
    raise MessageError(
        "delivered messages are immutable; take message.copy() "
        "(or dict(...)/list(...)) before mutating"
    )


class FrozenDict(dict):
    """A read-only dict view of one level of a frozen message tree.

    Built only by :func:`freeze_message`; its values are themselves
    frozen, which is the invariant that lets validation short-circuit on
    already-frozen subtrees.  ``copy()`` returns a plain, mutable,
    *shallow* ``dict`` — the escape hatch for handlers that tag or edit a
    received message.
    """

    __slots__ = ()

    __setitem__ = __delitem__ = _blocked
    clear = pop = popitem = setdefault = update = _blocked
    __ior__ = _blocked

    def __deepcopy__(self, memo: dict) -> dict:
        return thaw_message(self)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (FrozenDict, (dict(self),))


class FrozenList(list):
    """A read-only list view of one level of a frozen message tree."""

    __slots__ = ()

    __setitem__ = __delitem__ = _blocked
    append = extend = insert = pop = remove = _blocked
    sort = reverse = clear = _blocked
    __iadd__ = __imul__ = _blocked

    def __deepcopy__(self, memo: dict) -> list:
        return thaw_message(self)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (FrozenList, (list(self),))


def freeze_message(value: Any) -> Any:
    """Validate ``value`` and return its frozen form, in one walk.

    Tuples are normalized to (frozen) lists here — at ingest — so a
    payload observes the same shape whether it is delivered locally or
    round-trips through JSON.  Already-frozen subtrees (and the payloads
    of other envelopes) are returned as-is: re-wrapping a tagged message
    only pays for the top level.

    The walk carries no location bookkeeping (this runs per publish); on
    failure :func:`validate_message` re-walks the tree cold to name the
    offending path.
    """
    try:
        return _freeze_fast(value)
    except MessageError:
        validate_message(value)
        raise


def _freeze_fast(value: Any) -> Any:
    cls = type(value)
    if cls is dict:
        for key in value:
            if type(key) is not str and not isinstance(key, str):
                raise MessageError(f"non-string key {key!r}")
        return FrozenDict((key, _freeze_fast(item)) for key, item in value.items())
    if cls is FrozenDict or cls is FrozenList:
        return value
    if cls in _SCALAR_TYPES:
        return value
    if cls is list or cls is tuple:
        return FrozenList(_freeze_fast(item) for item in value)
    # Uncommon shapes (subclasses, Envelope) take the general checks.
    if isinstance(value, Envelope):
        return value.payload
    if isinstance(value, SCALARS):
        return value
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise MessageError(f"non-string key {key!r}")
        return FrozenDict((key, _freeze_fast(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return FrozenList(_freeze_fast(item) for item in value)
    raise MessageError(f"unsupported type {cls.__name__}")


def validate_message(value: Any, _path: str = "$") -> None:
    """Ensure ``value`` is a JSON-able tree of key/value pairs.

    Raises :class:`MessageError` naming the offending path otherwise.
    Envelopes and frozen subtrees validated at ingest are trusted and
    short-circuit — the single-validation invariant of the envelope
    pipeline.  The hot walks carry no path; this is their error path.
    """
    if isinstance(value, SCALARS):
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


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def thaw_message(value: Any) -> Any:
    """Deep, plain-``dict``/``list`` copy of a (frozen) message tree."""
    if isinstance(value, Envelope):
        value = value.payload
    if isinstance(value, dict):
        return {key: thaw_message(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [thaw_message(item) for item in value]
    return value


class Envelope:
    """One published message: validated once, frozen, lazily serialized.

    ``Envelope.wrap`` is idempotent — wrapping an existing envelope (a
    message being forwarded to the next hop) returns it unchanged, which
    is how the single-validation invariant survives the whole
    broker → buffer → transport → switch → remote-broker pipeline.
    """

    __slots__ = ("payload", "_json", "_size", "trace_id", "origin_ms", "hop_span")

    def __init__(self, payload: Any) -> None:
        self.payload = freeze_message(payload)
        self._json: Any = None
        self._size: Any = None
        # Tracing plane (repro.sim.spans).  The simulation moves envelope
        # objects end to end, so the trace id assigned at first publish and
        # the running causal parent (the last hop's span id) ride along for
        # free.  Zero means untraced; the payload itself never changes.
        self.trace_id = 0
        self.origin_ms = 0.0
        self.hop_span = 0

    @classmethod
    def wrap(cls, value: Any) -> "Envelope":
        """The one ingestion point: dict in, envelope out (idempotent)."""
        if isinstance(value, Envelope):
            return value
        return cls(value)

    @property
    def json(self) -> str:
        """Canonical wire JSON, computed at most once."""
        if self._json is None:
            self._json = _canonical_encode(self.payload)
        return self._json

    @property
    def wire_size(self) -> int:
        """UTF-8 byte count of :attr:`json`, computed at most once.

        Only the count is kept, not the text it was counted from: an
        envelope that is sized but never written holds no text.
        """
        if self._size is None:
            self._size = len(_canonical_encode(self.payload).encode("utf-8"))
        return self._size

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Envelope):
            return self.payload == other.payload
        if isinstance(other, (dict, list, tuple)) or isinstance(other, SCALARS):
            return self.payload == (list(other) if isinstance(other, tuple) else other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment] - mutable-payload semantics


def canonical_json(value: Any) -> str:
    """Canonical JSON of a message or stanza.

    An envelope returns its cached text; anything else is one call to the
    encoder.  On failure the tree is re-walked by :func:`validate_message`
    so the error names the offending path.
    """
    if isinstance(value, Envelope):
        return value.json
    try:
        return _canonical_encode(value)
    except (TypeError, ValueError):
        validate_message(value)
        raise
