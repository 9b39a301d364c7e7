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
  computed on first use and cached, and :func:`canonical_json` splices
  the cached text into enclosing stanzas instead of re-serializing the
  payload at each hop.

Frozen containers subclass ``dict`` / ``list``, so reads, iteration,
``==`` against plain containers, and ``json.dumps`` all behave exactly as
before; only mutation changes (it raises instead of silently diverging
from what other subscribers see).
"""

from __future__ import annotations

import json as _json
from json.encoder import encode_basestring as _escape_str
from typing import Any, List, Tuple

#: Types allowed at message leaves.
SCALARS = (str, int, float, bool, type(None))

#: The canonical wire format (compact, key-sorted, UTF-8): one encoder,
#: built once — ``json.dumps`` with arguments constructs one per call.
_canonical_encode = _json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, ensure_ascii=False
).encode


class MessageError(TypeError):
    """Raised when a value cannot be used as a Pogo message."""


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
        return (dict, (thaw_message(self),))


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
        return (list, (thaw_message(self),))


def freeze_message(value: Any, _path: str = "$") -> Any:
    """Validate ``value`` and return its frozen form, in one walk.

    Tuples are normalized to (frozen) lists here — at ingest — so a
    payload observes the same shape whether it is delivered locally or
    round-trips through JSON.  Already-frozen subtrees (and the payloads
    of other envelopes) are returned as-is: re-wrapping a tagged message
    only pays for the top level.

    The walk carries no location bookkeeping (this runs per publish); on
    failure the tree is re-walked cold to raise the classic
    path-annotated error.
    """
    try:
        return _freeze_fast(value)
    except MessageError:
        _freeze_with_path(value, _path)
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


def _freeze_with_path(value: Any, _path: str = "$") -> Any:
    """The original path-carrying walk; error reporting only."""
    cls = type(value)
    if cls is FrozenDict or cls is FrozenList:
        return value
    if isinstance(value, Envelope):
        return value.payload
    if isinstance(value, SCALARS):
        return value
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise MessageError(f"non-string key {key!r} at {_path}")
        return FrozenDict(
            (key, _freeze_with_path(item, f"{_path}.{key}")) for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return FrozenList(
            _freeze_with_path(item, f"{_path}[{index}]") for index, item in enumerate(value)
        )
    raise MessageError(f"unsupported type {cls.__name__} at {_path}")


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
        """UTF-8 byte count of :attr:`json`, computed at most once."""
        if self._size is None:
            self._size = len(self.json.encode("utf-8"))
        return self._size

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Envelope):
            return self.payload == other.payload
        if isinstance(other, (dict, list, tuple)) or isinstance(other, SCALARS):
            return self.payload == (list(other) if isinstance(other, tuple) else other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment] - mutable-payload semantics


class Stanza(dict):
    """A wire stanza that caches its canonical JSON across hops.

    The same stanza object is serialized several times on its way out —
    wire-size accounting at the buffer, the transport and the XMPP
    switch, then the actual send — and, unlike message payloads, stanzas
    are plain mutable dicts, so the envelope cache cannot help them.
    Constructing wire ops as ``Stanza`` keeps dict semantics everywhere
    (consumers index into them unchanged) but lets :func:`canonical_json`
    and ``message_size_bytes`` answer repeats from the first encoding.

    Any mutation drops the cache (chaos tamper interceptors edit stanzas
    in flight), so a stale serialization can never leak onto the wire.
    """

    __slots__ = ("_json", "_size")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._json: Any = None
        self._size: Any = None

    def _invalidate(self) -> None:
        self._json = None
        self._size = None

    def __setitem__(self, key: Any, item: Any) -> None:
        self._json = None
        self._size = None
        dict.__setitem__(self, key, item)

    def __delitem__(self, key: Any) -> None:
        self._json = None
        self._size = None
        dict.__delitem__(self, key)

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._invalidate()
        dict.update(self, *args, **kwargs)

    def pop(self, *args: Any) -> Any:
        self._invalidate()
        return dict.pop(self, *args)

    def popitem(self) -> Any:
        self._invalidate()
        return dict.popitem(self)

    def clear(self) -> None:
        self._invalidate()
        dict.clear(self)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._invalidate()
        return dict.setdefault(self, key, default)

    @property
    def json(self) -> str:
        """Canonical wire JSON, cached until the next mutation."""
        text = self._json
        if text is None:
            text = self._json = _splice(self)
        return text

    @property
    def wire_size(self) -> int:
        """UTF-8 byte count of :attr:`json`, cached with it."""
        size = self._size
        if size is None:
            size = self._size = len(self.json.encode("utf-8"))
        return size


def canonical_json(value: Any) -> str:
    """Canonical JSON of a message or stanza, reusing cached envelope text.

    Fast paths, in order: a bare envelope (or a :class:`Stanza`) returns
    its cached string; a stanza with envelope values (the reliable-link
    wrapper, checked with a shallow scan) goes straight to the splicing
    encoder; everything else takes the C encoder in one pass.  The
    splicing path only ever hand-encodes the small wrapper — the payload
    text is cached.
    """
    if isinstance(value, Stanza):
        return value.json
    if isinstance(value, Envelope):
        return value.json
    if type(value) is dict:
        for item in value.values():
            if isinstance(item, Envelope):
                return _splice(value)
    try:
        return _canonical_encode(value)
    except (TypeError, ValueError):
        # Envelopes nested deeper than the shallow scan saw, or a value
        # that is not a message at all.
        return _splice(value)


def _splice(value: Any) -> str:
    parts: List[str] = []
    try:
        _encode_into(value, parts)
    except MessageError:
        _raise_with_path(value)  # rebuild the offending path, cold
        raise
    return "".join(parts)


def _encode_into(value: Any, parts: List[str]) -> None:
    """Recursive canonical encoder that splices cached envelope JSON.

    This runs per hop on every remote-bound stanza, so it avoids
    per-element allocations (no path strings, no ``json.dumps`` calls
    for scalars); errors are cheap to make slow, successes are not.
    """
    cls = type(value)
    if cls is str:
        parts.append(_escape_str(value))
        return
    if cls is bool:
        parts.append("true" if value else "false")
        return
    if cls is int:
        parts.append(repr(value))
        return
    if value is None:
        parts.append("null")
        return
    if cls is Envelope:
        parts.append(value.json)
        return
    if cls is Stanza:
        text = value._json
        if text is not None:
            parts.append(text)
            return
        # Cache cold: encode as a dict below (the json property caches
        # the result of this very walk).
    if isinstance(value, dict):
        # The container loops dispatch common leaves inline (exact type
        # checks, so bool never masquerades as int) — one recursive call
        # per *container*, not per node.
        append = parts.append
        append("{")
        first = True
        for key in sorted(value):
            if not isinstance(key, str):
                raise MessageError(f"non-string key {key!r}")
            if first:
                first = False
            else:
                append(",")
            append(_escape_str(key))
            append(":")
            item = value[key]
            icls = type(item)
            if icls is str:
                append(_escape_str(item))
            elif icls is int:
                append(repr(item))
            elif icls is Envelope:
                append(item.json)
            elif item is None:
                append("null")
            elif icls is bool:
                append("true" if item else "false")
            else:
                _encode_into(item, parts)
        append("}")
        return
    if isinstance(value, (list, tuple)):
        append = parts.append
        append("[")
        for index, item in enumerate(value):
            if index:
                append(",")
            icls = type(item)
            if icls is Stanza and item._json is not None:
                append(item._json)
            elif icls is Envelope:
                append(item.json)
            elif icls is str:
                append(_escape_str(item))
            else:
                _encode_into(item, parts)
        append("]")
        return
    if isinstance(value, float):
        # Mirror json.dumps: shortest repr, named non-finite constants.
        if value != value:
            parts.append("NaN")
        elif value == _INF:
            parts.append("Infinity")
        elif value == -_INF:
            parts.append("-Infinity")
        else:
            parts.append(float.__repr__(value))
        return
    if isinstance(value, str):
        parts.append(_escape_str(value))
        return
    if isinstance(value, int):
        parts.append(int.__repr__(value))
        return
    raise MessageError(f"unsupported type {cls.__name__}")


_INF = float("inf")


def _raise_with_path(value: Any, _path: str = "$") -> None:
    """Re-walk an invalid stanza to name the offending path (error path
    only; the hot encoder carries no location bookkeeping)."""
    if isinstance(value, (Envelope, SCALARS)):
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise MessageError(f"non-string key {key!r} at {_path}")
            _raise_with_path(item, f"{_path}.{key}")
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _raise_with_path(item, f"{_path}[{index}]")
        return
    raise MessageError(f"unsupported type {type(value).__name__} at {_path}")
