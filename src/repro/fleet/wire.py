"""Batched binary handoff codec: one frame per barrier, not one pickle
per stanza.

PR 6's data plane pickled every :class:`~repro.core.shard.Handoff`
individually through the worker pipe — ~9 MB per 500x4 hour, most of it
pickle memo tables and repeated JID strings.  This codec encodes a whole
barrier's batch into one struct-packed, length-prefixed frame:

* **JID interning** — every ``from_jid``/``to_jid`` in the batch is
  written once into a per-frame string table and referenced by index.
* **Canonical-JSON stanza bodies** — a stanza's wire text is the
  serialize-once canonical JSON PR 4 already caches
  (:func:`~repro.core.envelope.canonical_json` splices cached
  :class:`~repro.core.envelope.Envelope` text), so encoding costs one
  cache read for stanzas that were already serialized for size
  accounting.  Decode seeds the rebuilt
  :class:`~repro.core.envelope.Stanza`'s JSON cache with the received
  text — the receiver never re-serializes either.
* **Envelope sidecar** — JSON alone would flatten
  :class:`~repro.core.envelope.Envelope` values into plain dicts and
  drop the tracing fields (``trace_id``/``origin_ms``/``hop_span``)
  that the receiving collector's ``deliver.collector`` span terminus
  records.  Each stanza body therefore carries a sidecar of envelope
  positions (paths into the tree) plus their trace fields, and decode
  re-wraps those subtrees as envelopes — merged traces stay
  byte-identical to the solo run.
* **zlib frame compression** — battery-telemetry batches are extremely
  self-similar; level-1 zlib shrinks the 500x4 hour's frames ~50x on
  top of the ~2x from dropping pickle framing.  Compression is skipped
  for tiny frames where the header would cost more than it saves.
* **JSON-faithful stanzas only** — a stanza whose wrapper tree would
  not come back equal from JSON (non-string keys, tuples, exotic
  leaves) is a :class:`WireError` naming the handoff, at encode.  No
  workload produces one (docs/INTERNALS.md, "Fleet data plane", has the
  count), so there is no second body format and frame bytes never
  reach ``pickle.loads``.  Envelope *payloads* never need the check:
  ``freeze_message`` validated them at publish.

Fidelity contract: ``decode_batch(encode_batch(batch))`` reconstructs
``Handoff`` records equal to the originals — same ``submit_ms``, ``seq``
and JIDs, stanza trees equal under ``==``, top-level ``Stanza``-ness
preserved, envelope positions and trace fields preserved.  Like the
pickle path it replaces, nested frozen/``Stanza`` containers come back
as plain dicts/lists (``FrozenDict.__reduce__`` did the same), and a
``NaN`` float survives structurally but compares unequal to itself.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, List, Sequence, Tuple

from ..core.envelope import Envelope, Stanza, canonical_json
from ..core.shard import Handoff

#: Frame magic + codec version.  Bump on any layout change: frames are a
#: process-boundary protocol, never persisted, so no back-compat decode.
MAGIC = b"PF2"

_FLAG_ZLIB = 0x01

_H_STANZA = 0x04
#: Any other record flag is rejected at decode — in particular 0x02,
#: which used to mark a pickled stanza body, and 0x01, which PF1 set on
#: a record that carried a submit time (every record does now).
_H_KNOWN = _H_STANZA

_SEG_KEY = 0
_SEG_INDEX = 1

#: Frames smaller than this are shipped uncompressed — the zlib header
#: and dictionary warm-up cost more than they save.
_COMPRESS_THRESHOLD = 128

#: zlib level 1: within ~20% of level 6's ratio on stanza batches at a
#: fraction of the CPU.  Deterministic for a given zlib build only, so
#: no test or pin holds a compressed byte count — handoff counts are the
#: machine-independent figure.
_COMPRESS_LEVEL = 1

_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF

_pack_u16 = struct.Struct("<H").pack
_pack_u32 = struct.Struct("<I").pack
_pack_u64 = struct.Struct("<Q").pack
_pack_f64 = struct.Struct("<d").pack
_unpack_u16 = struct.Struct("<H").unpack_from
_unpack_u32 = struct.Struct("<I").unpack_from
_unpack_u64 = struct.Struct("<Q").unpack_from
_unpack_f64 = struct.Struct("<d").unpack_from

_SCALARS = (str, int, float, bool, type(None))


class WireError(ValueError):
    """A frame that cannot be encoded or decoded."""


# ---------------------------------------------------------------------------
# Encode
# ---------------------------------------------------------------------------

def _scan(value: Any, path: Tuple, envelopes: List) -> bool:
    """Collect envelope positions; report JSON-round-trip fidelity.

    Returns ``False`` when the wrapper tree cannot come back equal from
    ``json.loads(canonical_json(...))`` — non-string dict keys (JSON
    stringifies them), tuples (become lists), or non-message leaves.
    Envelopes are leaves: their payloads were freeze-validated at
    publish, so only the position and trace fields need recording.
    """
    if isinstance(value, Envelope):
        if not (0 <= value.trace_id <= _U64_MAX and 0 <= value.hop_span <= _U64_MAX):
            return False
        envelopes.append((path, value))
        return True
    if isinstance(value, dict):
        for key, item in value.items():
            if type(key) is not str:
                return False
            if not _scan(item, path + (key,), envelopes):
                return False
        return True
    if isinstance(value, list):  # incl. FrozenList; a tuple is not faithful
        for index, item in enumerate(value):
            if not _scan(item, path + (index,), envelopes):
                return False
        return True
    return isinstance(value, _SCALARS)


def _encode_paths(parts: List[bytes], envelopes: List) -> None:
    parts.append(_pack_u16(len(envelopes)))
    for path, envelope in envelopes:
        if len(path) > 0xFF:
            raise WireError(f"envelope nested {len(path)} levels deep")
        parts.append(bytes((len(path),)))
        for seg in path:
            if isinstance(seg, str):
                raw = seg.encode("utf-8")
                if len(raw) > _U16_MAX:
                    raise WireError(f"path key longer than 64 KiB: {seg[:40]!r}…")
                parts.append(bytes((_SEG_KEY,)))
                parts.append(_pack_u16(len(raw)))
                parts.append(raw)
            else:
                parts.append(bytes((_SEG_INDEX,)))
                parts.append(_pack_u32(seg))
        parts.append(_pack_u64(envelope.trace_id))
        parts.append(_pack_f64(envelope.origin_ms))
        parts.append(_pack_u64(envelope.hop_span))


def encode_batch(handoffs: Sequence[Handoff]) -> bytes:
    """Encode one barrier's handoff batch into a single binary frame."""
    if len(handoffs) > _U32_MAX:
        raise WireError(f"batch of {len(handoffs)} handoffs overflows the frame")
    jid_table: dict = {}
    body: List[bytes] = []
    records: List[bytes] = []
    for handoff in handoffs:
        stanza = handoff.stanza
        envelopes: List = []
        if not (isinstance(stanza, dict) and _scan(stanza, (), envelopes)):
            raise WireError(
                f"handoff seq {handoff.seq} from {handoff.from_jid} carries "
                f"a stanza that is not JSON-faithful (non-string key, tuple "
                f"or non-message leaf): {type(stanza).__name__}"
            )
        if handoff.submit_ms is None:
            raise WireError(
                f"handoff seq {handoff.seq} from {handoff.from_jid} has no "
                f"submit time: the receiving shard could not place it"
            )
        parts: List[bytes] = [
            bytes((_H_STANZA if isinstance(stanza, Stanza) else 0,)),
            _pack_f64(handoff.submit_ms),
            _pack_u32(handoff.seq),
        ]
        for jid in (handoff.from_jid, handoff.to_jid):
            index = jid_table.setdefault(jid, len(jid_table))
            parts.append(_pack_u32(index))
        raw = canonical_json(stanza).encode("utf-8")
        parts.append(_pack_u32(len(raw)))
        parts.append(raw)
        _encode_paths(parts, envelopes)
        records.append(b"".join(parts))
    body.append(_pack_u32(len(jid_table)))
    for jid in jid_table:  # insertion order == index order
        raw = jid.encode("utf-8")
        if len(raw) > _U16_MAX:
            raise WireError(f"JID longer than 64 KiB: {jid[:40]!r}…")
        body.append(_pack_u16(len(raw)))
        body.append(raw)
    body.append(_pack_u32(len(records)))
    body.extend(records)
    raw_body = b"".join(body)
    if len(raw_body) >= _COMPRESS_THRESHOLD:
        packed = zlib.compress(raw_body, _COMPRESS_LEVEL)
        return b"".join(
            (MAGIC, bytes((_FLAG_ZLIB,)), _pack_u32(len(raw_body)), packed)
        )
    return b"".join((MAGIC, b"\x00", raw_body))


# ---------------------------------------------------------------------------
# Decode
# ---------------------------------------------------------------------------

def _rewrap_envelope(root: Any, path: Tuple, trace_id: int,
                     origin_ms: float, hop_span: int) -> None:
    node = root
    for seg in path[:-1]:
        node = node[seg]
    envelope = Envelope.__new__(Envelope)
    envelope.payload = node[path[-1]]
    envelope._json = None
    envelope._size = None
    envelope.trace_id = trace_id
    envelope.origin_ms = origin_ms
    envelope.hop_span = hop_span
    node[path[-1]] = envelope


def decode_batch(frame: bytes) -> List[Handoff]:
    """Decode a frame back into the identical list of ``Handoff``s."""
    if frame[:3] != MAGIC:
        raise WireError(f"bad frame magic {frame[:3]!r} (want {MAGIC!r})")
    flags = frame[3]
    if flags & _FLAG_ZLIB:
        (raw_len,) = _unpack_u32(frame, 4)
        body = zlib.decompress(frame[8:])
        if len(body) != raw_len:
            raise WireError(
                f"frame decompressed to {len(body)} bytes, header says {raw_len}"
            )
    else:
        body = frame[4:]
    view = memoryview(body)
    offset = 0
    (n_jids,) = _unpack_u32(view, offset)
    offset += 4
    jids: List[str] = []
    for _ in range(n_jids):
        (length,) = _unpack_u16(view, offset)
        offset += 2
        jids.append(str(view[offset:offset + length], "utf-8"))
        offset += length
    (n_handoffs,) = _unpack_u32(view, offset)
    offset += 4
    handoffs: List[Handoff] = []
    for _ in range(n_handoffs):
        hflags = view[offset]
        offset += 1
        if hflags & ~_H_KNOWN:
            raise WireError(f"unknown record flags {hflags:#04x}")
        (submit_ms,) = _unpack_f64(view, offset)
        (seq,) = _unpack_u32(view, offset + 8)
        (from_idx,) = _unpack_u32(view, offset + 12)
        (to_idx,) = _unpack_u32(view, offset + 16)
        (body_len,) = _unpack_u32(view, offset + 20)
        offset += 24
        text = str(view[offset:offset + body_len], "utf-8")
        offset += body_len
        tree = json.loads(text)
        (n_envelopes,) = _unpack_u16(view, offset)
        offset += 2
        for _ in range(n_envelopes):
            n_segs = view[offset]
            offset += 1
            path: List = []
            for _ in range(n_segs):
                kind = view[offset]
                offset += 1
                if kind == _SEG_KEY:
                    (length,) = _unpack_u16(view, offset)
                    offset += 2
                    path.append(str(view[offset:offset + length], "utf-8"))
                    offset += length
                elif kind == _SEG_INDEX:
                    (index,) = _unpack_u32(view, offset)
                    offset += 4
                    path.append(index)
                else:
                    raise WireError(f"unknown path segment kind {kind}")
            (trace_id,) = _unpack_u64(view, offset)
            (origin_ms,) = _unpack_f64(view, offset + 8)
            (hop_span,) = _unpack_u64(view, offset + 16)
            offset += 24
            _rewrap_envelope(tree, tuple(path), trace_id, origin_ms, hop_span)
        if hflags & _H_STANZA:
            stanza = Stanza(tree)
            # Seed the serialize-once cache with the sender's exact
            # canonical text: the receiver's size accounting reads
            # the same bytes the sender's would have.
            stanza._json = text
        else:
            stanza = tree
        try:
            from_jid = jids[from_idx]
            to_jid = jids[to_idx]
        except IndexError:
            raise WireError(
                f"JID index out of range ({from_idx}/{to_idx} of {len(jids)})"
            ) from None
        handoffs.append(Handoff(submit_ms, seq, from_jid, to_jid, stanza))
    if offset != len(body):
        raise WireError(
            f"frame has {len(body) - offset} trailing bytes after "
            f"{n_handoffs} handoffs"
        )
    return handoffs
