"""What crosses the worker pipe besides small control tuples: two
pickle formats, one module.

* **Handoff batches** (:func:`encode_batch` / :func:`decode_batch`) —
  one frame per barrier and direction, the whole batch pickled at once,
  so a batch's repeated JIDs and classes cost once.  The receiver gets a
  copy of exactly the objects the sender held, as an in-process fleet
  hands over the objects themselves: tuples and non-string keys come
  back as they went, frozen payload containers come back frozen (their
  ``__reduce__``), and an :class:`~repro.core.envelope.Envelope`'s
  cached text and trace fields ride in slot state.  Not compressed: most
  frames are empty, and zlib costs more on those than a local pipe
  saves.
* **End-of-run frames** (:func:`seal` / :func:`unseal`) — a worker's
  artifacts and its span rows, zlib level 1: large, self-similar, and
  the rows are held unread unless the trace is read.

Neither format is checked on receipt: frames come only from this run's
own worker over a private pipe, the same pipe whose control tuples
``Connection.recv`` already unpickles.  A worker that dies mid-frame is
a :class:`~repro.fleet.worker.WorkerCrashed` from the coordinator's
end-of-file path.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, List

from ..core.shard import Handoff


def encode_batch(handoffs: List[Handoff]) -> bytes:
    """One barrier's handoff batch as one frame."""
    return pickle.dumps(handoffs, pickle.HIGHEST_PROTOCOL)


def decode_batch(frame: bytes) -> List[Handoff]:
    """The batch :func:`encode_batch` framed."""
    return pickle.loads(frame)


def seal(value: Any) -> bytes:
    """One of a worker's two final frames: its artifacts, or its span rows
    (rows, not spans: slotted objects pickle several times slower)."""
    return zlib.compress(pickle.dumps(value, pickle.HIGHEST_PROTOCOL), 1)


def unseal(frame: bytes) -> Any:
    """What :func:`seal` sealed — in this run's own worker, nowhere else."""
    return pickle.loads(zlib.decompress(frame))
