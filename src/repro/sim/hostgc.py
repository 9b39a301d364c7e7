"""The simulator's dealings with the host interpreter's cyclic collector.

A fleet shard is a large object graph that is built once and then stays
alive for the whole run: 2000 battery-monitor devices are ~270,000
tracked objects before the first event fires, and the run adds ~108,000
more that live as long.  Left alone, the generational collector walks
that graph hundreds of times to find nothing.  This module is the one
place the simulator tells the collector what it knows, as one scope:
:func:`building` pauses automatic collection, and :func:`dispatching` is
the same scope around the kernel's run loop, after which one full pass
is owed and :func:`reclaim` pays it.  Both restore what they found on
every way out, and step aside for a host that froze its own heap.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def building() -> Iterator[None]:
    """Pause automatic collection; restore the enabled flag as found.

    On the way out, what the scope allocated goes straight to the oldest
    generation (a freeze and an unfreeze, each an O(1) splice): resuming
    collection with all of it on the young generations' books would
    otherwise start with a pass over every object.  Skipped when the
    permanent generation is in use — it is not ours to empty.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        if was_enabled:
            gc.enable()


#: A dispatch has returned since :func:`reclaim` last ran a full pass.
_pass_owed = False


@contextmanager
def dispatching() -> Iterator[None]:
    """:func:`building` for a dispatch, which leaves a full pass owed.

    No pass runs while a callback does, so an object that becomes cyclic
    garbage in one waits for a pass outside.  The simulator therefore
    must not manufacture reference cycles per event; the
    ``DEBUG_SAVEALL`` canaries in ``tests/unit/test_collector.py`` hold
    it to that.  What it cannot help making — a replaced script
    namespace, a whole simulation dropped by its owner — is
    :func:`reclaim`'s to free.
    """
    global _pass_owed
    try:
        with building():
            yield
    finally:
        _pass_owed = True


def reclaim() -> None:
    """Run the full pass that dispatches have put off, if one is owed.

    A finished simulation that its owner dropped is one large reference
    cycle in the oldest generation, where only a full pass looks, and
    with builds and dispatches paused the automatic full passes all but
    stop; a process that runs simulation after simulation would keep
    every one of them.  ``Shard`` calls this before it creates a new
    shard: the one point where the last simulation may just have been
    dropped and the next one is not yet there to be walked.  The first
    shard of a process owes nothing and pays nothing, unless it was
    forked from one that owed.  A process fleet calls it too, on
    dropping its shard 0, while its workers seal.
    """
    global _pass_owed
    if _pass_owed and gc.get_freeze_count() == 0:
        _pass_owed = False
        gc.collect()
