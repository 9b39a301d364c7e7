"""The simulator's dealings with the host interpreter's cyclic collector.

A fleet shard is a large object graph that is built once and then stays
alive for the whole run: 2000 devices are ~290,000 tracked objects before
the first event fires.  Left alone, the generational collector re-walks
that graph on every full pass (and several hundred times while it is
still growing) to find nothing.  This module is the one place the
simulator tells the collector what it knows, as two scopes:

* :func:`building` — a spec-driven build is all live, so automatic
  collection is paused while it runs.
* :func:`dispatching` — while the kernel dispatches, everything that was
  alive at entry is parked in the permanent generation, where no pass
  looks at it.

Both restore what they found (the enabled flag; an empty permanent
generation) on every way out, and both step aside for a host that has
already made the same decision itself.  What :func:`dispatching` costs is
written down with it, and :func:`reclaim` is where that cost is paid so
that no caller has to.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def building() -> Iterator[None]:
    """Pause automatic collection; restore the enabled flag as found.

    On the way out, what was built goes straight to the oldest
    generation (a freeze and an unfreeze, each an O(1) splice): resuming
    collection with a whole fleet of young objects on the books would
    otherwise start with a pass over every one of them.  Skipped when the
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
    """Park everything alive now in the permanent generation until exit.

    ``gc.freeze()`` and ``gc.unfreeze()`` each splice whole generation
    lists, so both ends are O(1) however large the heap.  Objects
    allocated inside the scope are collected as usual.  A non-empty
    permanent generation at entry means someone further out (a nested
    dispatch, or a host that froze its own heap) owns it: it is left
    alone both ways.

    The cost: an object that becomes *cyclic* garbage while frozen stays
    allocated until a full pass runs outside the scope.  The simulator
    therefore must not manufacture reference cycles per event; the
    ``DEBUG_SAVEALL`` canaries in ``tests/unit/test_collector.py`` hold
    it to that.  What it cannot help making — a whole simulation, dropped
    by its owner — is :func:`reclaim`'s to free.
    """
    global _pass_owed
    ours = gc.get_freeze_count() == 0
    if ours:
        gc.freeze()
    try:
        yield
    finally:
        if ours:
            gc.unfreeze()
            _pass_owed = True


def reclaim() -> None:
    """Run the full pass that dispatches have put off, if one is owed.

    A finished simulation that its owner dropped is one large reference
    cycle.  Passes that run inside a later dispatch cannot see it (it is
    parked with everything else) and builds run with collection paused,
    so a process that runs simulation after simulation would keep every
    one of them.  ``Shard`` calls this before it creates a new shard:
    the one point where the last simulation may just have been dropped
    and the next one is not yet there to be walked.  The first shard of
    a process owes nothing and pays nothing.
    """
    global _pass_owed
    if _pass_owed and gc.get_freeze_count() == 0:
        _pass_owed = False
        gc.collect()
