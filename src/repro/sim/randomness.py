"""Named, seeded random streams.

Every stochastic component in the simulation (mobility, RSSI noise,
connectivity churn, background-app jitter, ...) draws from its own named
stream derived from a single experiment seed.  This gives two properties
the evaluation needs:

* **Reproducibility** — the same seed regenerates an entire experiment,
  including Table 4's 24-day localization deployment, bit-for-bit.
* **Isolation** — adding a new consumer of randomness does not perturb the
  draws seen by existing components, because streams are keyed by name
  rather than by global draw order.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so that child seeds are well distributed even for
    adjacent root seeds and similar names.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A registry of independent :class:`random.Random` streams.

    >>> streams = RandomStreams(seed=42)
    >>> streams.stream("mobility/user1").random()  # doctest: +SKIP
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.seed, name))
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams


def as_random(source, name: str) -> random.Random:
    """Coerce ``source`` into a seeded, private :class:`random.Random`.

    Accepts a :class:`random.Random` instance (used as-is), a
    :class:`RandomStreams` registry (the ``name`` stream is drawn), or an
    ``int`` root seed (a stream derived with ``name`` — so two consumers
    given the same seed but different names stay independent).

    The *bare* :mod:`random` module — process-global, shared-order state
    that silently breaks bit-for-bit reproducibility — is rejected with a
    ``TypeError`` instead of being accepted as a duck-typed ``Random``.
    """
    if source is random:
        raise TypeError(
            "the global random module is not reproducible; pass a seeded "
            "random.Random, a RandomStreams, or an int seed"
        )
    if isinstance(source, random.Random):
        return source
    if isinstance(source, RandomStreams):
        return source.stream(name)
    if isinstance(source, int):
        return random.Random(derive_seed(source, name))
    raise TypeError(f"cannot derive a random stream from {type(source).__name__}")
