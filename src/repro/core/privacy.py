"""Per-user privacy controls.

Sections 3.2/3.3: "we allow users to select the types of information they
wish to share, so that they retain full control over their own privacy
... these settings can be changed at any time from the application
interface."

The unit of control is the sensor channel: a blocked channel behaves as
if it had no subscribers (the sensor stays off — saving energy too) and
any residual publish on it is suppressed before reaching a broker.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Set


class PrivacySettings:
    """The device owner's sharing choices."""

    __slots__ = ("_blocked", "on_change", "suppressed_publishes")

    def __init__(self, blocked_channels: Iterable[str] = ()) -> None:
        self._blocked: Set[str] = set(blocked_channels)
        self.on_change: List[Callable[[str, bool], None]] = []
        self.suppressed_publishes = 0

    def allows(self, channel: str) -> bool:
        return channel not in self._blocked

    def block(self, channel: str) -> None:
        """User revokes sharing of a channel (takes effect immediately)."""
        if channel in self._blocked:
            return
        self._blocked.add(channel)
        self._notify(channel, False)

    def allow(self, channel: str) -> None:
        """User re-enables sharing of a channel."""
        if channel not in self._blocked:
            return
        self._blocked.discard(channel)
        self._notify(channel, True)

    def _notify(self, channel: str, allowed: bool) -> None:
        for listener in list(self.on_change):
            listener(channel, allowed)
