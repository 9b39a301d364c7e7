"""Collector-side services exposed to scripts through pub/sub.

The paper's ``collect.js`` "uses Google's geolocation service to convert
[cluster characterizations] into a longitude, latitude pair" (Section
4.1).  The script API has no HTTP access (Table 1 is all there is), so
the collector runtime exposes such services the same way devices expose
sensors: as components on the context broker.  A script publishes a
query on ``geo-lookup`` and receives the answer on ``geo-result``::

    publish('geo-lookup', {'id': 7, 'vector': {bssid: weight, ...}})
    # later, on 'geo-result':
    {'id': 7, 'fix': {'lat': ..., 'lon': ..., 'accuracy': ...}}  # or fix=None

Service subscriptions are local plumbing: they are *not* mirrored to
devices (their owner tag is excluded from subscription sync).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional

from ..world.geolocation import GeolocationService

#: Owner-tag prefix for service subscriptions (excluded from sub sync).
SERVICE_OWNER_PREFIX = "service:"

GEO_LOOKUP_CHANNEL = "geo-lookup"
GEO_RESULT_CHANNEL = "geo-result"


class GeolocationBridge:
    """Bridges ``geo-lookup``/``geo-result`` to a geolocation backend."""

    owner = SERVICE_OWNER_PREFIX + "geolocation"

    def __init__(self, service: GeolocationService) -> None:
        self.service = service
        self.queries = 0
        self._contexts = []

    def attach_context(self, context) -> None:
        """Install the service into one collector context."""
        self._contexts.append(context)
        context.broker.subscribe(
            GEO_LOOKUP_CHANNEL,
            partial(self._handle, context),
            owner=self.owner,
        )

    def _handle(self, context, message: Dict[str, Any]) -> None:
        self.queries += 1
        vector = message.get("vector") or {}
        fix = self.service.locate(vector)
        result: Dict[str, Any] = {"id": message.get("id")}
        if fix is None:
            result["fix"] = None
        else:
            result["fix"] = {
                "lat": round(fix.latitude, 6),
                "lon": round(fix.longitude, 6),
                "accuracy": round(fix.accuracy_m, 1),
                "matched": fix.matched_aps,
            }
        context.broker.publish(GEO_RESULT_CHANNEL, result)


def install_geolocation(collector, device) -> None:
    """Give ``collector``'s scripts a geolocation service that knows
    every access point of ``device``'s world."""
    service = GeolocationService()
    for group in device.user_world.places.values():
        for place in group:
            service.register_all(place.access_points)
    collector.node.add_service(GeolocationBridge(service))
