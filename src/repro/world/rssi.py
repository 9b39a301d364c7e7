"""Radio propagation: received signal strength for Wi-Fi scans.

The localization pipeline consumes (BSSID, RSSI) vectors; its clustering
behaviour depends on three statistical properties this model provides:

* RSSI falls off with distance (log-distance path loss), so the same place
  yields a *similar* scan vector every time;
* per-scan noise (shadowing/fading) of a few dB, so vectors are similar
  but never identical;
* weak APs drop in and out of scans entirely (sensitivity threshold plus
  a small dropout probability), which is why the paper's `scan.js`
  normalizes RSSI and the clustering uses a robust cosine similarity.

The paper's ``scan.js`` normalizes RSSI so that 0 ↦ −100 dBm and
1 ↦ −55 dBm; :func:`normalize_rssi` implements exactly that mapping.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class PropagationModel:
    """Log-distance path loss with log-normal shadowing."""

    #: RSSI at the 1 m reference distance, dBm.
    reference_dbm: float = -32.0
    #: Path-loss exponent; ~2 free space, 3–4 indoors.
    exponent: float = 3.0
    #: Standard deviation of per-scan shadowing noise, dB.
    sigma_db: float = 4.0
    #: Receiver sensitivity: APs below this never appear in scans.
    sensitivity_dbm: float = -95.0
    #: Probability a nominally-visible AP is missed by one scan anyway.
    dropout_probability: float = 0.04

    def mean_rssi(self, distance_m: float) -> float:
        """Expected RSSI at a distance, before noise."""
        d = max(distance_m, 1.0)
        return self.reference_dbm - 10.0 * self.exponent * math.log10(d)

    def sample_rssi(self, distance_m: float, rng: random.Random) -> Optional[float]:
        """One scan's RSSI for an AP at ``distance_m``; ``None`` if unseen."""
        rssi = self.mean_rssi(distance_m) + rng.gauss(0.0, self.sigma_db)
        if rssi < self.sensitivity_dbm:
            return None
        if rng.random() < self.dropout_probability:
            return None
        # Real radios clip: you never see better than about -25 dBm.
        return min(rssi, -25.0)

    def max_range_m(self) -> float:
        """Distance beyond which an AP can (almost) never be heard."""
        # mean + 3 sigma below sensitivity.
        budget = self.reference_dbm + 3 * self.sigma_db - self.sensitivity_dbm
        return 10.0 ** (budget / (10.0 * self.exponent))


#: RSSI normalization bounds used by the paper's scan.js (Section 4.1):
#: "normalizes received signal strength (RSSI) values so that 0 and 1
#: correspond to -100 dBm and -55 dBm respectively".
NORMALIZE_FLOOR_DBM = -100.0
NORMALIZE_CEIL_DBM = -55.0


def normalize_rssi(rssi_dbm: float) -> float:
    """Map dBm to the paper's [0, 1] scale (clipped)."""
    span = NORMALIZE_CEIL_DBM - NORMALIZE_FLOOR_DBM
    value = (rssi_dbm - NORMALIZE_FLOOR_DBM) / span
    return max(0.0, min(1.0, value))
