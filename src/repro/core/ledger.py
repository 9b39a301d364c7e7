"""Per-message modem energy attribution: the energy ledger.

The device's :class:`~repro.device.power.PowerRail` is its one energy
integrator.  :class:`EnergyLedger` integrates nothing itself: it watches
the modem's RRC state machine, reads the rail's modem joules
(:meth:`~repro.device.power.PowerRail.energy_of`) when a radio episode
(idle → ramp → … → idle) opens and when it closes, and prorates each
episode's joules over the messages whose flushes rode it — Table 3's
marginal-energy accounting, at per-message granularity: a self-initiated
flush is charged the full ramp + transfer + DCH/FACH tail; a piggybacked
flush is charged only its marginal transfer time.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Optional, Tuple

#: How many per-message attributions the ledger's ``recent`` ring keeps.
RECENT_MESSAGES = 4096


class RadioEpisode:
    """One radio-active episode: idle → ramp → (DCH/FACH)* → idle.

    ``start_j`` is the rail's modem reading when the episode opened;
    ``energy_j`` is set from the rail when it closes.  ``riders`` are the
    flush (flush span, trace id, bytes) triples to prorate over.
    """

    __slots__ = ("index", "start_ms", "end_ms", "trigger", "start_j", "energy_j", "riders")

    def __init__(self, index: int, start_ms: float, trigger: str, start_j: float) -> None:
        self.index = index
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        #: "flush" when Pogo's own flush woke the radio; "external" when
        #: another app (or the connection handshake) did and Pogo at most
        #: piggybacked.
        self.trigger = trigger
        self.start_j = start_j
        self.energy_j = 0.0
        self.riders: List[Tuple[int, int, int]] = []

    @property
    def pogo_bytes(self) -> int:
        return sum(size for _, _, size in self.riders)


class MessageEnergy:
    """Per-message attribution result kept in the ledger's recent ring."""

    __slots__ = ("trace_id", "flush_span", "episode", "bytes", "joules", "piggybacked")

    def __init__(self, trace_id: int, flush_span: int, episode: int,
                 size: int, joules: float, piggybacked: bool) -> None:
        self.trace_id = trace_id
        self.flush_span = flush_span
        self.episode = episode
        self.bytes = size
        self.joules = joules
        self.piggybacked = piggybacked


class EnergyLedger:
    """Per-device modem energy accounting with per-message attribution.

    Listens to the modem's RRC transitions and reproduces Table 3's
    marginal accounting at message granularity:

    * an episode **triggered by a Pogo flush** is charged to Pogo in
      full — ramp, transfer, DCH tail and FACH tail — prorated across
      the traced messages that rode it by wire bytes;
    * an episode **triggered externally** (the e-mail app, a push, the
      handshake) charges piggybacked Pogo messages only their marginal
      transfer energy (transfer time at DCH power); the ramp and tail
      belong to whoever woke the radio — that is the entire point of
      tail synchronization.

    Energy never goes missing: ``attributed_j + control_j +
    unattributed_j`` equals ``active_j``, the rail's joules over all
    closed episodes, and ``+ idle_j`` equals the rail's modem total —
    the ledger's reconciliation invariant (the CLI prints the delta;
    the chaos invariant monitor checks it).
    """

    __slots__ = (
        "kernel", "modem", "_rail", "_episode", "_episode_ids",
        "_pending_flush_trigger", "_parked_riders", "episodes_closed",
        "episodes_by_trigger", "attributed_j", "control_j", "unattributed_j",
        "active_j", "messages_attributed", "piggybacked_messages", "recent",
        "wifi_bytes",
    )

    def __init__(self, kernel, modem, rail) -> None:
        self.kernel = kernel
        self.modem = modem
        self._rail = rail
        self._episode: Optional[RadioEpisode] = None
        self._episode_ids = itertools.count(1)
        self._pending_flush_trigger = False
        self._parked_riders: List[Tuple[int, int, int]] = []

        self.episodes_closed = 0
        self.episodes_by_trigger: Dict[str, int] = {"flush": 0, "external": 0}
        #: Energy attributed to traced messages / untraced control payloads
        #: / non-Pogo radio use; together they split ``active_j``.
        self.attributed_j = 0.0
        self.control_j = 0.0
        self.unattributed_j = 0.0
        #: The rail's modem joules over all closed episodes.
        self.active_j = 0.0
        self.messages_attributed = 0
        self.piggybacked_messages = 0
        self.recent: "deque[MessageEnergy]" = deque(maxlen=RECENT_MESSAGES)
        #: Pogo bytes that rode Wi-Fi flushes (no modem tail to attribute).
        self.wifi_bytes = 0

        modem.on_state_change.append(self._on_state_change)

    def _modem_j(self) -> float:
        return self._rail.energy_of(self.modem.name)

    # ------------------------------------------------------------------
    # Flush notifications (from DeviceNode.flush)
    # ------------------------------------------------------------------
    def on_flush(
        self,
        flush_span: int,
        riders: List[Tuple[int, int]],
        interface: Optional[str],
        radio_state: str,
    ) -> None:
        """Register a flush's messages as riders of the radio episode.

        ``riders`` is (trace_id, bytes) per payload; trace id 0 marks
        control traffic (sub ops, acks) that rides but is not a traced
        message.  Called *before* the physical sends, so a flush from
        idle sets the trigger marker the episode-open transition reads
        within the same kernel instant.
        """
        if interface == "wifi":
            self.wifi_bytes += sum(size for _, size in riders)
            return
        triples = [(flush_span, trace_id, size) for trace_id, size in riders]
        if self._episode is not None:
            self._episode.riders.extend(triples)
        else:
            # Radio is idle: our own transfer will open the episode in
            # this same instant.  Mark the trigger and park the riders.
            self._pending_flush_trigger = True
            self._parked_riders.extend(triples)

    def settle_flush(self) -> None:
        """Drop a stale self-flush marker after the flush's sends ran.

        Normally a flush from idle ramps the radio synchronously inside
        the send and the episode-open transition consumes the marker; if
        the transfer never reached the modem (transport failure) the
        marker and parked riders must not leak into a later, unrelated
        episode.
        """
        if self._episode is None and self._pending_flush_trigger:
            self._pending_flush_trigger = False
            self._parked_riders.clear()

    # ------------------------------------------------------------------
    # RRC state machine listener
    # ------------------------------------------------------------------
    def _on_state_change(self, old: str, new: str) -> None:
        if old in ("idle", "off") and new == "ramp":
            trigger = "flush" if self._pending_flush_trigger else "external"
            self._pending_flush_trigger = False
            self._episode = RadioEpisode(
                next(self._episode_ids), self.kernel.now, trigger, self._modem_j()
            )
            self._episode.riders.extend(self._parked_riders)
            self._parked_riders.clear()
        elif new in ("idle", "off") and self._episode is not None:
            self._close_episode()

    def _close_episode(self) -> None:
        episode = self._episode
        self._episode = None
        episode.end_ms = self.kernel.now
        episode.energy_j = self._modem_j() - episode.start_j
        self.active_j += episode.energy_j
        self.episodes_closed += 1
        self.episodes_by_trigger[episode.trigger] = (
            self.episodes_by_trigger.get(episode.trigger, 0) + 1
        )
        self._attribute(episode)

    # ------------------------------------------------------------------
    # Attribution math
    # ------------------------------------------------------------------
    def _transfer_energy_j(self, size: int) -> float:
        """Marginal cost of sending ``size`` bytes in an already-hot
        episode: the transfer duration at DCH power."""
        profile = self.modem.profile
        duration_ms = max(
            profile.min_transfer_ms, size / profile.uplink_bytes_per_s * 1000.0
        )
        return profile.dch_w * duration_ms / 1000.0

    def _attribute(self, episode: RadioEpisode) -> None:
        total = episode.energy_j
        if not episode.riders:
            self.unattributed_j += total
            return
        if episode.trigger == "flush":
            # Pogo woke the radio: it owns the whole episode — ramp,
            # transfer, and both tails (what Table 3's "Without
            # synchronization" column pays per transmission).
            pogo_share = total
            piggybacked = False
        else:
            # Piggybacked: charge only the marginal transfer energy, one
            # transfer estimate per flush that rode (a flush's payloads
            # coalesce into one batch transfer).  Capped by the episode.
            by_flush: Dict[int, int] = {}
            for flush_span, _, size in episode.riders:
                by_flush[flush_span] = by_flush.get(flush_span, 0) + size
            pogo_share = min(
                total, sum(self._transfer_energy_j(size) for size in by_flush.values())
            )
            piggybacked = True
        self.unattributed_j += total - pogo_share

        rider_bytes = episode.pogo_bytes
        for flush_span, trace_id, size in episode.riders:
            share = pogo_share * (size / rider_bytes) if rider_bytes else 0.0
            if trace_id:
                self.attributed_j += share
                self.messages_attributed += 1
                if piggybacked:
                    self.piggybacked_messages += 1
                self.recent.append(
                    MessageEnergy(trace_id, flush_span, episode.index, size, share, piggybacked)
                )
            else:
                self.control_j += share

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close any open episode at 'now' so end-of-run reports include
        the in-flight tail."""
        if self._episode is not None:
            self._close_episode()

    @property
    def idle_j(self) -> float:
        """The rail's modem joules outside every episode so far."""
        episode = self._episode
        modem_j = episode.start_j if episode is not None else self._modem_j()
        return modem_j - self.active_j

    @property
    def total_j(self) -> float:
        return self.active_j + self.idle_j

    def reconciliation_delta(self) -> float:
        """|attributed + control + unattributed − active| as a fraction
        of ``active_j``, the rail's joules over the closed episodes."""
        if self.active_j <= 0.0:
            return 0.0
        parts = self.attributed_j + self.control_j + self.unattributed_j
        return abs(parts - self.active_j) / self.active_j
