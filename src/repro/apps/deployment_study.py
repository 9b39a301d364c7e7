"""The 24-day localization deployment (Section 5.3, Table 4).

This module regenerates the paper's field study in simulation: nine user
sessions (eight participants; user 2 switched phones mid-study, giving
sessions 2a and 2b), each living a synthetic life while the localization
application runs, with the deployment's disruptions injected:

* random phone reboots and battery-outs;
* researcher script pushes on fixed days (state loss, pre-freeze/thaw);
* user 2a's trip abroad with data roaming off (→ 24 h purge);
* user 3's two-day 3G outage (he had no Wi-Fi offload);
* user 7 running without mobile Internet (Wi-Fi offload only).

Ground truth mirrors the paper's methodology: "The application
additionally logged all Wi-Fi scan results to SD card, and these raw
traces were collected after the experiment" — here a node-local
subscription records every sanitized scan, and the same clustering
algorithm is run offline over that log.  Table 4's columns fall out:
scans + raw bytes, locations + reduced bytes, match %, partial %.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.clustering import Cluster, cluster_stream
from ..analysis.matching import MatchReport, data_reduction_percent, match_clusters
from ..core.messages import message_size_bytes
from ..core.middleware import PogoSimulation
from ..core.services import install_geolocation
from ..world.disruptions import cell_outage, standard_plan, trip_abroad
from ..world.mobility import UserProfile
from ..world.rssi import PropagationModel
from . import localization

#: The deployment's RF environment.  Real phones in pockets see far more
#: RSSI churn than a clean path-loss model (body shadowing, AP load,
#: multipath): the paper's location counts (e.g. 230 sessions in ~18
#: days) imply clusters split well beyond the true dwell count.  A high
#: shadowing sigma and dropout rate reproduce that churn; both the
#: on-device pipeline and the ground truth see the same scans, so this
#: affects *session counts*, not match quality.
DEPLOYMENT_PROPAGATION = PropagationModel(sigma_db=6.0, dropout_probability=0.10)

#: Clustering parameters used by the deployed scripts *and* the offline
#: ground-truth pass (they must agree, as they did in the paper).  The
#: tight reachability threshold (together with the noisy RF model above)
#: reproduces the paper's session counts: clusters close not only when
#: the user leaves but also when the radio environment shifts enough,
#: which is why Table 4 reports hundreds of sessions per user.
DBSCAN_PARAMS = dict(eps_similarity=0.77, min_pts=5, window=60)


@dataclass
class SessionSpec:
    """One participant-session of the deployment."""

    name: str
    days: int
    lifestyle: str = "regular"
    #: Extra keyword overrides applied to the generated UserProfile.
    profile_overrides: Dict = field(default_factory=dict)
    has_mobile_data: bool = True
    wifi_enabled: bool = True
    trip_abroad_days: Optional[Tuple[float, float]] = None
    cell_outage_days: Optional[Tuple[float, float]] = None
    reboot_rate_per_day: float = 0.25
    update_days: Tuple[int, ...] = (2, 5, 9, 16)


#: The nine sessions, shaped after Table 4's row characteristics: user 1
#: joined late (fewer scans), user 2 split sessions around a phone swap
#: with a trip abroad during 2a, user 3 is highly mobile with a 3G
#: outage, user 6 is a homebody, user 7 has no mobile Internet.
DEFAULT_SESSIONS: Tuple[SessionSpec, ...] = (
    SessionSpec("user1", days=18, reboot_rate_per_day=0.20),
    SessionSpec("user2a", days=8, trip_abroad_days=(6.0, 7.5), update_days=(2, 5)),
    SessionSpec("user2b", days=5, update_days=(2,)),
    SessionSpec(
        "user3",
        days=24,
        lifestyle="mobile",
        profile_overrides={"visits_per_day": (18, 26), "visit_duration_min": (10.0, 32.0)},
        # Covers several weekdays: the field worker's dense visit days
        # are what the purge erases (the paper's biggest match hit).
        cell_outage_days=(8.5, 13.0),
        wifi_enabled=False,
        reboot_rate_per_day=0.25,
    ),
    SessionSpec("user4", days=23),
    SessionSpec(
        "user5",
        days=24,
        profile_overrides={"evening_out_probability": 0.55, "lunch_out_probability": 0.6},
    ),
    SessionSpec(
        "user6",
        days=24,
        profile_overrides={"evening_out_probability": 0.10, "lunch_out_probability": 0.15,
                           "weekend_outings": (0, 2)},
    ),
    SessionSpec(
        "user7",
        days=24,
        has_mobile_data=False,
        profile_overrides={"evening_out_probability": 0.65, "lunch_out_probability": 0.75,
                           "weekend_outings": (2, 4)},
        reboot_rate_per_day=0.20,
    ),
    SessionSpec("user8", days=24),
)

#: Table 4 as printed in the paper, for side-by-side comparison.
PAPER_TABLE4 = {
    "user1": dict(scans=25_562, raw=6_278_929, locations=230, reduced=89_514, match=95, partial=96),
    "user2a": dict(scans=11_474, raw=3_082_356, locations=121, reduced=48_048, match=86, partial=90),
    "user2b": dict(scans=6_745, raw=2_139_525, locations=93, reduced=44_154, match=97, partial=100),
    "user3": dict(scans=33_224, raw=9_064_727, locations=1282, reduced=437_527, match=80, partial=83),
    "user4": dict(scans=32_092, raw=12_664_291, locations=274, reduced=139_572, match=92, partial=97),
    "user5": dict(scans=33_549, raw=11_836_962, locations=333, reduced=197_433, match=95, partial=98),
    "user6": dict(scans=34_230, raw=14_426_142, locations=158, reduced=77_251, match=89, partial=96),
    "user7": dict(scans=35_637, raw=9_305_313, locations=703, reduced=181_389, match=96, partial=98),
    "user8": dict(scans=34_395, raw=11_618_974, locations=329, reduced=141_634, match=95, partial=97),
}


@dataclass
class SessionResult:
    """One regenerated Table 4 row."""

    name: str
    scans: int
    raw_bytes: int
    locations: int
    location_bytes: int
    match_percent: float
    partial_percent: float
    truth_clusters: int
    expired_messages: int
    report: MatchReport

    def row(self) -> str:
        return (
            f"{self.name:<8} {self.scans:>7,} {self.raw_bytes:>11,} "
            f"{self.locations:>9,} {self.location_bytes:>9,} "
            f"{self.match_percent:>6.0f}% {self.partial_percent:>7.0f}%"
        )


def run_session(
    spec: SessionSpec,
    seed: int = 2012,
    with_freeze: bool = False,
) -> SessionResult:
    """Simulate one participant-session and score it against ground truth."""
    sim = PogoSimulation(seed=seed)
    collector = sim.add_collector("researcher")
    profile = UserProfile(name=spec.name, lifestyle=spec.lifestyle, **spec.profile_overrides)
    device = sim.add_device(
        world_days=spec.days,
        with_email_app=True,
        user_profile=profile,
        propagation=DEPLOYMENT_PROPAGATION,
    )

    install_geolocation(collector, device)

    # The SD-card log: every sanitized scan, recorded node-locally the
    # moment the experiment context exists.
    sdcard_log: List[Tuple[float, Dict[str, float]]] = []

    def attach_logger(context) -> None:
        context.broker.subscribe(
            localization.CHANNEL_FILTERED,
            lambda msg: sdcard_log.append((msg["time"], msg["vector"])),
            owner="local:sdcard",
        )

    device.node.on_context_added.append(attach_logger)

    # Connectivity constraints of this participant.
    if not spec.has_mobile_data:
        device.phone.set_data_enabled(False)
    if not spec.wifi_enabled:
        # No Wi-Fi *internet* for this participant (scanning still works:
        # the localization app depends on it).
        device.phone.suppress_wifi_association(True)

    # Disruptions.
    extra = []
    if spec.trip_abroad_days is not None:
        extra.extend(trip_abroad(*spec.trip_abroad_days))
    if spec.cell_outage_days is not None:
        extra.extend(cell_outage(*spec.cell_outage_days))
    disruption_rng = sim.streams.stream(f"disruptions/{spec.name}")
    plan = standard_plan(
        disruption_rng,
        spec.days,
        reboot_rate_per_day=spec.reboot_rate_per_day,
        update_days=list(spec.update_days),
        extra=extra,
    )

    sim.start()
    sim.assign(collector, [device])
    experiment = localization.build_experiment(with_freeze=with_freeze, **DBSCAN_PARAMS)
    context = collector.node.deploy(experiment, [device.jid])

    clustering_source = experiment.device_scripts["clustering"]
    plan.schedule(
        sim.kernel,
        device.phone,
        on_script_update=lambda: collector.node.push_script(
            localization.EXPERIMENT_ID, "clustering", clustering_source
        ),
    )

    sim.run(days=spec.days)

    # Score against ground truth, exactly as the paper did.
    database = context.scripts["collect"].namespace["database"]
    collected = [Cluster.from_message(entry) for entry in database]
    truth = cluster_stream(sdcard_log, **DBSCAN_PARAMS)
    report = match_clusters(truth, collected)

    raw_bytes = sum(
        message_size_bytes({"time": t, "vector": v}) for t, v in sdcard_log
    )
    location_bytes = sum(message_size_bytes(entry) for entry in database)
    return SessionResult(
        name=spec.name,
        scans=len(sdcard_log),
        raw_bytes=raw_bytes,
        locations=len(database),
        location_bytes=location_bytes,
        match_percent=report.match_percent,
        partial_percent=report.partial_percent,
        truth_clusters=report.total,
        expired_messages=device.node.buffer.expired,
        report=report,
    )


def run_deployment(
    sessions: Tuple[SessionSpec, ...] = DEFAULT_SESSIONS,
    seed: int = 2012,
) -> List[SessionResult]:
    """Run every session (each in its own simulation, like the real
    deployment's independent phones), without freeze/thaw as deployed."""
    return [
        run_session(spec, seed=seed + index)
        for index, spec in enumerate(sessions)
    ]


def format_table(results: List[SessionResult]) -> str:
    """Render results in the paper's Table 4 layout."""
    lines = [
        f"{'User':<8} {'Scans':>7} {'Size':>11} {'Locations':>9} {'Size':>9} {'Match':>7} {'Partial':>8}",
    ]
    for result in results:
        lines.append(result.row())
    total_scans = sum(r.scans for r in results)
    total_raw = sum(r.raw_bytes for r in results)
    total_locations = sum(r.locations for r in results)
    total_reduced = sum(r.location_bytes for r in results)
    reduction = data_reduction_percent(total_raw, total_reduced)
    lines.append(
        f"{'total':<8} {total_scans:>7,} {total_raw:>11,} "
        f"{total_locations:>9,} {total_reduced:>9,}   data reduction {reduction:.1f}%"
    )
    return "\n".join(lines)
