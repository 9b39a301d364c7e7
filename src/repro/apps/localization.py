"""The Wi-Fi localization application (Section 4.1, Figure 1, Table 4).

Three cooperating Pogo scripts:

* ``scan`` (device) — requests a Wi-Fi scan every minute, removes locally
  administered access points, normalizes RSSI to [0, 1] (0 ↦ −100 dBm,
  1 ↦ −55 dBm) and publishes the sanitized vector on ``filtered-scans``;
* ``clustering`` (device) — the modified sliding-window DBSCAN; closed
  clusters (entry/exit timestamps + the characterizing sample) go to
  ``clusters``.  The core algorithm is embedded verbatim from
  :mod:`repro.analysis.clustering`, so the deployed code and the offline
  ground-truth pass cannot diverge;
* ``collect`` (collector) — receives clusters from the whole fleet,
  resolves each to a (lat, lon) via the geolocation service and appends
  the annotated place to its database.

Script sources are built by functions so experiments can tweak the
parameters (interval, DBSCAN eps/min_pts/window) and — for the
freeze/thaw ablation — enable state persistence across interruptions.
"""

from __future__ import annotations

from ..analysis.clustering import clustering_script_core
from ..core.deployment import Experiment

EXPERIMENT_ID = "localization"

#: Channel names (Figure 1's data flow).
CHANNEL_RAW = "wifi-scan"
CHANNEL_FILTERED = "filtered-scans"
CHANNEL_CLUSTERS = "clusters"

#: The deployment's Wi-Fi scan interval: one scan a minute.
SCAN_INTERVAL_MS = 60_000


def build_scan_script() -> str:
    """The ``scan`` script: sanitize and normalize raw scans."""
    return f'''setDescription('Scans Wi-Fi, drops locally administered APs, normalizes RSSI')

SCAN_INTERVAL_MS = {SCAN_INTERVAL_MS}
NORMALIZE_FLOOR_DBM = -100.0
NORMALIZE_CEIL_DBM = -55.0


def locally_administered(bssid):
    first_octet = int(bssid[0:2], 16)
    return (first_octet & 0x02) != 0


def normalize(rssi_dbm):
    span = NORMALIZE_CEIL_DBM - NORMALIZE_FLOOR_DBM
    value = (rssi_dbm - NORMALIZE_FLOOR_DBM) / span
    if value < 0.0:
        value = 0.0
    if value > 1.0:
        value = 1.0
    return value


def handle_scan(msg):
    vector = {{}}
    for ap in msg['aps']:
        if locally_administered(ap['bssid']):
            continue
        vector[ap['bssid']] = normalize(ap['rssi'])
    publish('filtered-scans', {{'time': msg['timestamp'], 'vector': vector}})


subscribe('wifi-scan', handle_scan, {{'interval': SCAN_INTERVAL_MS}})
'''


def build_clustering_script(
    eps_similarity: float = 0.55,
    min_pts: int = 5,
    window: int = 60,
    with_freeze: bool = False,
) -> str:
    """The ``clustering`` script: windowed DBSCAN over filtered scans.

    ``with_freeze=True`` produces the post-deployment version that
    freezes its state after every sample and thaws on start — the fix the
    paper added after observing interrupted clusters (Section 5.3).
    """
    core = clustering_script_core()
    freeze_restore = """
saved = thaw()
if saved is not None:
    dbscan.restore(saved)
""" if with_freeze else ""
    freeze_step = """
    freeze(dbscan.state())""" if with_freeze else ""
    return f'''setDescription('Clusters Wi-Fi scans into dwell locations (windowed DBSCAN)')

{core}

EPS_SIMILARITY = {eps_similarity}
MIN_PTS = {min_pts}
WINDOW = {window}

dbscan = WindowedDBSCAN(EPS_SIMILARITY, MIN_PTS, WINDOW)
{freeze_restore}

def emit_cluster(cluster):
    publish('clusters', cluster)


dbscan.on_cluster = emit_cluster


def handle_filtered(msg):
    dbscan.add(msg['time'], msg['vector']){freeze_step}


subscribe('filtered-scans', handle_filtered)
'''


def build_collect_script() -> str:
    """The ``collect`` script (collector side): geolocate and store."""
    return '''setDescription('Collects clusters, annotates with geolocation, stores them')

database = []
pending = {}
counter = [0]


def store(qid, fix):
    cluster = pending.pop(qid, None)
    if cluster is None:
        return
    cluster['place'] = fix
    database.append(cluster)
    logTo('places', json(cluster))


def handle_cluster(msg):
    counter[0] += 1
    qid = counter[0]
    pending[qid] = msg.copy()
    publish('geo-lookup', {'id': qid, 'vector': msg['representative']})

    def give_up():
        store(qid, None)

    setTimeout(give_up, 30 * 1000)


def handle_fix(msg):
    store(msg['id'], msg['fix'])


subscribe('clusters', handle_cluster)
subscribe('geo-result', handle_fix)
'''


def build_experiment(
    eps_similarity: float = 0.55,
    min_pts: int = 5,
    window: int = 60,
    with_freeze: bool = False,
) -> Experiment:
    """The complete localization experiment, ready to deploy."""
    return Experiment(
        experiment_id=EXPERIMENT_ID,
        description="Find locations where users dwell, via Wi-Fi clustering",
        device_scripts={
            "scan": build_scan_script(),
            "clustering": build_clustering_script(
                eps_similarity, min_pts, window, with_freeze
            ),
        },
        collector_scripts={"collect": build_collect_script()},
    )
