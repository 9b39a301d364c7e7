"""Community noise mapping: the urban-sensing workload of the intro.

The paper motivates Pogo with community sensing (refs [5, 20]); the
textbook instance is a city noise map.  This application demonstrates the
middleware's multi-sensor composition:

* the device script joins **two** sensor streams — sound levels from the
  microphone and coarse position fixes — and aggregates them on-device
  into per-cell statistics (count/mean/max per ~100 m grid cell),
  publishing a digest every :data:`REPORT_EVERY_MS` instead of raw audio
  (on-line reduction again, and far better for privacy than shipping
  sound);
* the collector script merges digests from the whole fleet into one map.

Channels: consumes ``audio`` and ``locations``; publishes
``noise-digest``.
"""

from __future__ import annotations

from ..core.deployment import Experiment

EXPERIMENT_ID = "noise-map"

CHANNEL_DIGEST = "noise-digest"

#: The mapper's sensor intervals, digest period and grid cell (degrees).
AUDIO_INTERVAL_MS = 30_000
LOCATION_INTERVAL_MS = 120_000
REPORT_EVERY_MS = 15 * 60_000
CELL_SIZE_DEG = 0.001


def build_mapper_script() -> str:
    """Device script: join audio + location into per-cell aggregates."""
    return f'''setDescription('Aggregates ambient noise levels into a local grid')

CELL = {CELL_SIZE_DEG}

state = {{'fix': None}}
cells = {{}}


def cell_key(fix):
    lat = math.floor(fix['lat'] / CELL) * CELL
    lon = math.floor(fix['lon'] / CELL) * CELL
    return str(round(lat, 6)) + ',' + str(round(lon, 6))


def handle_fix(msg):
    state['fix'] = msg


def handle_audio(msg):
    fix = state['fix']
    if fix is None:
        return
    key = cell_key(fix)
    cell = cells.get(key)
    if cell is None:
        cell = {{'n': 0, 'sum': 0.0, 'max': 0.0}}
        cells[key] = cell
    cell['n'] += 1
    cell['sum'] += msg['db']
    if msg['db'] > cell['max']:
        cell['max'] = msg['db']


def report():
    setTimeout(report, {REPORT_EVERY_MS})
    if not cells:
        return
    digest = {{}}
    for key, cell in cells.items():
        digest[key] = {{
            'n': cell['n'],
            'mean': round(cell['sum'] / cell['n'], 1),
            'max': round(cell['max'], 1),
        }}
    publish('noise-digest', {{'cells': digest}})
    cells.clear()


def start():
    setTimeout(report, {REPORT_EVERY_MS})


subscribe('audio', handle_audio, {{'interval': {AUDIO_INTERVAL_MS}}})
subscribe('locations', handle_fix, {{'interval': {LOCATION_INTERVAL_MS}}})
'''


def build_collect_script() -> str:
    """Collector script: merge per-device digests into the city map."""
    return '''setDescription('Merges noise digests from the fleet into one map')

noise_map = {}
digests = []


def handle(msg):
    digests.append(msg)
    for key, stats in msg['cells'].items():
        cell = noise_map.get(key)
        if cell is None:
            cell = {'n': 0, 'sum': 0.0, 'max': 0.0, 'devices': []}
            noise_map[key] = cell
        cell['n'] += stats['n']
        cell['sum'] += stats['mean'] * stats['n']
        if stats['max'] > cell['max']:
            cell['max'] = stats['max']
        device = msg.get('_device')
        if device is not None and device not in cell['devices']:
            cell['devices'].append(device)


subscribe('noise-digest', handle)
'''


def build_experiment() -> Experiment:
    return Experiment(
        experiment_id=EXPERIMENT_ID,
        description="Community noise map from fleet microphones",
        device_scripts={
            "mapper": build_mapper_script(),
        },
        collector_scripts={"collect": build_collect_script()},
    )
