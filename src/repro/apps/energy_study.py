"""The energy runs of Table 3, Figure 3 and Section 6, one recipe each.

The sibling of :mod:`deployment_study`: ``repro table3`` / ``tail-trace``
/ ``power-report``, the paper benchmarks and the examples all call these.
Table 3's phone checks e-mail every 5 minutes, with or without Pogo
sampling the battery once a minute; Figure 3 is one of those checks on
KPN, the rail sampled like the paper's shunt + ADC rig.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.energy import ModemStateLog
from ..core.deployment import Experiment
from ..core.power_model import component_joules
from ..core.services import install_geolocation
from ..core.shard import Shard, ShardSpec
from ..device.power import PowerMeter
from ..device.radio import KPN, CarrierProfile
from ..sim.kernel import MINUTE
from ..sim.trace import TimeSeries
from . import battery_monitor

#: Table 3's warm-up before the measured hour: connect, first syncs.
WARMUP_MS = 10 * MINUTE

#: Figure 3's run: the e-mail app's first check fires at t = 5 min.
TRACE_MS = 7 * MINUTE

#: Segment Figure 3's e-mail check, not the connection handshake near
#: t = 0, which produces a structurally identical tail.
EMAIL_CHECK_AFTER_MS = 4 * MINUTE

#: Figure 3's rail sampling interval (50 Hz).
METER_INTERVAL_MS = 20.0


def _private_shard(seed: int, carrier: CarrierProfile) -> Shard:
    """A recipe's shard.  Only numbers, the modem's log, the meter's
    samples and the device leave it; nobody reads its spans or metrics,
    so it records none."""
    return Shard(
        ShardSpec(shard_id="sim", seed=seed, carrier=carrier, spans=False, metrics=False)
    )


@dataclass(frozen=True)
class HourEnergy:
    """One measured hour of Table 3: the rail's joules, in total and per
    component (``"cpu"``, ``"modem"``, …), and what Pogo sent."""

    joules: float
    components: Dict[str, float]
    batches: int
    payloads: int


def table3_hour(carrier: CarrierProfile, with_pogo: bool, seed: int) -> HourEnergy:
    """One cell of Table 3: warm up, reset the rail, measure one hour."""
    sim = _private_shard(seed, carrier)
    collector = sim.add_collector("alice")
    device = sim.add_device(with_email_app=True)
    sim.start()
    sim.assign(collector, [device])
    if with_pogo:
        collector.node.deploy(battery_monitor.build_experiment(), [device.jid])
    sim.run(duration_ms=WARMUP_MS)
    phone, node = device.phone, device.node
    phone.rail.reset_energy()
    before = component_joules(phone)
    batches, payloads = node.batches_sent, node.payloads_sent
    sim.run(hours=1)
    return HourEnergy(
        joules=phone.energy_joules,
        components={c: j - before.get(c, 0.0) for c, j in component_joules(phone).items()},
        batches=node.batches_sent - batches,
        payloads=node.payloads_sent - payloads,
    )


def figure3_trace(seed: int) -> Tuple[TimeSeries, ModemStateLog]:
    """Figure 3's run on KPN, idle paging on: the rail's sampled watts
    and the modem's state log, whose ``segment_tail(KPN,
    after_ms=EMAIL_CHECK_AFTER_MS)`` is the figure's a–d."""
    sim = _private_shard(seed, KPN)
    device = sim.add_device(with_email_app=True, simulate_paging=True)
    states = ModemStateLog(sim.kernel, device.phone.modem, device.phone.rail)
    meter = PowerMeter(sim.kernel, device.phone.rail, interval_ms=METER_INTERVAL_MS)
    meter.start()
    sim.start()
    sim.run(duration_ms=TRACE_MS)
    meter.stop()
    return meter.samples, states


def power_run(experiments: List[Experiment], seed: int, hours: float):
    """The run :func:`~repro.core.power_model.script_joules` repeats: one
    phone with the e-mail app and exactly ``experiments`` deployed, its
    collector geolocating.  Returns the device."""
    sim = _private_shard(seed, KPN)
    collector = sim.add_collector("alice")
    device = sim.add_device(world_days=1, with_email_app=True)
    install_geolocation(collector, device)
    sim.start()
    sim.assign(collector, [device])
    # Experiments sharing one device (Section 3.1's many-to-many).
    for experiment in experiments:
        collector.node.deploy(experiment, [device.jid])
    sim.run(hours=hours)
    return device
