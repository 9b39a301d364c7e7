"""Figure 4 — Pogo's transmissions align with the e-mail app's wakeups.

Paper: "Pogo running alongside an e-mail application that periodically
checks for new mail.  The horizontal blocks show when the CPU, e-mail
app, and Pogo are active."  The CPU sleeps in between; Pogo's 1 Hz poll
(a sleep-frozen ``Thread.sleep`` loop) resumes only when the e-mail
app's alarm wakes the CPU, detects the byte counters moving and pushes
the buffered batch out inside the same radio session.

This benchmark reconstructs the three activity tracks and asserts the
alignment properties:

* every Pogo flush that transmitted data overlaps an e-mail activity
  block (within the radio session), so Pogo causes no ramp-ups of its
  own;
* the CPU is asleep for the overwhelming majority of the hour;
* the tail detector itself never wakes the CPU.
"""

import pytest

from repro.analysis.plotting import render_tracks
from repro.apps import battery_monitor
from repro.core.middleware import PogoSimulation
from repro.core.node import DeviceNode
from repro.sim.kernel import MINUTE, SECOND
from repro.sim.trace import Interval


def run_timeline():
    sim = PogoSimulation(seed=5, record_trace=True)
    collector = sim.add_collector("alice")
    device = sim.add_device(with_email_app=True)
    sim.start()
    sim.assign(collector, [device])
    collector.node.deploy(battery_monitor.build_experiment(), [device.jid])

    flush_times = []

    # DeviceNode is slotted: an instance cannot take a patched method, so
    # the trace rides a layout-compatible subclass (the null-lane idiom).
    class TracedNode(DeviceNode):
        __slots__ = ()

        def flush(self, reason="manual"):
            sent = super().flush(reason)
            if sent:
                flush_times.append((sim.kernel.now, reason, sent))
            return sent

    device.node.__class__ = TracedNode
    sim.run(duration_ms=10 * MINUTE)  # warm-up: connect, first syncs
    measure_start = sim.kernel.now
    baseline_wakes = device.phone.cpu.wake_count
    flush_times.clear()
    sim.run(hours=1)
    end = sim.kernel.now
    return {
        "device": device,
        "measure_start": measure_start,
        "end": end,
        "flushes": list(flush_times),
        "cpu_track": device.phone.cpu.awake_track.closed_intervals(end),
        "email_track": device.email_app().activity_track.closed_intervals(end),
        "radio_track": device.phone.modem.active_track.closed_intervals(end),
        "wakes": device.phone.cpu.wake_count - baseline_wakes,
    }


def in_window(intervals, start, end):
    # Strict at the right edge: a block opening exactly at the horizon
    # belongs to the next (unmeasured) interval.
    return [i for i in intervals if i.end >= start and i.start < end]


def render(data) -> str:
    start, end = data["measure_start"], data["end"]
    minutes = lambda t: (t - start) / MINUTE
    lines = [
        "Figure 4 — activity alignment over one measured hour",
        "",
        "  e-mail checks (block start → end)   Pogo flush inside the session",
    ]
    email_blocks = in_window(data["email_track"], start, end)
    for block in email_blocks:
        matching = [
            f for f in data["flushes"] if block.start - SECOND <= f[0] <= block.end + 30 * SECOND
        ]
        mark = f"flush @ {minutes(matching[0][0]):6.2f} min ({matching[0][2]} payloads)" if matching else "—"
        lines.append(
            f"  {minutes(block.start):6.2f} → {minutes(block.end):6.2f} min"
            f"        {mark}"
        )
    cpu = in_window(data["cpu_track"], start, end)
    awake = sum(i.duration for i in cpu)
    lines.append("")
    lines.append(
        f"  CPU awake {awake / SECOND:.1f} s of {(end-start)/SECOND:.0f} s "
        f"({100*awake/(end-start):.1f}%), {data['wakes']} wakeups"
    )
    lines.append(f"  Pogo flushes with data: {len(data['flushes'])}")
    # A 16-minute zoom, Figure 4 style (three e-mail checks).
    zoom_start, zoom_end = start, start + 16 * MINUTE
    pogo_blocks = [
        Interval(t - 500.0, t + 500.0) for t, _r, _s in data["flushes"]
    ]
    lines.append("")
    lines.append("  first 16 minutes (blocks = active):")
    lines.append(
        render_tracks(
            [
                ("CPU", data["cpu_track"]),
                ("e-mail", data["email_track"]),
                ("radio", data["radio_track"]),
                ("Pogo tx", pogo_blocks),
            ],
            zoom_start,
            zoom_end,
            width=64,
        )
    )
    return "\n".join(lines)


def test_figure4_transmission_alignment(benchmark, report):
    data = benchmark.pedantic(run_timeline, rounds=1, iterations=1)
    report("figure4_timeline", render(data))

    start, end = data["measure_start"], data["end"]
    email_blocks = in_window(data["email_track"], start, end)
    radio_blocks = in_window(data["radio_track"], start, end)
    flushes = data["flushes"]

    assert len(email_blocks) == 12  # every 5 minutes for an hour
    assert len(flushes) >= 10

    # Every data-carrying flush lands inside a radio session that an
    # e-mail check opened (the block plus its detection latency).
    for time, reason, _sent in flushes:
        assert any(
            block.start <= time <= block.end + 5 * SECOND for block in email_blocks
        ), f"flush at {time} ({reason}) not aligned with any e-mail check"

    # The radio never ramped up for Pogo alone: one active episode per
    # e-mail check (plus nothing else).
    assert len(radio_blocks) <= len(email_blocks) + 1

    # The CPU slept almost all hour.
    awake = sum(i.duration for i in in_window(data["cpu_track"], start, end))
    assert awake < 0.05 * (end - start)

    # Wakeups: one per e-mail check + one per battery sample (1/min).
    assert data["wakes"] <= 12 + 60 + 5
