#!/usr/bin/env python
"""Reproduce the 3G tail-energy behaviour (Figure 3 + Table 3's shape).

Simulates a Galaxy Nexus class phone checking e-mail every five minutes,
with and without Pogo reporting battery samples, on each of the paper's
three Dutch carriers.  Prints:

* a Figure 3 style segmentation of a single transmission (ramp-up at a,
  transfer end at b, DCH→FACH at c, FACH→idle at d), and
* a Table 3 style comparison of hourly energy with/without Pogo.

Run:  python examples/tail_energy.py
"""

from repro.analysis.energy import percent_increase
from repro.apps.energy_study import EMAIL_CHECK_AFTER_MS, figure3_trace, table3_hour
from repro.device.radio import CARRIERS, KPN


def figure3() -> None:
    _, states = figure3_trace(3)
    seg = states.segment_tail(KPN, after_ms=EMAIL_CHECK_AFTER_MS)
    print("Figure 3 — one e-mail check on KPN (times relative to ramp start):")
    print(f"  a  ramp-up starts   {0.0:7.1f} s   (ramp {KPN.ramp_ms/1000:.1f} s @ {KPN.ramp_w:.2f} W)")
    b = (seg.b_transfer_end_ms - seg.a_ramp_start_ms) / 1000
    c = (seg.c_dch_end_ms - seg.a_ramp_start_ms) / 1000
    d = (seg.d_fach_end_ms - seg.a_ramp_start_ms) / 1000
    print(f"  b  transfer ends    {b:7.1f} s")
    print(f"  c  DCH tail ends    {c:7.1f} s   ({seg.dch_tail_ms/1000:.1f} s @ {KPN.dch_w:.2f} W)")
    print(f"  d  FACH tail ends   {d:7.1f} s   ({seg.fach_tail_ms/1000:.1f} s @ {KPN.fach_w:.2f} W)")
    print(
        f"  tail (b→d): {seg.tail_duration_ms/1000:.1f} s, "
        f"{seg.tail_energy_j:.2f} J — vs {seg.transfer_energy_j:.2f} J for the transfer itself\n"
    )


def table3() -> None:
    print("Table 3 — hourly energy, e-mail every 5 min, Pogo sampling battery 1/min:")
    print(f"  {'Carrier':<10} {'Without Pogo':>13} {'With Pogo':>11} {'Increase':>9}")
    for name, carrier in CARRIERS.items():
        base = table3_hour(carrier, False, 3).joules
        with_pogo = table3_hour(carrier, True, 3).joules
        print(
            f"  {name:<10} {base:>11.2f} J {with_pogo:>9.2f} J "
            f"{percent_increase(base, with_pogo):>8.2f}%"
        )
    print(
        "\nPogo rides the e-mail app's radio sessions, so its sensing adds\n"
        "only single-digit-percent overhead despite reporting every minute."
    )


if __name__ == "__main__":
    figure3()
    table3()
