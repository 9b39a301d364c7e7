"""Deterministic chaos engine + online invariant monitor.

Generalizes the Section 5.3 deployment disruptions into reproducible
fault campaigns (drop/dup/reorder/latency/partition, XMPP server
restarts, device churn) against the message pipeline, while an invariant
monitor proves from the outside that the middleware's promises —
exactly-once in-order delivery, buffer and envelope conservation,
scheduler serialization, balanced energy books — survive the abuse.
"""

from .engine import ChaosEngine
from .impairments import ChaosInterceptor, Impairment, stanza_trace_ids
from .scenarios import BUGS, SCENARIOS, render_report, report_json, run_scenario

__all__ = [
    "BUGS",
    "SCENARIOS",
    "ChaosEngine",
    "ChaosInterceptor",
    "Impairment",
    "render_report",
    "report_json",
    "run_scenario",
    "stanza_trace_ids",
]
