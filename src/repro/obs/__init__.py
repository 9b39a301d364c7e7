"""Fleet-wide telemetry plane: live progress, time-series, health.

The multiprocess fleet coordinator (ROADMAP item 1, PR 6) runs 50k-device
simulations across worker processes — and until now each worker was a
black box between launch and the merged report.  This package makes the
fleet observable *while it runs*, without ever perturbing it:

* :mod:`repro.obs.telemetry` — the per-shard sampler.  In a run started
  with ``telemetry=True``, each shard's driver reads its kernel
  counters, heap depth, span-latency digests, energy totals and
  invariant status into one snapshot dict at every epoch barrier;
  wall-clock facts (worker CPU, RSS, barrier stall) ride in a clearly
  segregated ``wall`` section.
* :mod:`repro.obs.timeline` — the coordinator-side aggregator: per-shard
  snapshots become a canonical time-series with byte-deterministic JSONL
  export (wall fields stripped in deterministic mode), additive
  aggregate totals that must match the solo run, and a fleet health
  verdict (slow shards, barrier imbalance, stall accounting).
* :mod:`repro.obs.prometheus` — text-exposition rendering of a finished
  timeline, for scraping or one-shot export.
* :mod:`repro.obs.live` — the ``repro top`` progress view, refreshed at
  each barrier: sim-time, events/s, per-shard lag bars, handoff backlog.

Telemetry is out-of-band and keyed to simulated time: sampling only
*reads* simulation state, every deterministic field is a function of the
seed, and the solo and partitioned runs of the same fleet agree on all
aggregate totals.
"""
