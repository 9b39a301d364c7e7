"""Reproduction of "Pogo, a Middleware for Mobile Phone Sensing".

Brouwers & Langendoen, MIDDLEWARE 2012 (doi:10.1007/978-3-642-35170-9_2).

The package implements the Pogo middleware — a scriptable
publish/subscribe framework for mobile phone sensing testbeds — together
with every substrate the paper's evaluation depends on, simulated:
phone hardware (CPU sleep states, 3G RRC power-state machine, battery),
an XMPP-like switchboard with realistic loss, a synthetic world with
Wi-Fi environments and human mobility, and the analysis pipeline
(sliding-window DBSCAN clustering, energy-trace segmentation).

Quick start::

    from repro import PogoSimulation, Experiment

    sim = PogoSimulation(seed=1)
    researcher = sim.add_collector("alice")
    phone = sim.add_device(world_days=1)
    sim.start()
    sim.assign(researcher, [phone])
    researcher.node.deploy(
        Experiment(
            experiment_id="hello",
            collector_scripts={"collect": COLLECT_SRC},
        ),
        [phone.jid],
    )
    sim.run(hours=1)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.

The package re-exports only the quick start's two names; everything else
is imported from the module that defines it, so a run loads the modules
it uses and no others (docs/INTERNALS.md, "Import layering").
"""

from .core.deployment import Experiment
from .core.middleware import PogoSimulation

__version__ = "1.0.0"

__all__ = ["Experiment", "PogoSimulation", "__version__"]
