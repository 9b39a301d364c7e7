"""Wire operations and experiment specifications.

Everything device and collector nodes say to each other is one of the
small set of operations below, carried as the payload of a reliable
envelope (:mod:`repro.net.acks`) over the XMPP switchboard.  Batches
group many payloads into one stanza — "messages are therefore buffered at
the device and sent out in batches" (Section 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .envelope import Envelope

#: Create the device-side counterpart context for an experiment.  Sent
#: before any deploy/sub op so that experiments without device scripts
#: (pure sensor collection) still get a context on the device.
OP_ATTACH = "attach"
#: Remote script deployment (also used for updates: same name, new source).
OP_DEPLOY = "deploy"
#: Tear down a whole experiment context.
OP_TEARDOWN = "teardown"
#: A published message crossing the network boundary.
OP_PUB = "pub"
#: Subscription synchronization between broker counterparts.
OP_SUB_ADD = "sub_add"
OP_SUB_RELEASE = "sub_release"
OP_SUB_RENEW = "sub_renew"
OP_SUB_REMOVE = "sub_remove"
#: Peer's subscription table should be cleared (sent by a device after a
#: reboot, before it re-announces its live subscriptions).
OP_SUB_RESET = "sub_reset"
#: A batch of payloads flushed together from a device buffer.
OP_BATCH = "batch"


def attach_op(experiment_id: str) -> Dict[str, Any]:
    return {"op": OP_ATTACH, "ctx": experiment_id}


def deploy_op(experiment_id: str, script_name: str, source: str) -> Dict[str, Any]:
    return {"op": OP_DEPLOY, "ctx": experiment_id, "script": script_name, "source": source}


def teardown_op(experiment_id: str) -> Dict[str, Any]:
    return {"op": OP_TEARDOWN, "ctx": experiment_id}


def pub_op(experiment_id: str, channel: str, message: Any) -> Dict[str, Any]:
    """A published message crossing the network boundary.

    The ``msg`` leaf is always an :class:`Envelope`: wrapping here (a
    no-op for the already-wrapped hot path) means every remote-bound pub
    carries its validated payload and cached canonical JSON with it.
    """
    return {
        "op": OP_PUB,
        "ctx": experiment_id,
        "channel": channel,
        "msg": Envelope.wrap(message),
    }


def sub_add_op(
    experiment_id: str, sub_id: int, channel: str, parameters: Optional[dict]
) -> Dict[str, Any]:
    return {
        "op": OP_SUB_ADD,
        "ctx": experiment_id,
        "sub": sub_id,
        "channel": channel,
        "params": parameters or {},
    }


def sub_change_op(op: str, experiment_id: str, sub_id: int) -> Dict[str, Any]:
    return {"op": op, "ctx": experiment_id, "sub": sub_id}


def batch_op(items: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {"op": OP_BATCH, "items": items}


@dataclass
class Experiment:
    """A deployable experiment: scripts for devices and for the collector.

    The localization application (Section 4.1) is::

        Experiment(
            experiment_id="localization",
            device_scripts={"scan": SCAN_SOURCE, "clustering": CLUSTERING_SOURCE},
            collector_scripts={"collect": COLLECT_SOURCE},
        )
    """

    experiment_id: str
    device_scripts: Dict[str, str] = field(default_factory=dict)
    collector_scripts: Dict[str, str] = field(default_factory=dict)
    description: str = ""

    def validate(self) -> None:
        if not self.experiment_id:
            raise ValueError("experiment needs an id")
        for name, source in {**self.device_scripts, **self.collector_scripts}.items():
            if not isinstance(source, str) or not source.strip():
                raise ValueError(f"script {name!r} has empty source")
            compile(source, f"<script {name}>", "exec")  # syntax check up front
