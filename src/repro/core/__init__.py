"""Pogo middleware core: pub/sub, scripting, scheduling, nodes, tail sync."""

from .broker import (
    SUB_ADDED,
    SUB_RELEASED,
    SUB_REMOVED,
    SUB_RENEWED,
    Broker,
    Subscription,
)
from .buffer import (
    DEFAULT_MAX_AGE_MS,
    BufferedMessage,
    InMemoryStore,
    MessageBuffer,
    MessageStore,
    SqliteStore,
)
from .context import LINK_OWNER, Context, DeviceContext
from .deployment import Experiment
from .envelope import (
    Envelope,
    FrozenDict,
    FrozenList,
    canonical_json,
    freeze_message,
    thaw_message,
)
from .messages import (
    MessageError,
    copy_message,
    from_json,
    message_size_bytes,
    messages_equal,
    to_json,
    validate_message,
)
from .multibroker import CollectorContext, DeviceLink
from .node import CollectorNode, DeviceNode, Node
from .privacy import PrivacySettings
from .scheduler import PogoScheduler, ScheduledTask
from .scripting import (
    DEFAULT_WATCHDOG_MS,
    FreezeStore,
    ScriptError,
    ScriptHost,
    ScriptTimeoutError,
    Watchdog,
)
from .sensor_manager import SensorManager
from .tailsync import (
    ChargerPolicy,
    ImmediatePolicy,
    PeriodicPolicy,
    SynchronizedPolicy,
    TailDetector,
    TransmissionPolicy,
)
from .participation import ParticipationRecord, ParticipationTracker
from .power_model import ScriptPowerEstimate, ScriptPowerModel
from .testbed import AssignmentError, TestbedAdmin
from .api import API_METHOD_COUNT, api_method_names

__all__ = [
    "SUB_ADDED",
    "SUB_RELEASED",
    "SUB_REMOVED",
    "SUB_RENEWED",
    "Broker",
    "Subscription",
    "DEFAULT_MAX_AGE_MS",
    "BufferedMessage",
    "InMemoryStore",
    "MessageBuffer",
    "MessageStore",
    "SqliteStore",
    "LINK_OWNER",
    "Context",
    "DeviceContext",
    "Experiment",
    "Envelope",
    "FrozenDict",
    "FrozenList",
    "canonical_json",
    "freeze_message",
    "thaw_message",
    "MessageError",
    "copy_message",
    "from_json",
    "message_size_bytes",
    "messages_equal",
    "to_json",
    "validate_message",
    "CollectorContext",
    "DeviceLink",
    "CollectorNode",
    "DeviceNode",
    "Node",
    "PrivacySettings",
    "PogoScheduler",
    "ScheduledTask",
    "DEFAULT_WATCHDOG_MS",
    "FreezeStore",
    "ScriptError",
    "ScriptHost",
    "ScriptTimeoutError",
    "Watchdog",
    "SensorManager",
    "ChargerPolicy",
    "ImmediatePolicy",
    "PeriodicPolicy",
    "SynchronizedPolicy",
    "TailDetector",
    "TransmissionPolicy",
    "ParticipationRecord",
    "ParticipationTracker",
    "ScriptPowerEstimate",
    "ScriptPowerModel",
    "AssignmentError",
    "TestbedAdmin",
    "API_METHOD_COUNT",
    "api_method_names",
]
