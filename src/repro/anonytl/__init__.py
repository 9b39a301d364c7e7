"""AnonyTL: AnonySense's task DSL, compiled onto Pogo (the baseline)."""

from .tasks import ROGUEFINDER_TASK, parse_task
from .compiler import REPORT_CHANNEL, compile_task, deploy_task

__all__ = [
    "ROGUEFINDER_TASK",
    "parse_task",
    "REPORT_CHANNEL",
    "compile_task",
    "deploy_task",
]
