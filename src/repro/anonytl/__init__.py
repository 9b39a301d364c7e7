"""AnonyTL: AnonySense's task DSL, compiled onto Pogo (the baseline)."""

from .parser import (
    AnonyTLSyntaxError,
    Attribute,
    Symbol,
    head_is,
    parse_forms,
    tokenize,
)
from .tasks import (
    ROGUEFINDER_TASK,
    AcceptPredicate,
    AnonyTLSemanticError,
    AnonyTLTask,
    PolygonCondition,
    ReportSpec,
    parse_task,
)
from .compiler import (
    REPORT_CHANNEL,
    compile_task,
    deploy_task,
    generate_collector_script,
    generate_device_script,
)

__all__ = [
    "AnonyTLSyntaxError",
    "Attribute",
    "Symbol",
    "head_is",
    "parse_forms",
    "tokenize",
    "ROGUEFINDER_TASK",
    "AcceptPredicate",
    "AnonyTLSemanticError",
    "AnonyTLTask",
    "PolygonCondition",
    "ReportSpec",
    "parse_task",
    "REPORT_CHANNEL",
    "compile_task",
    "deploy_task",
    "generate_collector_script",
    "generate_device_script",
]
