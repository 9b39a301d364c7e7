"""The Pogo script API: Table 1's eleven methods, and nothing else.

Section 4.4: "in the interest of security ... we hide the Java standard
library and of course all of the Android API from the application
programmer.  Instead, we expose only a small programming interface."

The reproduction's scripts are Python source executed in a namespace that
contains exactly:

==============================  ==========================================
``setDescription(description)`` script metadata, shown in the device UI
``setAutoStart(start)``         don't run until the user starts it
``print(m1, ..., mN)``          debug output (viewable on the phone)
``log(m1, ..., mN)``            append to the default persistent log
``logTo(name, m1, ..., mN)``    append to a named persistent log
``publish(channel, message)``   publish into the experiment's broker
``subscribe(channel, fn[, p])`` subscribe; returns a ``Subscription``
``freeze(object)``              persist one object (overwrites previous)
``thaw()``                      retrieve the frozen object (or ``None``)
``json(object)``                serialize to a JSON string
``setTimeout(fn, delay)``       run ``fn`` after ``delay`` ms
==============================  ==========================================

plus a restricted set of builtins and the ``math`` module (the paper's
JavaScript got ``Math`` for free; the clustering script needs it).  There
is deliberately no ``__import__``, no file or network access, and no way
to reach the host middleware objects.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional

#: Builtins scripts may use.  ``__import__`` is the notable omission:
#: without it, ``import`` statements raise ``ImportError`` inside scripts.
SAFE_BUILTINS: Dict[str, Any] = {
    name: __builtins__[name] if isinstance(__builtins__, dict) else getattr(__builtins__, name)
    for name in (
        "abs", "all", "any", "bool", "dict", "divmod", "enumerate", "filter",
        "float", "frozenset", "hash", "int", "isinstance", "iter", "len",
        "list", "map", "max", "min", "next", "pow", "range", "repr",
        "reversed", "round", "set", "sorted", "str", "sum", "tuple", "zip",
        "Exception", "ValueError", "TypeError", "KeyError", "IndexError",
        "ZeroDivisionError", "ArithmeticError", "StopIteration",
        # Class definitions inside scripts (the clustering script defines
        # one); __build_class__ is what the `class` statement compiles to.
        "__build_class__", "object", "staticmethod", "classmethod", "property",
    )
}


#: Identifiers under this prefix belong to the middleware: scripts that
#: name one are rejected at load (``scripting.compile_script``).
RESERVED_PREFIX = "__pogo_"

#: Where a metered script finds its host's step budget (the watchdog).
METER = RESERVED_PREFIX + "meter__"


class ScriptApi:
    """The Table 1 methods as bound methods of one per-host instance.

    Closures over ``host`` would work identically, but bound methods of a
    module-level class are picklable — and a script is free to stash an
    API function in a data variable, which would then ride along in a
    Shard snapshot.  Scripts stay isolated from each other because each
    host gets its own instance.
    """

    __slots__ = ("host",)

    def __init__(self, host) -> None:
        self.host = host

    def setDescription(self, description: str) -> None:
        self.host.description = str(description)

    def setAutoStart(self, start: bool) -> None:
        self.host.autostart = bool(start)

    def print(self, *messages: Any) -> None:
        self.host.debug_lines.append(" ".join(str(m) for m in messages))

    def log(self, *messages: Any) -> None:
        self.logTo("default", *messages)

    def logTo(self, log_name: str, *messages: Any) -> None:
        self.host.logs.setdefault(str(log_name), []).append(
            " ".join(str(m) for m in messages)
        )

    def publish(self, channel: str, message: Any) -> None:
        self.host.api_publish(channel, message)

    def subscribe(
        self,
        channel: str,
        fn: Callable[[Any], None],
        parameters: Optional[Dict[str, Any]] = None,
    ):
        return self.host.api_subscribe(channel, fn, parameters)

    def freeze(self, obj: Any) -> None:
        self.host.api_freeze(obj)

    def thaw(self) -> Any:
        return self.host.api_thaw()

    def json(self, obj: Any) -> str:
        return self.host.api_json(obj)

    def setTimeout(self, fn: Callable[[], None], delay: float):
        return self.host.api_set_timeout(fn, delay)


def build_namespace(host) -> Dict[str, Any]:
    """Construct the global namespace for one script host.

    ``host`` is a :class:`repro.core.scripting.ScriptHost`; every API
    entry is a bound method of that host's :class:`ScriptApi` instance.
    """
    api = ScriptApi(host)
    namespace: Dict[str, Any] = {
        "__builtins__": dict(SAFE_BUILTINS),
        "__name__": f"<pogo-script {host.name}>",
        METER: host.watchdog,
        "math": math,
    }
    namespace.update((name, getattr(api, name)) for name in api_method_names())
    return namespace


#: Number of public API methods — the paper advertises "only 11 methods".
API_METHOD_COUNT = 11


def api_method_names() -> list:
    """The Table 1 method names (for documentation and tests)."""
    return [
        "setDescription",
        "setAutoStart",
        "print",
        "log",
        "logTo",
        "publish",
        "subscribe",
        "freeze",
        "thaw",
        "json",
        "setTimeout",
    ]
