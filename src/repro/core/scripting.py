"""Script hosting: sandboxed execution, watchdog, freeze/thaw, lifecycle.

Pogo experiments are *source text* pushed to remote nodes and executed in
a sandboxed runtime (Rhino in the paper, a restricted ``exec`` here — see
:mod:`repro.core.api` for exactly what scripts can touch).  This module
implements the host around a running script:

* **Loading** — the source is executed top-to-bottom (running
  ``setDescription``/``setAutoStart`` and defining functions); if it
  defines ``start()`` and autostart is on, ``start()`` is invoked.
* **Serialization** — all calls into one script (subscription handlers,
  ``setTimeout`` callbacks, ``start``) are funneled through the node
  scheduler with the script's serial key: "only a single thread will run
  code from a given script at any time" (Section 4.5).
* **Watchdog** — "all calls to JavaScript functions by the framework must
  complete within a certain timeframe.  If the JavaScript function does
  not return in time, it is interrupted and an exception is thrown.  The
  default timeout is set to 100ms."  Rhino polices that by counting
  instructions; here a step meter is compiled into the script
  (:func:`compile_script`), so the verdict never depends on the host.
* **freeze/thaw** — one persisted object per script, surviving script
  stop/start cycles, updates and reboots (Section 4.4; added *because* of
  the data loss observed in Section 5.3).
"""

from __future__ import annotations

import ast
import functools
import json
import types
from typing import Any, Callable, Dict, List, Optional

from .api import METER, RESERVED_PREFIX, api_method_names, build_namespace
from .messages import from_json, to_json

#: Default watchdog budget, from the paper.
DEFAULT_WATCHDOG_MS = 100.0

#: Steps a millisecond of budget buys.  The busiest call in any benchmark
#: workload uses 13,540 of the default 100 ms = 200,000.
STEPS_PER_MS = 2_000


class ScriptError(Exception):
    """Base class for script-level failures."""


class ScriptTimeoutError(ScriptError):
    """A script call exceeded its watchdog budget."""


#: Public alias used by observability consumers (the watchdog span docs
#: and tests speak of "watchdog timeouts").
WatchdogTimeout = ScriptTimeoutError


class Watchdog:
    """The step budget of one script, refilled for every guarded call.

    The metered script finds this object in its globals (under
    :data:`~repro.core.api.METER`) and charges it as it runs.  Once the
    budget is gone every further step raises again, so ``while True:
    pass`` is stopped dead and so is a loop that catches ``Exception``.
    """

    __slots__ = ("timeout_ms", "violations", "left")

    def __init__(self, timeout_ms: float = DEFAULT_WATCHDOG_MS) -> None:
        self.timeout_ms = timeout_ms
        self.violations = 0
        #: Steps the running call may still take (negative: expired).
        self.left = 0

    @property
    def budget(self) -> int:
        return int(self.timeout_ms * STEPS_PER_MS)

    def guard(self, fn: Callable[..., Any], *args: Any) -> Any:
        self.left = self.budget
        try:
            return fn(*args)
        except ScriptTimeoutError:
            self.violations += 1
            raise

    def tick(self) -> bool:
        """One step, as an expression (comprehension clauses, lambdas)."""
        self.left -= 1
        if self.left < 0:
            self.expire()
        return True

    def expire(self) -> None:
        raise ScriptTimeoutError(
            f"script call exceeded {self.timeout_ms:.0f} ms watchdog budget"
        )


def _meter(attr: str, ctx: ast.expr_context = ast.Load()) -> ast.Attribute:
    return ast.Attribute(ast.Name(METER, ast.Load()), attr, ctx)


def _tick() -> ast.expr:
    return ast.Call(_meter("tick"), [], [])


def _charge() -> List[ast.stmt]:
    """``tick()`` inlined as two statements: no call on the hot path."""
    expired = ast.Compare(_meter("left"), [ast.Lt()], [ast.Constant(0)])
    return [
        ast.AugAssign(_meter("left", ast.Store()), ast.Sub(), ast.Constant(1)),
        ast.If(expired, [ast.Expr(ast.Call(_meter("expire"), [], []))], []),
    ]


@functools.lru_cache(maxsize=64)
def compile_script(source: str, name: str) -> types.CodeType:
    """Compile script source with the step meter built in.

    One step is charged wherever script code can repeat itself: the head
    of every loop body, the entry of every function and lambda, every
    item of every comprehension clause.  The meter is part of the
    sandbox, so a script that names anything under
    :data:`~repro.core.api.RESERVED_PREFIX` is rejected here, where it
    enters.  Inserted nodes take their parent's position: tracebacks keep
    the script's own line numbers.  Memoised: a fleet of hosts running
    one script parses, meters and compiles it once.
    """
    filename = f"<script {name}>"
    tree = ast.parse(source, filename)
    for node in ast.walk(tree):  # children are queued before a node is edited
        if isinstance(node, ast.Constant):
            continue
        for _, value in ast.iter_fields(node):
            for ident in value if isinstance(value, list) else (value,):
                if isinstance(ident, str) and ident.startswith(RESERVED_PREFIX):
                    raise ScriptError(
                        f"script {name!r} line {node.lineno}: "
                        f"{ident!r} is reserved for the middleware"
                    )
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            node.body[:0] = _charge()
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            at = 0 if ast.get_docstring(node, clean=False) is None else 1
            node.body[at:at] = _charge()
        elif isinstance(node, ast.Lambda):
            node.body = ast.BoolOp(ast.And(), [_tick(), node.body])
        elif isinstance(node, ast.comprehension):
            node.ifs.insert(0, _tick())
    return compile(ast.fix_missing_locations(tree), filename, "exec")


class ScriptFn:
    """Picklable reference to a function defined by a script.

    Functions created by ``exec`` cannot be pickled (their qualified name
    resolves nowhere), yet they sit in subscription handlers, timers and
    scheduler queues — all inside the Shard snapshot graph.  This wrapper
    stores the *host* and the function's name; after a restore re-executes
    the script source, the name resolves against the rebuilt namespace.
    ``__name__`` mirrors the wrapped function so watchdog/call spans
    record the same label either way.
    """

    def __init__(self, host: "ScriptHost", fn: Callable) -> None:
        self.host = host
        self.name = getattr(fn, "__name__", repr(fn))
        self._fn: Optional[Callable] = fn

    def __getstate__(self):
        return {"host": self.host, "name": self.name}

    def __setstate__(self, state):
        self.host = state["host"]
        self.name = state["name"]
        self._fn = None

    @property
    def __name__(self) -> str:
        return self.name

    def resolve(self) -> Optional[Callable]:
        fn = self._fn
        if fn is None:
            fn = self._fn = self.host.namespace.get(self.name)
        return fn

    def __call__(self, *args: Any) -> Any:
        fn = self.resolve()
        if fn is None:
            raise ScriptError(
                f"script {self.host.name!r} has no function {self.name!r}"
            )
        return fn(*args)


class _ScriptCallbackHandler:
    """Picklable subscription handler: funnel a delivery into the
    script's serialized scheduler lane (Section 4.5)."""

    __slots__ = ("host", "fn")

    def __init__(self, host: "ScriptHost", fn: "ScriptFn") -> None:
        self.host = host
        self.fn = fn

    def __call__(self, message: Any) -> None:
        host = self.host
        host.context.node.scheduler.submit(
            host.guarded_call, self.fn, message, serial_key=host.serial_key
        )


def _exec_stub(*_args: Any, **_kwargs: Any) -> None:
    """Side-effect sink used while re-executing a restored script."""
    return None


#: Namespace entries that are rebuilt (not pickled) on restore: the API
#: surface plus the interpreter plumbing.
_RUNTIME_NAMESPACE_KEYS = frozenset(
    ("__builtins__", "__name__", METER, "math", *api_method_names())
)

#: API entries stubbed out during the restore re-exec: anything whose
#: top-level invocation would repeat a side effect the snapshot already
#: contains (subscriptions, timers, publishes, log lines, freezes).
_RESTORE_STUBBED_KEYS = (
    "print", "log", "logTo", "publish", "subscribe", "freeze", "setTimeout",
)


class ScriptHost:
    """One deployed script inside a context."""

    def __init__(
        self,
        context,
        name: str,
        source: str,
        watchdog_ms: float = DEFAULT_WATCHDOG_MS,
    ) -> None:
        self.context = context
        self.name = name
        self.source = source
        self.watchdog = Watchdog(watchdog_ms)

        self.description = ""
        self.autostart = True
        self.loaded = False
        self.running = False
        self.load_count = 0

        self.debug_lines: List[str] = []
        self.logs: Dict[str, List[str]] = {}
        self.errors: List[Exception] = []
        self.namespace: Dict[str, Any] = {}
        self._timers: List[Any] = []

        # Resource accounting (Section 6 future work: "power modelling to
        # estimate the resource consumption of individual scripts").
        self.invocations = 0
        self.published_messages = 0
        self.published_bytes = 0
        self.timers_set = 0

        # Observability plane, pre-bound once per host.
        kernel = context.node.kernel
        self._m_call_steps = kernel.metrics.histogram(f"script.call_steps.{self.serial_key}")
        self._spans = kernel.spans
        self._h_call = kernel.spans.hop("script.call")
        self._h_watchdog = kernel.spans.hop("script.watchdog")

    # ------------------------------------------------------------------
    @property
    def serial_key(self) -> str:
        return f"{self.context.experiment_id}/{self.name}"

    @property
    def owner_key(self) -> str:
        """Owner tag for broker subscriptions (cleaned up on stop)."""
        return f"script:{self.name}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def load(self) -> None:
        """Execute the script body; call ``start()`` if autostart is on."""
        if self.running:
            self.stop()
        self.namespace = build_namespace(self)
        self.load_count += 1
        self.running = True
        try:
            self.watchdog.guard(exec, compile_script(self.source, self.name), self.namespace)
        except Exception as exc:  # noqa: BLE001 - report, stay contained
            self.errors.append(exc)
            self.running = False
            raise ScriptError(f"script {self.name!r} failed to load: {exc!r}") from exc
        self.loaded = True
        start = self.namespace.get("start")
        if self.autostart and callable(start):
            self.context.node.scheduler.submit(
                self.guarded_call, ScriptFn(self, start), serial_key=self.serial_key
            )

    def start(self) -> None:
        """Explicit user start for non-autostart scripts."""
        if not self.loaded:
            self.load()
            if self.autostart:
                return
        start = self.namespace.get("start")
        self.running = True
        if callable(start):
            self.context.node.scheduler.submit(
                self.guarded_call, ScriptFn(self, start), serial_key=self.serial_key
            )

    def stop(self) -> None:
        """Stop the script: drop subscriptions and timers, keep storage."""
        self.running = False
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self.context.broker.remove_owned_by(self.owner_key)

    def update(self, new_source: str) -> None:
        """Replace the script with a new version (remote redeployment).

        The frozen object survives, which is how post-deployment Pogo
        avoids losing cluster state across updates (Section 5.3).
        """
        self.stop()
        self.source = new_source
        self.load()

    # ------------------------------------------------------------------
    # Snapshot/restore (the Shard pickling contract)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle everything except the exec'd namespace internals.

        Functions and classes defined by ``exec`` are unpicklable; the
        API entries and ``math`` are rebuilt anyway.  What *is* state —
        the script's top-level data variables (counters, reading lists,
        stored subscription handles) — is kept and merged back over the
        re-executed namespace on restore.
        """
        state = self.__dict__.copy()
        namespace = state.pop("namespace", {})
        data = {}
        for key, value in namespace.items():
            if key in _RUNTIME_NAMESPACE_KEYS:
                continue
            if isinstance(value, (types.FunctionType, type, types.ModuleType)):
                continue  # recreated by re-executing the source
            data[key] = value
        state["namespace"] = data
        return state

    def __setstate__(self, state):
        data = state.pop("namespace", {})
        self.__dict__.update(state)
        self.namespace = {}
        if self.loaded:
            namespace = build_namespace(self)
            real_api = {key: namespace[key] for key in _RESTORE_STUBBED_KEYS}
            for key in _RESTORE_STUBBED_KEYS:
                namespace[key] = _exec_stub
            try:
                self.watchdog.guard(exec, compile_script(self.source, self.name), namespace)
            except Exception:  # noqa: BLE001 - a restore must not raise
                pass  # partial namespace; data entries still restore below
            namespace.update(real_api)
            self.namespace = namespace
        # Pickled data variables win over whatever top-level code reset.
        self.namespace.update(data)

    # ------------------------------------------------------------------
    # Guarded calls
    # ------------------------------------------------------------------
    def guarded_call(self, fn: Callable, *args: Any) -> None:
        """Run script code under the watchdog; contain its errors."""
        if not self.running:
            return
        self.invocations += 1
        watchdog = self.watchdog
        try:
            watchdog.guard(fn, *args)
        except Exception as exc:  # noqa: BLE001
            if isinstance(exc, ScriptTimeoutError):
                self.context.node.kernel.metrics.counter("watchdog.hits").inc()
                self._record(self._h_watchdog, fn, budget_ms=watchdog.timeout_ms)
            self.errors.append(exc)
        finally:
            # Steps used: the per-script resource accounting of Section 6.
            self._m_call_steps.observe(watchdog.budget - watchdog.left)
            self._record(self._h_call, fn)

    def _record(self, hop, fn: Callable, **attrs: Any) -> None:
        """An instantaneous node-scoped span naming the script and function."""
        spans = self._spans
        if spans.enabled:
            now = spans.now()
            attrs = {"script": self.serial_key, "fn": getattr(fn, "__name__", repr(fn)), **attrs}
            hop.record(0, spans.active_parent, now, now, attrs)

    # ------------------------------------------------------------------
    # API backends (called from the namespace built by repro.core.api)
    # ------------------------------------------------------------------
    def api_publish(self, channel: str, message: Any) -> None:
        self.published_messages += 1
        self.published_bytes += _cheap_size(message)
        self.context.publish_from_script(self, channel, message)

    def api_subscribe(self, channel: str, fn: Callable, parameters: Optional[dict]):
        handler = _ScriptCallbackHandler(self, ScriptFn(self, fn))
        return self.context.broker.subscribe(
            channel, handler, parameters, owner=self.owner_key
        )

    def api_freeze(self, obj: Any) -> None:
        # Hot path: scripts may freeze on every sample.  json.dumps does
        # the type policing itself (raises TypeError on non-JSON values),
        # so the separate validation walk of to_json() is skipped.
        self.context.node.freeze_store.put(self.serial_key, json.dumps(obj))

    def api_thaw(self) -> Any:
        stored = self.context.node.freeze_store.get(self.serial_key)
        return from_json(stored) if stored is not None else None

    def api_json(self, obj: Any) -> str:
        return to_json(obj)

    def api_set_timeout(self, fn: Callable, delay_ms: float):
        self.timers_set += 1
        timer = self.context.node.scheduler.schedule(
            float(delay_ms), self.guarded_call, ScriptFn(self, fn),
            serial_key=self.serial_key,
        )
        self._timers.append(timer)
        return timer


def _cheap_size(message: Any) -> int:
    """Fast wire-size estimate for accounting (exact JSON is computed
    later by the transport; this avoids double serialization)."""
    try:
        return len(json.dumps(message))
    except (TypeError, ValueError):
        return 0


class FreezeStore:
    """Per-node persistent storage for frozen script objects.

    Keyed by the script's serial key; "each script can have only one such
    object at any given time, and freeze will always overwrite any
    preexisting data" (Section 4.4).  Survives reboots (flash).
    """

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: Dict[str, str] = {}

    def put(self, key: str, json_text: str) -> None:
        self._data[key] = json_text

    def get(self, key: str) -> Optional[str]:
        return self._data.get(key)

    def delete(self, key: str) -> None:
        self._data.pop(key, None)

    def __len__(self) -> int:
        return len(self._data)
