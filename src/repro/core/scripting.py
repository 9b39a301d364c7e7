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
  default timeout is set to 100ms."  Implemented with an asynchronous
  interrupt raised into the script's thread when its wall-clock budget
  is exceeded (see :class:`_WatchdogArbiter`).
* **freeze/thaw** — one persisted object per script, surviving script
  stop/start cycles, updates and reboots (Section 4.4; added *because* of
  the data loss observed in Section 5.3).
"""

from __future__ import annotations

import ctypes
import itertools
import json
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional

from .api import build_namespace
from .messages import from_json, to_json

#: Default watchdog budget, from the paper.
DEFAULT_WATCHDOG_MS = 100.0


class ScriptError(Exception):
    """Base class for script-level failures."""


class ScriptTimeoutError(ScriptError):
    """A script call exceeded its watchdog budget."""


#: Public alias used by observability consumers (the watchdog span docs
#: and tests speak of "watchdog timeouts").
WatchdogTimeout = ScriptTimeoutError


class _WatchdogArbiter:
    """One daemon thread that interrupts over-budget guarded calls.

    The previous watchdog used ``sys.settrace``, which forces the whole
    guarded subtree — broker fan-out, envelope freezing, storage writes —
    to run with per-call trace hooks installed: an ~8 µs tax on *every*
    script invocation to police a budget that healthy scripts never come
    near.  Arming here is two dict operations; nothing else touches the
    hot path.  When a deadline actually expires, the arbiter raises
    :class:`ScriptTimeoutError` inside the guarded thread via
    ``PyThreadState_SetAsyncExc`` — which, like Rhino's instruction-count
    interrupts, stops a ``while True: pass`` loop dead.

    The async raise lands at the guarded thread's next bytecode boundary,
    so a call that finishes in the same instant its budget expires can
    race the interrupt.  ``disarm`` closes the gap: it reports whether
    this guard was fired so the caller can clear a still-pending
    interrupt and convert it into a deterministic post-hoc error.
    """

    #: Idle poll interval; also bounds how late an interrupt can be.
    POLL_S = 0.05

    def __init__(self) -> None:
        #: thread id -> stack of (deadline, generation, watchdog); plain
        #: dict/list ops are GIL-atomic, so arm/disarm take no lock.
        self._armed: Dict[int, List[tuple]] = {}
        self._fired: Dict[int, int] = {}
        self._gen = itertools.count(1)
        self._thread: Optional[threading.Thread] = None

    def arm(self, watchdog: "Watchdog", timeout_s: float) -> tuple:
        tid = threading.get_ident()
        gen = next(self._gen)
        stack = self._armed.get(tid)
        if stack is None:
            stack = self._armed[tid] = []
        stack.append((time.monotonic() + timeout_s, gen, watchdog))
        if self._thread is None:
            self._start()
        return tid, gen

    def disarm(self, token: tuple) -> bool:
        """Remove the guard; returns True if it was fired (interrupted)."""
        tid, gen = token
        stack = self._armed.get(tid)
        if stack:
            for index in range(len(stack) - 1, -1, -1):
                if stack[index][1] == gen:
                    del stack[index]
                    break
            if not stack:
                self._armed.pop(tid, None)
        if self._fired.get(tid) == gen:
            del self._fired[tid]
            return True
        return False

    def _start(self) -> None:
        thread = threading.Thread(
            target=self._run, name="script-watchdog", daemon=True
        )
        self._thread = thread
        thread.start()

    def _run(self) -> None:
        set_async_exc = ctypes.pythonapi.PyThreadState_SetAsyncExc
        while True:
            wait = self.POLL_S
            now = time.monotonic()
            for tid, stack in list(self._armed.items()):
                for entry in list(stack):
                    deadline, gen, watchdog = entry
                    if now < deadline:
                        wait = min(wait, deadline - now)
                        continue
                    if self._fired.get(tid) is not None:
                        continue  # one pending interrupt per thread
                    self._fired[tid] = gen
                    watchdog.violations += 1
                    set_async_exc(
                        ctypes.c_ulong(tid), ctypes.py_object(ScriptTimeoutError)
                    )
                    try:
                        stack.remove(entry)
                    except ValueError:
                        pass
            time.sleep(max(wait, 0.001))


_arbiter = _WatchdogArbiter()


class Watchdog:
    """Interrupts script code that runs past its budget.

    The budget is wall-clock, as in the paper ("all calls to JavaScript
    functions by the framework must complete within a certain
    timeframe").  Enforcement lives in the process-wide
    :class:`_WatchdogArbiter`; a guard costs two dict operations on the
    hot path and nothing more.
    """

    def __init__(self, timeout_ms: float = DEFAULT_WATCHDOG_MS) -> None:
        self.timeout_ms = timeout_ms
        self.violations = 0

    def guard(self, fn: Callable[..., Any], *args: Any) -> Any:
        token = _arbiter.arm(self, self.timeout_ms / 1000.0)
        fired = False
        try:
            result = fn(*args)
        finally:
            fired = _arbiter.disarm(token)
            if fired:
                # Either the interrupt already unwound ``fn`` (we are
                # propagating it right now and the clear is a no-op), or
                # ``fn`` returned in the race window and the raise is
                # still pending — clear it before it lands in unrelated
                # code.
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(token[0]), None
                )
        if fired:
            raise ScriptTimeoutError(
                f"script call exceeded {self.timeout_ms:.0f} ms watchdog budget (post-hoc)"
            )
        return result


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
    (
        "__builtins__", "__name__", "math",
        "setDescription", "setAutoStart", "print", "log", "logTo",
        "publish", "subscribe", "freeze", "thaw", "json", "setTimeout",
    )
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
        self.errors: List[BaseException] = []
        self.namespace: Dict[str, Any] = {}
        self._timers: List[Any] = []

        # Resource accounting (Section 6 future work: "power modelling to
        # estimate the resource consumption of individual scripts").
        self.invocations = 0
        self.published_messages = 0
        self.published_bytes = 0
        self.timers_set = 0

        # Observability plane, pre-bound once per host.  Wall-clock call
        # durations go ONLY into the metrics histogram — never into spans,
        # whose exports must be byte-identical across identical seeded
        # runs (sim-time is deterministic; wall time is not).
        kernel = context.node.kernel
        self._m_call_ms = kernel.metrics.histogram(f"script.call_ms.{self.serial_key}")
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
        code = compile(self.source, f"<script {self.name}>", "exec")
        try:
            self.watchdog.guard(_exec_in, code, self.namespace)
        except BaseException as exc:  # noqa: BLE001 - report, stay contained
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
            code = compile(self.source, f"<script {self.name}>", "exec")
            try:
                _exec_in(code, namespace)
            except BaseException:  # noqa: BLE001 - a restore must not raise
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
        started = time.perf_counter()
        spans = self._spans
        try:
            self.watchdog.guard(fn, *args)
        except BaseException as exc:  # noqa: BLE001
            if isinstance(exc, ScriptTimeoutError):
                self.context.node.kernel.metrics.counter("watchdog.hits").inc()
                if spans.enabled:
                    now = spans.now()
                    self._h_watchdog.record(
                        0,
                        spans.active_parent,
                        now,
                        now,
                        {
                            "script": self.serial_key,
                            "fn": getattr(fn, "__name__", repr(fn)),
                            "budget_ms": self.watchdog.timeout_ms,
                        },
                    )
            self.errors.append(exc)
        finally:
            # Wall-clock duration: metrics only (see __init__ note).
            self._m_call_ms.observe((time.perf_counter() - started) * 1000.0)
            if spans.enabled:
                now = spans.now()
                self._h_call.record(
                    0,
                    spans.active_parent,
                    now,
                    now,
                    {"script": self.serial_key, "fn": getattr(fn, "__name__", repr(fn))},
                )

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


def _exec_in(code, namespace: Dict[str, Any]) -> None:
    exec(code, namespace)  # noqa: S102 - the sandbox is the namespace
