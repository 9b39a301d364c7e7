"""Unit tests for the script sandbox, API surface and watchdog."""

import traceback

import pytest

from repro.core.api import API_METHOD_COUNT, api_method_names
from repro.core.node import CollectorNode, DeviceNode
from repro.core.multibroker import CollectorContext
from repro.core.scheduler import PogoScheduler
from repro.core.scripting import ScriptError, ScriptHost, ScriptTimeoutError, Watchdog
from repro.device.cpu import Cpu, CpuConfig
from repro.device.power import PowerRail
from repro.net.xmpp import XmppServer
from repro.sim import Kernel


def make_host(source, name="test", watchdog_ms=200.0, autoload=True):
    """A script host inside a collector context (simplest harness)."""
    kernel = Kernel()
    server = XmppServer(kernel)
    node = CollectorNode(kernel, server, "pc@x")
    context = CollectorContext(node, "exp")
    host = ScriptHost(context, name, source, watchdog_ms=watchdog_ms)
    if autoload:
        host.load()
        kernel.run_until(10.0)
    return kernel, node, context, host


def test_api_has_exactly_eleven_methods():
    assert API_METHOD_COUNT == 11
    assert len(api_method_names()) == 11


def test_script_body_runs_and_sets_metadata():
    _, _, _, host = make_host(
        "setDescription('my experiment')\nsetAutoStart(False)\n"
    )
    assert host.description == "my experiment"
    assert host.autostart is False


def test_start_function_called_when_autostart():
    kernel, _, _, host = make_host(
        "ran = []\n"
        "def start():\n"
        "    ran.append(1)\n"
    )
    assert host.namespace["ran"] == [1]


def test_autostart_false_defers_start():
    kernel, _, _, host = make_host(
        "setAutoStart(False)\n"
        "ran = []\n"
        "def start():\n"
        "    ran.append(1)\n"
    )
    assert host.namespace["ran"] == []
    host.start()
    kernel.run_until(20.0)
    assert host.namespace["ran"] == [1]


def test_print_and_logs():
    _, _, _, host = make_host(
        "print('hello', 42)\n"
        "log('a line')\n"
        "logTo('special', 'x', 'y')\n"
    )
    assert host.debug_lines == ["hello 42"]
    assert host.logs["default"] == ["a line"]
    assert host.logs["special"] == ["x y"]


def test_json_function():
    _, _, _, host = make_host("text = json({'b': 1, 'a': [True]})\n")
    assert host.namespace["text"] == '{"a":[true],"b":1}'


def test_freeze_thaw_roundtrip_and_overwrite():
    kernel, node, context, host = make_host(
        "first = thaw()\n"
        "freeze({'count': 1})\n"
        "freeze({'count': 2})\n"
        "second = thaw()\n"
    )
    assert host.namespace["first"] is None
    assert host.namespace["second"] == {"count": 2}


def test_freeze_survives_update():
    """The Section 5.3 fix: state persists across script updates."""
    kernel, node, context, host = make_host("freeze({'kept': True})\n")
    host.update("recovered = thaw()\n")
    kernel.run_until(20.0)
    assert host.namespace["recovered"] == {"kept": True}
    assert host.load_count == 2


def test_set_timeout_runs_later():
    kernel, _, _, host = make_host(
        "ran = []\n"
        "def later():\n"
        "    ran.append(1)\n"
        "setTimeout(later, 500)\n"
    )
    assert host.namespace["ran"] == []
    kernel.run_until(1000.0)
    assert host.namespace["ran"] == [1]


def test_stop_cancels_timers_and_subscriptions():
    kernel, _, context, host = make_host(
        "ran = []\n"
        "def later():\n"
        "    ran.append(1)\n"
        "setTimeout(later, 500)\n"
        "subscribe('ch', lambda m: ran.append(m))\n"
    )
    assert context.broker.has_subscribers("ch")
    host.stop()
    kernel.run_until(1000.0)
    assert host.namespace["ran"] == []
    assert not context.broker.has_subscribers("ch")


def test_subscribe_and_publish_within_context():
    kernel, _, _, host = make_host(
        "got = []\n"
        "subscribe('data', lambda m: got.append(m))\n"
        "publish('data', {'n': 7})\n"
    )
    kernel.run_until(20.0)
    assert host.namespace["got"] == [{"n": 7}]


def test_sandbox_blocks_import():
    _, _, _, host = make_host("import os\n", autoload=False)
    with pytest.raises(ScriptError):
        host.load()


def test_sandbox_blocks_open_and_eval():
    for line in ("open('/etc/passwd')", "eval('1+1')", "exec('x=1')", "__import__('os')"):
        _, _, _, host = make_host(f"{line}\n", autoload=False)
        with pytest.raises(ScriptError):
            host.load()


def test_a_script_calling_hash_fails_like_any_missing_builtin():
    # str hashes are salted per interpreter (PYTHONHASHSEED), so a
    # script that read one would not replay the same run on another host.
    failures = []
    for call in ("hash('abc')", "open('/etc/passwd')"):
        _, _, _, host = make_host(f"value = {call} % 1000\n", autoload=False)
        with pytest.raises(ScriptError) as caught:
            host.load()
        cause = caught.value.__cause__
        failures.append((type(cause), str(cause).replace(call.split("(")[0], "NAME")))
    assert failures[0] == failures[1] == (NameError, "name 'NAME' is not defined")


def test_sandbox_provides_math():
    _, _, _, host = make_host("root = math.sqrt(16.0)\n")
    assert host.namespace["root"] == 4.0


def test_sandbox_allows_classes():
    _, _, _, host = make_host(
        "class Acc:\n"
        "    def __init__(self):\n"
        "        self.total = 0\n"
        "    def add(self, n):\n"
        "        self.total += n\n"
        "acc = Acc()\n"
        "acc.add(3)\n"
    )
    assert host.namespace["acc"].total == 3


def test_watchdog_kills_infinite_loop_at_load():
    source = "while True:\n    pass\n"
    _, _, _, host = make_host(source, autoload=False, watchdog_ms=50.0)
    with pytest.raises(ScriptError):
        host.load()
    assert host.watchdog.violations == 1


def test_watchdog_kills_runaway_handler_but_script_survives():
    kernel, _, context, host = make_host(
        "spin = []\n"
        "def handler(msg):\n"
        "    if msg == 'spin':\n"
        "        while True:\n"
        "            spin.append(1)\n"
        "    else:\n"
        "        spin.append(msg)\n"
        "subscribe('ch', handler)\n",
        watchdog_ms=50.0,
    )
    context.broker.publish("ch", "spin")
    kernel.run_until(100.0)
    assert any(isinstance(e, ScriptTimeoutError) for e in host.errors)
    # The script keeps running: later messages are still delivered.
    context.broker.publish("ch", "ok")
    kernel.run_until(200.0)
    assert host.namespace["spin"][-1] == "ok"


def test_watchdog_verdict_is_a_function_of_the_script():
    """What no wall-clock watchdog could promise: the same runaway script
    is stopped after exactly the same number of steps, every time."""

    def spin_length():
        kernel, _, context, host = make_host(
            "spin = []\n"
            "def handler(msg):\n"
            "    while True:\n"
            "        spin.append(1)\n"
            "subscribe('ch', handler)\n",
            watchdog_ms=50.0,
        )
        context.broker.publish("ch", "spin")
        kernel.run_until(100.0)
        assert host.watchdog.violations == 1
        return len(host.namespace["spin"]), host.watchdog.budget

    first, budget = spin_length()
    second, _ = spin_length()
    # One step is the handler's own entry; the rest are loop iterations.
    assert first == second == budget - 1 == 99_999


@pytest.mark.parametrize(
    "body",
    [
        # Catching the timeout does not help: the next step raises again.
        "while True:\n"
        "        try:\n"
        "            for _ in range(10):\n"
        "                pass\n"
        "        except Exception:\n"
        "            pass\n",
        # Exponential recursion through a lambda, only 40 frames deep.
        "f = lambda n: n and f(n - 1) + f(n - 1)\n"
        "    f(40)\n",
        # Killed long before the list could reach a gigabyte.
        "[x for x in range(10**9)]\n",
        "sum(x for x in range(10**9))\n",
    ],
    ids=["try-except-in-loop", "lambda-recursion", "listcomp", "genexp"],
)
def test_watchdog_kills_every_way_a_script_can_repeat_itself(body):
    kernel, _, context, host = make_host(
        f"def handler(msg):\n    {body}subscribe('ch', handler)\n",
        watchdog_ms=50.0,
    )
    context.broker.publish("ch", "go")
    kernel.run_until(100.0)
    assert [type(e) for e in host.errors] == [ScriptTimeoutError]
    assert host.watchdog.violations == 1
    assert kernel.metrics.counter("watchdog.hits").value == 1


def test_watchdog_guard_passes_results_through():
    watchdog = Watchdog(timeout_ms=1000.0)
    assert watchdog.guard(lambda a, b: a + b, 1, 2) == 3
    assert watchdog.violations == 0


def test_watchdog_timeout_emits_span_with_call_attrs():
    kernel, _, context, host = make_host(
        "def handler(msg):\n"
        "    while True:\n"
        "        pass\n"
        "subscribe('ch', handler)\n",
        watchdog_ms=50.0,
    )
    context.broker.publish("ch", "go")
    kernel.run_until(100.0)
    (span,) = kernel.spans.spans(hop="script.watchdog")
    assert span.attrs["script"] == "exp/test"
    assert span.attrs["fn"] == "handler"
    assert span.attrs["budget_ms"] == 50.0
    assert kernel.metrics.counter("watchdog.hits").value == 1


def test_watchdog_timeout_alias_is_public():
    from repro.core.scripting import WatchdogTimeout

    assert WatchdogTimeout is ScriptTimeoutError


def test_script_call_durations_land_in_per_script_histogram():
    kernel, _, context, host = make_host(
        "def handler(msg):\n"
        "    for _ in range(msg):\n"
        "        pass\n"
        "subscribe('ch', handler)\n"
    )
    context.broker.publish("ch", 0)
    context.broker.publish("ch", 10)
    kernel.run_until(50.0)
    histogram = kernel.metrics.histogram("script.call_steps.exp/test")
    # One observation per guarded call, in steps: a handler whose loop
    # never runs costs its own entry, ten iterations cost eleven.
    assert histogram.count == 2
    assert (histogram.min, histogram.max, histogram.total) == (1, 11, 12)
    # Sim-time call spans exist too, and are instantaneous.
    calls = kernel.spans.spans(hop="script.call")
    assert len(calls) == 2
    assert all(span.duration_ms == 0.0 for span in calls)


def test_handler_errors_recorded_not_raised():
    kernel, _, context, host = make_host(
        "def handler(msg):\n"
        "    raise ValueError('from script')\n"
        "subscribe('ch', handler)\n"
    )
    context.broker.publish("ch", 1)
    kernel.run_until(50.0)
    assert len(host.errors) == 1
    assert isinstance(host.errors[0], ValueError)


def test_syntax_error_fails_load():
    _, _, _, host = make_host("def broken(:\n", autoload=False)
    with pytest.raises((ScriptError, SyntaxError)):
        host.load()


@pytest.mark.parametrize(
    "line",
    [
        "__pogo_meter__.left = 10**18",
        "x = __pogo_meter__",
        "__pogo_x = 1",
        "print(math.__pogo_meter__)",
        "def __pogo_f(): pass",
        "def f(__pogo_arg): pass",
        "class __pogo_C: pass",
        "print(end=1, __pogo_kw=2)",
        "def f():\n    global __pogo_meter__",
        "def f():\n    x = 1\n    def g():\n        nonlocal __pogo_x",
        "try:\n    pass\nexcept Exception as __pogo_e:\n    pass",
    ],
)
def test_script_may_not_name_the_meter(line):
    _, _, _, host = make_host(f"ok = 1\n{line}\n", autoload=False)
    with pytest.raises(ScriptError, match=r"line [2-5]: '__pogo_\w+' is reserved"):
        host.load()
    assert not host.running and not host.loaded
    # Rejected where it enters: not one statement of the script ran.
    assert "ok" not in host.namespace


def test_meter_is_runtime_plumbing_not_script_state():
    _, _, _, host = make_host("count = 1\ntext = '__pogo_meter__ is just a string'\n")
    assert host.namespace["__pogo_meter__"] is host.watchdog
    assert set(host.__getstate__()["namespace"]) == {"count", "text"}


def test_metered_script_traceback_keeps_original_line_numbers():
    kernel, _, context, host = make_host(
        "def handler(msg):\n"
        "    'docstring'\n"
        "    for i in range(3):\n"
        "        total = [x for x in range(i)]\n"
        "        if i == 2:\n"
        "            return 1 / 0\n"  # line 6
        "subscribe('ch', handler)\n"
    )
    context.broker.publish("ch", 1)
    kernel.run_until(50.0)
    (error,) = host.errors
    assert isinstance(error, ZeroDivisionError)
    frame = traceback.extract_tb(error.__traceback__)[-1]
    assert (frame.filename, frame.name, frame.lineno) == ("<script test>", "handler", 6)


@pytest.mark.parametrize("phone", [False, True], ids=["MainsCpu", "PogoScheduler"])
def test_keyboard_interrupt_is_not_a_script_error(phone):
    kernel, node, context, host = make_host(
        "def handler(msg):\n"
        "    publish('out', msg)\n"
        "subscribe('ch', handler)\n"
    )
    if phone:
        node.scheduler = PogoScheduler(kernel, Cpu(kernel, PowerRail(kernel), CpuConfig()))
    published = []

    def interrupted_publish(channel, message):
        published.append(message)
        if len(published) == 2:
            raise KeyboardInterrupt

    host.api_publish = interrupted_publish
    for message in (1, 2, 3):
        context.broker.publish("ch", message)
    with pytest.raises(KeyboardInterrupt):
        kernel.run_until(100.0)
    assert published == [1, 2]
    assert node.scheduler.task_errors == 0
    assert host.errors == []
