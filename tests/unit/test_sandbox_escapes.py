"""The script sandbox refuses, at load, the attributes that lead out of it.

An escape corpus: each probe is a way a deployed script reached the host
(its classes, the API's bound methods and module globals, the host's
stack frames), or a lookup hidden inside a format string.
``compile_script`` must refuse each one before any of it runs, naming the
attribute and the script line it is on.  A set is refused the same way:
it iterates in the order of the host's salted string hashes, so a script
that iterated one would log other bytes on another host.  Then every
script the repository ships — each ``repro.apps`` builder, the AnonyTL compiler's
output, and the scripts the examples deploy — must still load.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.anonytl.compiler import compile_task
from repro.anonytl.tasks import parse_task
from repro.apps import (
    battery_monitor, contact_tracing, localization, noise_map, roguefinder,
)
from repro.core.scripting import ScriptError, compile_script

#: Two harmless lines, so that every probe starts on line 3.
PREAMBLE = "setDescription('probe')\nvalue = 1\n"

#: (probe, the attribute it must be refused for, the line it is on).
#: The walk meets the outermost attribute of a chain first.
PROBES = [
    # The host's classes: object's subclasses, os through BuiltinImporter.
    ("().__class__.__mro__[1].__subclasses__()", "__subclasses__", 3),
    ("object.__subclasses__()", "__subclasses__", 3),
    # The API object and the module behind it.
    ("api = publish.__self__", "__self__", 3),
    ("g = publish.__func__.__globals__", "__globals__", 3),
    # The host's stack, from an exception's traceback.
    ("try:\n    1 / 0\nexcept Exception as e:\n    e.__traceback__\n", "__traceback__", 6),
    ("def f(e):\n    return e.tb_frame.f_back\n", "f_back", 4),
    ("def f(tb):\n    return tb.tb_next.tb_frame\n", "tb_frame", 4),
    ("def f(tb):\n    return tb.tb_next\n", "tb_next", 4),
    # The host's stack, from a generator, coroutine or async generator.
    ("frame = (x for x in ()).gi_frame", "gi_frame", 3),
    ("code = (x for x in ()).gi_code", "gi_code", 3),
    ("async def co():\n    pass\nframe = co().cr_frame\n", "cr_frame", 5),
    ("async def ag():\n    yield 1\nframe = ag().ag_frame\n", "ag_frame", 5),
    ("def f(frame):\n    return frame.f_globals\n", "f_globals", 4),
    ("def f(frame):\n    return frame.f_locals\n", "f_locals", 4),
    ("def f(frame):\n    return frame.f_builtins['eval']\n", "f_builtins", 4),
    # Attribute lookups inside a format string, where no walk sees them.
    ("'{0.__class__.__mro__}'.format(1)", "format", 3),
    ("'{x.__class__}'.format_map({'x': 1})", "format_map", 3),
    ("fmt = str.format", "format", 3),
    # Inside an f-string the walk does see them.
    ("text = f'{publish.__self__!r}'", "__self__", 3),
    # Written or deleted, not only read; single underscores too.
    ("publish.__doc__ = 'mine'", "__doc__", 3),
    ("class Box:\n    pass\nbox = Box()\nbox._hidden = 1\n", "_hidden", 6),
    ("class Box:\n    pass\nbox = Box()\nbox.x = 1\ndel box._x\n", "_x", 7),
]


@pytest.mark.parametrize("probe, attribute, line", PROBES)
def test_each_escape_is_refused_at_load_with_its_line(probe, attribute, line):
    with pytest.raises(ScriptError, match=rf"line {line}: attribute '{attribute}' is refused"):
        compile_script(PREAMBLE + probe, "probe")


#: (probe, the line it is on): each builds a set.
SET_PROBES = [
    ("words = {'a', 'b'}", 3),
    ("sizes = {len(w) for w in ['a', 'bb']}", 3),
    ("words = set()", 3),
    ("words = frozenset(['a'])", 3),
    # A comprehension nested in another, as the meter's property test
    # generated it before sets went.
    ("nested = {x: {y for y in range(x)} for x in range(3)}", 3),
    ("def f(items):\n    return set(items)\n", 4),
]


@pytest.mark.parametrize("probe, line", SET_PROBES)
def test_each_set_is_refused_at_load_with_its_line(probe, line):
    with pytest.raises(ScriptError, match=rf"line {line}: sets are refused"):
        compile_script(PREAMBLE + probe, "probe")


#: A script that keeps strings as a dict's keys and iterates them, run
#: in a collector context; prints what it logged.
HASH_SEED_RUN = '''
from repro.core.multibroker import CollectorContext
from repro.core.node import CollectorNode
from repro.core.scripting import ScriptHost
from repro.net.xmpp import XmppServer
from repro.sim import Kernel

SOURCE = """
seen = {}
for word in 'the quick brown fox jumps over the lazy dog again'.split():
    seen[word] = seen.get(word, 0) + 1
for word in seen:
    log(word, seen[word])
log(json(seen), ','.join(seen.keys()), repr(list(seen.items())))
"""
kernel = Kernel()
node = CollectorNode(kernel, XmppServer(kernel), "pc@x")
host = ScriptHost(CollectorContext(node, "exp"), "words", SOURCE)
host.load()
kernel.run_until(10.0)
assert not host.errors, host.errors
print(host.logs)
'''


def test_a_dict_of_strings_logs_the_same_bytes_under_any_hash_seed():
    root = Path(__file__).resolve().parents[2]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    logs = {}
    for hash_seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_RUN], cwd=root, capture_output=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
        )
        assert done.returncode == 0, done.stderr.decode()
        logs[hash_seed] = done.stdout
    assert logs["0"] == logs["1"]
    assert logs["0"].startswith(b"{'default': ['the 2', 'quick 1', 'brown 1'")


def test_what_scripts_keep_still_compiles():
    compile_script(
        PREAMBLE
        + "class Box:\n"
        + "    def __init__(self, items):\n"
        + "        self.items = items\n"
        + "text = '%s, %d' % ('a', 1) + f'{value!r:>5}' + str(Box([1]).items)\n"
        + "print(__name__)\n",
        "kept",
    )


def _example_module(name):
    path = Path(__file__).resolve().parents[2] / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shipped_scripts():
    """Every script source the apps and the examples deploy."""
    square = [(52.0, 4.0), (52.0, 4.01), (52.01, 4.01), (52.01, 4.0)]
    experiments = [
        battery_monitor.build_experiment(),
        contact_tracing.build_experiment(),
        localization.build_experiment(),
        localization.build_experiment(with_freeze=True),
        noise_map.build_experiment(),
        roguefinder.build_experiment(square),
        # examples/anonytl_task.py's task shape, on a fixed polygon.
        compile_task(parse_task(
            "(Task 25043) (Expires 72000)\n"
            "(Accept (= @carrier 'professor'))\n"
            "(Report (location SSIDs) (Every 1 Minute)\n"
            "  (In location (Polygon (Point 4.0 52.0) (Point 4.01 52.0)"
            " (Point 4.01 52.01) (Point 4.0 52.01))))"
        )),
    ]
    scripts = [
        (f"{experiment.experiment_id}/{name}", source)
        for experiment in experiments
        for name, source in {**experiment.device_scripts, **experiment.collector_scripts}.items()
    ]
    # examples/quickstart.py deploys its own collector script; the other
    # examples deploy the apps' experiments or an AnonyTL task, above.
    scripts.append(("quickstart/collect", _example_module("quickstart").COLLECT_SCRIPT))
    return scripts


def test_every_shipped_script_loads():
    scripts = _shipped_scripts()
    assert len(scripts) == 16
    for name, source in scripts:
        compile_script(source, name)
