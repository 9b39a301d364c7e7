"""Only telemetry may look at the host: a static gate on ``src/repro``.

The simulator's contract is that seeded runs are byte-identical.  A
module that can read the host's clock, start a thread or arm a signal
can break that without any test noticing until a loaded CI host does
(the wall-clock script watchdog did, for nine PRs).  So the modules that
may import such a thing are listed here, by name, with what they import:
the three that time CPU, stalls and frame rates for telemetry, which is
already fenced off from the deterministic bytes, and the fleet
coordinator, the one module that starts worker processes.  Everything
else in the package — in particular everything a fleet worker runs
between two barriers — has no way to ask what time it is.

The same list is the precondition for forking those workers.  On Linux
the coordinator forks them (``repro.fleet.coordinator.START_METHOD``),
and a fork copies one thread: any lock another thread held at that
moment stays held in the child forever.  Forking is safe because the
package never has a second thread to hold one — no ``threading``, no
``asyncio`` loop, no ``concurrent`` executor, and ``multiprocessing``
only where the workers are started.

The host's cyclic collector is held the same way.  When a pass runs is
the host's business (``repro.sim.hostgc`` moves it out of every
dispatch), and it can only reach the simulated bytes through code that
watches an object die: a ``__del__``, a ``weakref`` callback, or a look
at ``gc`` itself.  Only ``sim/hostgc.py`` imports ``gc``, and nothing in
the package has either of the other two — which is why moving the
collector's passes cannot move an output.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent.parent / "src" / "repro"
HOST_MODULES = {
    "time", "datetime", "threading", "ctypes", "signal",
    "asyncio", "concurrent", "multiprocessing",
}
ALLOWED = {
    "obs/live.py": {"time"},
    "fleet/worker.py": {"time"},
    "fleet/coordinator.py": {"time", "multiprocessing"},
}
COLLECTOR_WATCHERS = {"gc", "weakref", "__del__"}


def modules():
    found = sorted(SRC.rglob("*.py"))
    assert len(found) > 80  # the walk still finds the package
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(), str(path))
            for path in found}


def imports(tree):
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_only_the_telemetry_modules_import_a_clock_a_thread_or_a_signal():
    found = {name: imports(tree) & HOST_MODULES for name, tree in modules().items()}
    assert {name: used for name, used in found.items() if used} == ALLOWED


def test_only_hostgc_touches_the_collector_and_nothing_watches_an_object_die():
    found = {}
    for name, tree in modules().items():
        used = imports(tree) | {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        found[name] = used & COLLECTOR_WATCHERS
    assert {name: used for name, used in found.items() if used} == {"sim/hostgc.py": {"gc"}}
