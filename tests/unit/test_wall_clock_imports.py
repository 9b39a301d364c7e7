"""Only telemetry may look at the host: a static gate on ``src/repro``.

The simulator's contract is that seeded runs are byte-identical.  A
module that can read the host's clock, start a thread or arm a signal
can break that without any test noticing until a loaded CI host does
(the wall-clock script watchdog did, for nine PRs).  So the modules that
may import such a thing are listed here, by name, with what they import:
the three that time CPU, stalls and frame rates for telemetry, which is
already fenced off from the deterministic bytes.  Everything else in the
package — in particular everything a spawned fleet worker runs between
two barriers — has no way to ask what time it is.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent.parent / "src" / "repro"
HOST_MODULES = {"time", "datetime", "threading", "ctypes", "signal"}
ALLOWED = {
    "obs/live.py": {"time"},
    "fleet/worker.py": {"time"},
    "fleet/coordinator.py": {"time"},
}


def host_imports(path):
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found & HOST_MODULES


def test_only_the_telemetry_modules_import_a_clock_a_thread_or_a_signal():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 80  # the walk still finds the package
    found = {path.relative_to(SRC).as_posix(): host_imports(path) for path in modules}
    assert {name: imports for name, imports in found.items() if imports} == ALLOWED
