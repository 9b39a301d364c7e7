"""Each entry point loads its own import closure and nothing more.

Every module a run imports is compiled (or read from the bytecode cache)
before the first simulated event, so a package ``__init__`` that pulls
in another subsystem just to re-export it is paid for by every run that
touches the package.  The rule (docs/INTERNALS.md, "Import layering"): a
package ``__init__`` re-exports only names someone imports through it,
from its own modules, and lazily (PEP 562) where its own modules' users
would otherwise load a subsystem they never call.

Which modules are loaded is a property of a whole interpreter, so each
entry point runs in a fresh one and reports ``sys.modules``.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent.parent
SRC = ROOT / "src"

#: pogobench's smoke sizes (``benchmarks/pogobench/workloads.py:SIZES``).
TABLE3_FLEET = """
from repro.core.shard import Shard
from repro.fleet.partition import fleet_spec
from repro.fleet.worker import setup_battery_monitor

shard = Shard(fleet_spec(200, seed=9))
setup_battery_monitor(shard)
shard.run(hours=0.1)
shard.fleet_report_json()
"""

TABLE4_USER3 = """
from dataclasses import replace
from repro.apps.deployment_study import DEFAULT_SESSIONS, run_deployment

session = next(s for s in DEFAULT_SESSIONS if s.name == "user3")
session = replace(session, days=4, cell_outage_days=(1.0, 2.5),
                  update_days=tuple(d for d in session.update_days if d < 4))
run_deployment((session,), seed=2012)
"""


def _loaded(script):
    """The ``repro`` modules loaded after ``script`` ran in a fresh interpreter."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script + report], env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _within(loaded, *packages):
    """The loaded modules that are ``packages`` or inside them."""
    return sorted(m for m in loaded if any(m == p or m.startswith(p + ".") for p in packages))


def test_table4_user3_loads_no_fleet_scenario_or_telemetry():
    loaded = _loaded(TABLE4_USER3)
    assert "repro.apps.deployment_study" in loaded
    assert not _within(
        loaded, "repro.fleet", "repro.scenarios", "repro.obs", "repro.anonytl",
        "repro.chaos", "repro.analysis.plotting", "repro.analysis.sloc",
    )
    assert len(loaded) <= 65, sorted(loaded)


def test_table3_fleet_loads_no_scenario_engine_or_coordinator():
    loaded = _loaded(TABLE3_FLEET)
    assert "repro.fleet.worker" in loaded
    assert not _within(
        loaded, "repro.scenarios", "repro.apps.contact_tracing", "repro.chaos",
        "repro.anonytl", "repro.analysis", "repro.fleet.coordinator",
        "repro.fleet.merge", "repro.obs.timeline",
    )
    assert len(loaded) <= 60, sorted(loaded)


def test_collecting_a_battery_monitor_shard_loads_no_scenario_engine():
    loaded = _loaded(
        "from repro.core.shard import Shard\n"
        "from repro.fleet.partition import fleet_spec\n"
        "from repro.fleet.worker import collect_artifacts, setup_battery_monitor\n"
        "shard = Shard(fleet_spec(3, seed=9, spans=True, metrics=True))\n"
        "setup_battery_monitor(shard)\n"
        "shard.run(hours=0.05)\n"
        "assert collect_artifacts(shard)['extra'] is None\n"
    )
    assert "repro.analysis.export" in loaded
    assert "repro.scenarios.workload" not in loaded


def test_the_chaos_engine_loads_no_fleet_or_scenario_engine():
    loaded = _loaded("import repro.chaos")
    assert "repro.chaos.scenarios" in loaded
    assert not _within(
        loaded, "repro.fleet", "repro.scenarios", "repro.obs", "repro.anonytl",
        "repro.analysis",
    )


def test_a_scenario_run_has_its_workload_loaded_before_it_forks():
    # run_fleet forks its workers from this interpreter: what is loaded
    # here is what they inherit, and a worker resolves the "scenario"
    # setup without compiling the scenario engine a second time.
    loaded = _loaded(
        "from repro.scenarios import run_scenario_spec\n"
        "from repro.fleet.worker import workload_setup\n"
        "from repro.scenarios.workload import setup_scenario\n"
        "assert workload_setup('scenario') is setup_scenario\n"
    )
    assert {"repro.scenarios.runner", "repro.scenarios.workload"} <= loaded
    loaded = _loaded("from repro.scenarios import build_preset")
    assert not _within(loaded, "repro.scenarios.runner", "repro.fleet")


def _packages():
    return sorted(
        ".".join(path.parent.relative_to(SRC).parts)
        for path in (SRC / "repro").rglob("__init__.py")
    )


@pytest.mark.parametrize("package", _packages())
def test_every_name_a_package_exports_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not have: {missing}"


#: The README's quick start.
QUICK_START = {
    "from .core.deployment import Experiment",
    "from .core.middleware import PogoSimulation",
}


@pytest.mark.parametrize("package", _packages())
def test_a_package_init_re_exports_only_its_own_modules(package):
    init = SRC.joinpath(*package.split("."), "__init__.py")
    foreign = [
        ast.unparse(node)
        for node in ast.parse(init.read_text()).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (
            isinstance(node, ast.ImportFrom)
            and node.level == 1
            and "." not in (node.module or "")
        )
    ]
    if package == "repro":
        foreign = [line for line in foreign if line not in QUICK_START]
    assert not foreign, f"{package}/__init__.py imports another subsystem: {foreign}"


def test_the_quick_start_names_import_from_the_package():
    from repro import Experiment, PogoSimulation
    from repro.core.deployment import Experiment as defined
    from repro.core.middleware import PogoSimulation as simulation

    assert (Experiment, PogoSimulation) == (defined, simulation)
