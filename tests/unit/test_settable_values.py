"""Every settable value in the package is set by an entry point: a static gate.

A parameter with a default that no entry point ever passes has one
value in use, and a value with one value in use is a constant: it is
named once, at module level, not threaded through a signature, a
``__slots__`` entry and every shard snapshot.  So this census walks what
:mod:`test_reachability` walks — the reached package modules plus every
example, every ``benchmarks/**/*.py`` file and the Python in ``ci.yml``
— collects every call in it, and fails on any parameter with a default
(or field with a default on a run spec, :data:`SPECS`) that no call
passes, by keyword or by position.  ``ast`` only: nothing is imported
or executed.

A call names its callee three ways:

* ``f(…)`` or ``module.f(…)``, where ``f`` resolves through the imports
  (re-exports included) to the module-level functions it can be;
* ``obj.m(…)``: by name only — it passes to every method ``m``;
* ``C(…)``: ``C.__init__`` or the ``__init__`` it inherits, by base
  name; ``super().__init__(…)`` inside ``C`` reaches ``C``'s bases'.

Forwarding is resolved where it is plain: a callable handed to one of
:data:`FORWARDERS` (``kernel.schedule(cb, *args)``,
``functools.partial(cb, …)``, the CLI's ``_fleet_call``) is called with
the arguments that follow it, a call to one of
:data:`KEYWORD_FORWARDERS` passes its keywords on, and ``**NAME`` for a
module-level dict of constant keys passes those keys.

Out of scope: the modules :data:`test_reachability.DOCUMENTED` keeps as
API, and the physics records (:data:`PHYSICS_RECORDS`), the named home
of the calibrated constants.  Whatever else no entry point sets must be
on :data:`ALLOWLIST`, with its reason.
"""

import ast

from .test_reachability import (
    DOCUMENTED,
    MODULES,
    _absolute,
    _outside_roots,
    _resolve,
    _tree,
    reached,
)

#: Dataclasses whose fields are the calibrated device and world physics.
PHYSICS_RECORDS = {
    "CpuConfig", "WifiConfig", "BatteryConfig", "EmailConfig",
    "ChattyAppConfig", "CarrierProfile", "UserProfile", "PropagationModel",
}

#: The run specs: a field with a default on one of these is a settable
#: value just as a keyword is.
SPECS = {"ShardSpec", "DeviceSpec", "ScenarioSpec", "SurgeSpec", "CampaignSpec"}

#: ``callee name: index of the callable it forwards the rest to``.
FORWARDERS = {
    "schedule": 1,
    "schedule_at": 1,
    "schedule_repeating": 1,
    "partial": 0,
    "_fleet_call": 2,
}

#: ``callee name: class`` — the keywords a call passes are forwarded
#: whole to the class (``ChaosEngine.impair(**dials)`` builds an
#: ``Impairment(**dials)``).
KEYWORD_FORWARDERS = {"impair": "Impairment"}

_FORWARDED = "forwarded by ShardDriver: WORKLOADS[name](shard, fleet_ctx)"

#: Settable values no entry point sets, kept on purpose:
#: ``"module:Qualname.param": one-line reason``.
ALLOWLIST = {
    "repro.chaos.scenarios:run_scenario.snapshot_midpoint":
        "the snapshot pins restore a campaign mid-run, which no entry point does",
    "repro.cli:main.argv":
        "the CLI's argv: `python -m repro` leaves it to sys.argv, tests pass a list",
    "repro.core.buffer:MessageBuffer.__init__.max_age_ms":
        "tests reach the 24 h purge in seconds instead of a simulated day",
    "repro.core.scripting:ScriptHost.__init__.watchdog_ms":
        "tests trip the watchdog without running the production step budget",
    "repro.device.apps:ChattyApp.__init__.config":
        "the ChattyAppConfig physics record's entry point; only tests run the app",
    "repro.device.battery:Battery.__init__.config":
        "a small capacity drains in seconds what 23,940 J takes hours to drain",
    "repro.device.cpu:Cpu.__init__.config":
        "the CpuConfig physics record's entry point: tests pin other awake holds",
    "repro.fleet.coordinator:_PulledTrace.__get__.owner":
        "the descriptor protocol: Python passes it",
    "repro.fleet.coordinator:run_fleet.barrier_timeout_s":
        "bounds a wait: a hung-worker test fails fast instead of hanging",
    "repro.fleet.worker:setup_battery_monitor.fleet_ctx": _FORWARDED,
    "repro.fleet.worker:setup_crash_canary.fleet_ctx": _FORWARDED,
    "repro.scenarios.workload:setup_scenario_crash.fleet_ctx": _FORWARDED,
    "repro.sim.spans:SpanRecorder.__init__.max_spans":
        "tests overflow a small ring instead of the 65,536-span production one",
}


def _defaults(func, offset):
    """``[(param, positional index or None)]`` for each param with a
    default; the index counts from the first argument a caller writes."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
    found += [
        (a.arg, None)
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    ]
    return found


def _base_name(node):
    if isinstance(node, ast.Name):
        return node.id
    return getattr(node, "attr", None)


class _Definitions(ast.NodeVisitor):
    """Every parameter with a default, and every spec field with one:
    ``(key, callee, param, positional index)``."""

    def __init__(self, module):
        self.module = module
        self.stack = []
        self.values = []
        self.bases = {}

    def visit_ClassDef(self, node):
        self.bases[node.name] = {_base_name(b) for b in node.bases} - {None}
        if node.name in PHYSICS_RECORDS:
            return
        if node.name in SPECS:
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            for index, stmt in enumerate(fields):
                if stmt.value is not None:
                    name = stmt.target.id
                    self.values.append((
                        f"{self.module}:{node.name}.{name}",
                        ("class", node.name), name, index,
                    ))
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        owner = self.stack[-1] if self.stack else None
        qual = ".".join(n.name for n in self.stack + [node])
        if isinstance(owner, ast.ClassDef):
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            offset = 0 if static else 1
            if node.name == "__init__":
                callee = ("class", owner.name)
            else:
                callee = ("method", node.name)
        else:
            offset = 0
            callee = ("func", self.module, node.name)
        for param, index in _defaults(node, offset):
            self.values.append((f"{self.module}:{qual}.{param}", callee, param, index))
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def definitions():
    """``(values, {class: base names})`` over the package, minus the
    exempt modules."""
    values, bases = [], {}
    for name in sorted(MODULES):
        if name in DOCUMENTED:
            continue
        visitor = _Definitions(name)
        visitor.visit(_tree(name))
        values += visitor.values
        bases.update(visitor.bases)
    return values, bases


class _Callees:
    """Resolves what a call in one module (or root) can reach."""

    def __init__(self, tree, module, bases):
        self.module = module
        self.bases = bases
        self.names = {}  # local name -> (source module, imported name)
        self.modules = {}  # local name -> package module it binds
        self.dicts = {}  # module-level dict of constant keys -> its keys
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                source = _absolute(node, module) if module else node.module
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = (source, alias.name)
                    if f"{source}.{alias.name}" in MODULES:
                        self.modules[local] = f"{source}.{alias.name}"
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                keys = self._dict_keys(node.value)
                if keys is not None and isinstance(node.targets[0], ast.Name):
                    self.dicts[node.targets[0].id] = keys

    @staticmethod
    def _dict_keys(node):
        if isinstance(node, ast.Dict) and all(
            isinstance(k, ast.Constant) for k in node.keys
        ):
            return {k.value for k in node.keys}
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict"
            and not node.args
        ):
            return {k.arg for k in node.keywords if k.arg}
        return None

    def _ancestors(self, cls):
        seen, todo = set(), [cls]
        while todo:
            current = todo.pop()
            if current not in seen:
                seen.add(current)
                todo += self.bases.get(current, ())
        return seen

    def of(self, func, cls=None):
        """The callees ``func`` (a call's ``func`` node) can be."""
        if isinstance(func, ast.Name):
            name = func.id
            source, real = self.names.get(name, (self.module, name))
            found = {("class", c) for c in self._ancestors(real)}
            found |= {("func", m, real) for m in _resolve(source, real) or {source}}
            if real == "replace":  # ``dataclasses.replace(spec, field=…)``
                found |= {("class", spec) for spec in SPECS}
            return found
        if not isinstance(func, ast.Attribute):
            return set()
        value = func.value
        if (
            func.attr == "__init__"
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "super"
        ):
            return {("class", c) for c in self._ancestors(cls) - {cls}}
        module = self._module(value)
        if module is not None:
            return {("func", m, func.attr) for m in _resolve(module, func.attr)}
        if func.attr == "replace":  # ``dataclasses.replace(spec, field=…)``
            return {("class", spec) for spec in SPECS}
        return {("method", func.attr)}

    def _module(self, node):
        """The package module a name or dotted chain stands for, if any."""
        if isinstance(node, ast.Name):
            return self.modules.get(node.id)
        if isinstance(node, ast.Attribute):
            outer = self._module(node.value)
            if outer is None and isinstance(node.value, ast.Name):
                outer = node.value.id  # ``import repro.x`` binds ``repro``
            if outer is not None and f"{outer}.{node.attr}" in MODULES:
                return f"{outer}.{node.attr}"
        return None


def _call_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _arguments(args, keywords, dicts):
    """``(positional count, keywords)`` a call's arguments pass."""
    names = {k.arg for k in keywords if k.arg}
    for k in keywords:
        if k.arg is None and isinstance(k.value, ast.Name):
            names |= dicts.get(k.value.id, set())
    count = 0
    for arg in args:
        if isinstance(arg, ast.Starred):
            break
        count += 1
    return count, names


def calls(tree, module, bases):
    """``[(callees, positional count, keywords)]`` for every call in
    ``tree``, the callables its forwarders forward to included."""
    callees = _Callees(tree, module, bases)
    found = []

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                count, names = _arguments(child.args, child.keywords, callees.dicts)
                found.append((callees.of(child.func, cls), count, names))
                forwarded_to = KEYWORD_FORWARDERS.get(_call_name(child.func))
                if forwarded_to is not None:
                    found.append(({("class", forwarded_to)}, 0, names))
                at = FORWARDERS.get(_call_name(child.func))
                if at is not None and len(child.args) > at:
                    rest = child.args[at + 1:]
                    count, names = _arguments(rest, child.keywords, callees.dicts)
                    found.append((callees.of(child.args[at], cls), count, names))
            walk(child, child.name if isinstance(child, ast.ClassDef) else cls)

    walk(tree, None)
    return found


def unset():
    """Every settable value no entry point passes, as sorted keys."""
    values, bases = definitions()
    trees = [(_tree(name), name) for name in sorted(reached())]
    trees += [(tree, "") for tree in _outside_roots()]
    passed = set()  # callee + (param name or positional index,)
    for tree, module in trees:
        for targets, count, names in calls(tree, module, bases):
            for target in targets:
                passed |= {target + (name,) for name in names}
                passed |= {target + (index,) for index in range(count)}
    return sorted(
        key
        for key, callee, param, index in values
        if callee + (param,) not in passed and callee + (index,) not in passed
    )


def test_every_settable_value_is_set_by_an_entry_point():
    values, _ = definitions()
    assert len(values) > 150  # the walk still finds the package's defaults
    unexplained = [key for key in unset() if key not in ALLOWLIST]
    assert not unexplained, (
        f"{len(unexplained)} settable values no entry point sets — make each "
        f"a module constant, or allowlist it with its reason:\n  "
        + "\n  ".join(unexplained)
    )


def test_each_allowlisted_value_exists_and_is_still_unset():
    values = {key for key, *_ in definitions()[0]}
    still = set(unset())
    for key, reason in ALLOWLIST.items():
        assert key in values, f"{key} is gone: drop its entry"
        assert key in still, f"an entry point sets {key} now: drop its entry"
        assert reason and "\n" not in reason, key


if __name__ == "__main__":
    values, _ = definitions()
    missing = unset()
    print(len(values), "settable values;", len(missing), "unset")
    for key in missing:
        print(" ", key, "(allowlisted)" if key in ALLOWLIST else "")
