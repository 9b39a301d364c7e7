"""Every module of the package is reached from an entry point: a static gate.

A module that only its own tests import is code the paper's outputs do
not depend on, kept alive by the tests that pin it.  So the package's
import graph is walked from what a user runs — ``repro.cli`` and
``repro.__main__``, every ``examples/*.py``, every ``benchmarks/**/*.py``
and the Python embedded in ``.github/workflows/ci.yml`` — and every
module of ``src/repro`` must be reached.  ``ast`` only: nothing is
imported or executed.

The edges:

* ``import`` and ``from … import``, anywhere in a module (an import
  inside a function counts), with relative imports resolved;
* ``from pkg import name`` resolves through ``pkg/__init__``'s re-export
  to the module that defines ``name`` (or through its PEP 562
  ``__getattr__``'s imports, when it re-exports lazily);
* ``import pkg`` or ``from . import pkg``, followed by ``pkg.attr``,
  resolves ``attr`` the same way;
* a package ``__init__`` never counts as a user: importing a package
  runs its ``__init__``, but a module it re-exports is reached only when
  some user names it.

A module nothing reaches fails the test, unless the README or
``docs/SCRIPT_API.md`` documents it as API (:data:`DOCUMENTED`).
"""

import ast
import pathlib
import re
import textwrap

ROOT = pathlib.Path(__file__).parent.parent.parent
SRC = ROOT / "src"

#: Modules no entry point reaches, kept because a doc names them as
#: public API: ``{module: the doc that names it}``.
DOCUMENTED = {
    "repro.core.participation": "README.md",
}


def _package_modules():
    """``{dotted name: path}``; a package is keyed by its own name."""
    found = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


MODULES = _package_modules()
_TREES = {}


def _tree(name):
    if name not in _TREES:
        _TREES[name] = ast.parse(MODULES[name].read_text(), str(MODULES[name]))
    return _TREES[name]


def _is_package(name):
    return name in MODULES and MODULES[name].name == "__init__.py"


def _absolute(node, importer):
    """The module an ``ImportFrom`` in ``importer`` names."""
    if not node.level:
        return node.module
    package = importer if _is_package(importer) else importer.rpartition(".")[0]
    base = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
    return f"{base}.{node.module}" if node.module else base


def _resolve(module, name=None):
    """The plain modules that ``module`` (and its ``name``, if given)
    stands for: a package resolves ``name`` through its ``__init__``."""
    if module not in MODULES:
        return set()  # not ours: the stdlib, pytest, the benchmarks
    if name is None or not _is_package(module):
        return set() if _is_package(module) else {module}
    if f"{module}.{name}" in MODULES:
        return _resolve(f"{module}.{name}")
    init = _tree(module)
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(_absolute(node, module), alias.name)
    lazy = set()
    for node in init.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom):
                    for alias in inner.names:
                        lazy |= _resolve(_absolute(inner, module), alias.name)
    return lazy


def _uses(tree, importer):
    """The plain modules a module (or root) of ``tree`` uses."""
    used, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                used |= _resolve(alias.name)
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    bound[head] = head
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, importer)
            for alias in node.names:
                used |= _resolve(source, alias.name)
                bound[alias.asname or alias.name] = f"{source}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if not isinstance(node, ast.Name) or node.id not in bound:
                continue
            module = bound[node.id]
            for attr in reversed(chain):
                if f"{module}.{attr}" in MODULES:
                    module = f"{module}.{attr}"
                    used |= _resolve(module)
                    continue
                used |= _resolve(module, attr)
                break
    return used


def _ci_python():
    """Every heredoc in the workflow: each is a Python program."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    blocks = re.findall(r"<<'(\w+)'\n(.*?)\n[ \t]*\1\n", workflow, re.DOTALL)
    return [textwrap.dedent(body) for _, body in blocks]


def _outside_roots():
    """The roots outside the package, as parsed trees."""
    trees = []
    for pattern in ("examples/*.py", "benchmarks/**/*.py"):
        trees += [ast.parse(path.read_text(), str(path)) for path in ROOT.glob(pattern)]
    ci = _ci_python()
    assert len(ci) >= 4  # the heredoc pattern still finds the workflow's scripts
    return trees + [ast.parse(source, "ci.yml") for source in ci]


def reached():
    """Every plain module of the package some root reaches."""
    seen = set()
    todo = {"repro.cli", "repro.__main__"}
    for tree in _outside_roots():
        todo |= _uses(tree, "")
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo |= _uses(_tree(module), module)
    return seen


def test_every_module_is_reached_from_an_entry_point():
    plain = {name for name in MODULES if not _is_package(name)}
    assert len(plain) > 80  # the walk still finds the package
    unreached = sorted(plain - reached() - set(DOCUMENTED))
    assert not unreached, (
        f"no entry point reaches {unreached}: delete them with their tests, "
        f"or document them as API in README.md or docs/SCRIPT_API.md"
    )


def test_each_unreached_module_kept_is_documented_and_still_unreached():
    live = reached()
    for module, doc in DOCUMENTED.items():
        assert module in MODULES, module
        assert module not in live, f"{module} is reached now: drop its entry"
        assert module in (ROOT / doc).read_text(), f"{doc} does not name {module}"
    assert set(DOCUMENTED.values()) <= {"README.md", "docs/SCRIPT_API.md"}


def test_the_edges_follow_re_exports_and_package_attributes():
    # ``from repro import PogoSimulation``: through the package's re-export.
    assert _resolve("repro", "PogoSimulation") == {"repro.core.middleware"}
    # ``from . import chaos as _chaos`` then ``_chaos.run_scenario``.
    assert "repro.chaos.scenarios" in _uses(_tree("repro.cli"), "repro.cli")
    # A lazy (PEP 562) re-export still resolves.
    assert _resolve("repro.scenarios", "run_scenario_spec") == {"repro.scenarios.runner"}
    # The package __init__ is not a user: naming one re-export reaches
    # only the module that defines it.
    assert _resolve("repro.sim", "Kernel") == {"repro.sim.kernel"}
