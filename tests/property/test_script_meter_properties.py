"""Property-based tests for the script step meter.

``compile_script`` rewrites a script so that it charges its host's
watchdog one step wherever script code can repeat itself.  Two things
must hold for *every* script, not just the ones in ``repro.apps``:

* the rewrite is invisible — a metered ``exec`` leaves exactly the data
  bindings a plain ``exec`` of the same source leaves;
* the bill is right — the steps charged equal the count of a naive
  reference that never touches a loop or function *body*: it wraps what
  is iterated, tested or called from the outside and counts there.

Random scripts are grown from nested ``for``/``while``/``def``/``lambda``/
comprehension/``try`` templates with ``break``/``continue``/``else``; every
leaf appends to ``out``, so ``out`` is the path the script took.
"""

import ast
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scripting import STEPS_PER_MS, ScriptTimeoutError, Watchdog, compile_script

MAX_DEPTH = 3


# ---------------------------------------------------------------------------
# The reference: count the same steps without editing a single body.
# ---------------------------------------------------------------------------
class Reference(ast.NodeTransformer):
    def wrap(self, helper, node):
        return ast.Call(ast.Name(helper, ast.Load()), [node], [])

    def visit_For(self, node):
        self.generic_visit(node)
        node.iter = self.wrap("_items", node.iter)
        return node

    visit_comprehension = visit_For

    def visit_While(self, node):
        self.generic_visit(node)
        node.test = self.wrap("_test", node.test)
        return node

    def visit_FunctionDef(self, node):
        self.generic_visit(node)
        node.decorator_list.append(ast.Name("_calls", ast.Load()))
        return node

    def visit_Lambda(self, node):
        self.generic_visit(node)
        return self.wrap("_calls", node)


def run_reference(source):
    steps = [0]

    def _items(iterable):
        for item in iterable:
            steps[0] += 1
            yield item

    def _test(value):
        steps[0] += bool(value)
        return value

    def _calls(fn):
        def counted(*args):
            steps[0] += 1
            return fn(*args)
        counted.__doc__ = fn.__doc__
        return counted

    tree = ast.fix_missing_locations(Reference().visit(ast.parse(source)))
    namespace = {"_items": _items, "_test": _test, "_calls": _calls}
    exec(compile(tree, "<reference>", "exec"), namespace)
    return steps[0], namespace


def run_metered(source, budget_ms=1000.0):
    watchdog = Watchdog(budget_ms)
    namespace = {"__pogo_meter__": watchdog}
    watchdog.guard(exec, compile_script(source, "generated"), namespace)
    return watchdog.budget - watchdog.left, namespace


def data_bindings(namespace):
    return {
        key: observable(value)
        for key, value in namespace.items()
        if not key.startswith("__") and isinstance(value, (int, list))
    }


def observable(value):
    """``value`` with each function in it replaced by its docstring: the
    plain, metered and reference copies of one ``def`` are different
    objects, and a script may not read ``__doc__`` itself."""
    if isinstance(value, types.FunctionType):
        return ("docstring", value.__doc__)
    if isinstance(value, (list, tuple)):
        return type(value)(observable(item) for item in value)
    return value


# ---------------------------------------------------------------------------
# Script generator
# ---------------------------------------------------------------------------
small = st.integers(0, 4)


def indent(lines):
    return ["    " + line for line in lines]


@st.composite
def leaf(draw, depth, in_loop):
    kinds = ["append", "listcomp", "nested_comp", "genexp", "dictcomp", "lambda"]
    if in_loop:
        kinds += ["break", "continue"]
    kind = draw(st.sampled_from(kinds))
    a, b, m = draw(small), draw(small), draw(st.integers(2, 4))
    if kind == "append":
        return [f"out.append({a})"]
    if kind == "listcomp":
        return [f"out.append([x * {b} for x in range({a}) if x % {m}])"]
    if kind == "nested_comp":
        return [f"out.append([(x, y) for x in range({a}) for y in range(x, {b})])"]
    if kind == "genexp":
        return [f"out.append(sum(x + len(out) for x in range({a})))"]
    if kind == "dictcomp":
        return [f"out.append({{x: {{y: x for y in range(x)}} for x in range({a})}})"]
    if kind == "lambda":
        return [f"out.append(list(map(lambda x: (lambda y: x + y)({b}), range({a}))))"]
    return [f"if len(out) % {m} == {a % m}:", f"    {kind}"]


@st.composite
def block(draw, depth=0, in_loop=False):
    lines = []
    for index in range(draw(st.integers(1, 3))):
        if depth >= MAX_DEPTH:
            lines += draw(leaf(depth, in_loop))
            continue
        kind = draw(st.sampled_from(["leaf", "leaf", "for", "while", "def", "try"]))
        name = f"v{depth}_{index}"
        if kind == "leaf":
            lines += draw(leaf(depth, in_loop))
        elif kind == "for":
            lines += [f"for {name} in range({draw(small)}):"]
            lines += indent(draw(block(depth + 1, True)))
            if draw(st.booleans()):
                lines += ["else:"] + indent(draw(block(depth + 1, in_loop)))
        elif kind == "while":
            lines += [f"{name} = 0", f"while {name} < {draw(small)}:", f"    {name} += 1"]
            lines += indent(draw(block(depth + 1, True)))
            if draw(st.booleans()):
                lines += ["else:"] + indent(draw(block(depth + 1, in_loop)))
        elif kind == "def":
            recurse = draw(st.booleans())
            lines += [f"def {name}(n):", "    '''docstring stays the docstring'''"]
            lines += indent(draw(block(depth + 1, False)))
            if recurse:
                lines += ["    if n > 0:", f"        {name}(n - 1)"]
            lines += ["    return n", f"out.append(({name}, {name}({draw(small)})))"]
        else:
            lines += ["try:"] + indent(draw(block(depth + 1, in_loop)))
            if draw(st.booleans()):
                lines += ["    raise ValueError('generated')"]
            lines += ["except ValueError:"] + indent(draw(block(depth + 1, in_loop)))
            if draw(st.booleans()):
                lines += ["else:"] + indent(draw(block(depth + 1, in_loop)))
            if draw(st.booleans()):
                lines += ["finally:", f"    out.append('finally {name}')"]
    return lines


scripts = block().map(lambda lines: "\n".join(["out = []"] + lines) + "\n")


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@given(scripts)
@settings(max_examples=300, deadline=None)
def test_metered_exec_is_plain_exec_and_steps_match_the_reference(source):
    plain = {}
    exec(compile(source, "<plain>", "exec"), plain)
    expected_steps, reference = run_reference(source)
    steps, metered = run_metered(source)
    assert data_bindings(metered) == data_bindings(plain) == data_bindings(reference)
    assert steps == expected_steps


@given(scripts, st.integers(0, 60))
@settings(max_examples=300, deadline=None)
def test_a_script_is_killed_exactly_when_its_steps_exceed_the_budget(source, budget):
    expected_steps, _ = run_reference(source)
    budget_ms = (budget + 0.5) / STEPS_PER_MS
    if expected_steps <= budget:
        assert run_metered(source, budget_ms)[0] == expected_steps
    else:
        with pytest.raises(ScriptTimeoutError):
            run_metered(source, budget_ms)


def test_generated_scripts_reach_every_template():
    """The generator is only an oracle if it actually nests: a sample of
    its output must contain every construct the meter charges."""
    seen = set()

    @given(scripts)
    @settings(max_examples=200, deadline=None, database=None)
    def collect(source):
        seen.update(type(node).__name__ for node in ast.walk(ast.parse(source)))

    collect()
    assert {
        "For", "While", "FunctionDef", "Lambda", "ListComp", "DictComp",
        "GeneratorExp", "Try", "Break", "Continue",
    } <= seen
