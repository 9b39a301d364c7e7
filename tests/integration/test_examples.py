"""Every example runs to completion, as a user would start it.

The examples are entry points of the package (``test_reachability.py``
walks the import graph from them), so a change that breaks one must
fail here, not in a reader's terminal.  Each runs in a fresh
interpreter, from the repo root, with ``src`` on the path.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_and_exits_0(example):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(example)], env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip(), f"{example.name} printed nothing"
