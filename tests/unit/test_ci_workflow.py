"""The CI workflow may only name files and CLI verbs that exist.

Nobody can run Actions offline, so a deleted test file or verb that the
workflow still calls would first be noticed as a red job after the
merge.  Plain regex over the workflow text: PyYAML is not a test
dependency.
"""

import pathlib
import re

from repro import cli

ROOT = pathlib.Path(__file__).parent.parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "ci.yml").read_text()


def test_every_test_and_benchmark_path_in_the_workflow_exists():
    paths = set(re.findall(r"(?<![\w./-])(?:tests|benchmarks)/[\w./-]*\w", WORKFLOW))
    assert len(paths) > 10  # the pattern still finds what it is for
    missing = sorted(path for path in paths if not (ROOT / path).exists())
    assert not missing, f"ci.yml names paths that are not in the tree: {missing}"


def test_every_repro_verb_in_the_workflow_is_a_command():
    verbs = set(
        re.findall(r"python -m repro\s+(?:--seed\s+\d+\s+)?([a-z][a-z0-9-]*)", WORKFLOW)
    )
    assert len(verbs) > 3
    unknown = sorted(verbs - set(cli._COMMANDS))
    assert not unknown, f"ci.yml calls CLI verbs that do not exist: {unknown}"
