"""The CI workflow may only name files, CLI verbs and flags that exist.

Nobody can run Actions offline, so a deleted test file, verb or flag
that the workflow still calls would first be noticed as a red job after
the merge.  Plain regex over the workflow text: PyYAML is not a test
dependency.  Command lines are read as ``test_docs_drift`` reads the
prose.
"""

import pathlib
import re

from repro import cli

from .test_docs_drift import OPTIONS, _invocations

ROOT = pathlib.Path(__file__).parent.parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "ci.yml").read_text()


def test_every_test_and_benchmark_path_in_the_workflow_exists():
    paths = set(re.findall(r"(?<![\w./-])(?:tests|benchmarks)/[\w./-]*\w", WORKFLOW))
    assert len(paths) > 10  # the pattern still finds what it is for
    missing = sorted(path for path in paths if not (ROOT / path).exists())
    assert not missing, f"ci.yml names paths that are not in the tree: {missing}"


def test_every_repro_verb_in_the_workflow_is_a_command():
    verbs = {verb for verb, _ in _invocations(WORKFLOW)}
    assert len(verbs) > 3
    unknown = sorted(verbs - set(cli._COMMANDS))
    assert not unknown, f"ci.yml calls CLI verbs that do not exist: {unknown}"


def test_every_flag_in_the_workflow_is_an_option_of_its_verb():
    invocations = list(_invocations(WORKFLOW))
    assert sum(len(flags) for _, flags in invocations) > 20
    wrong = [
        f"repro {verb} {flag}"
        for verb, flags in invocations
        for flag in flags
        if flag not in OPTIONS[None] | OPTIONS.get(verb, set())
    ]
    assert not wrong, f"ci.yml passes flags its verbs do not take: {wrong}"
