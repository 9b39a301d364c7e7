"""The prose may only name files, objects, CLI verbs and flags that exist.

README, DESIGN, EXPERIMENTS, INTERNALS and SCRIPT_API describe the
system as it is; nothing fails when a PR renames what they quote.  Plain
regex over the text, in the style of ``test_ci_workflow.py``: every
``….py`` path (and ``:NNN`` line) is in the tree, every dotted
``repro.*`` name imports, every ``CamelCase`` identifier is defined
somewhere in the code, every ``repro <verb>`` is a command, every
``--flag`` is an option of the command line it is quoted on, and both
numbers of every ``a → b`` that README or INTERNALS quotes stand in one
paragraph of docs/MEASUREMENTS.md, the log of what was measured.

Out of scope: ``benchmarks/pogobench/README.md`` and ROADMAP.md (frozen
between benchmark PRs and re-anchors), and CHANGES.md and
docs/MEASUREMENTS.md (logs: they name what was deleted or measured
since).
"""

import argparse
import builtins
import importlib
import pathlib
import re

import pytest

from repro import cli

ROOT = pathlib.Path(__file__).parent.parent.parent
DOCS = {
    name: (ROOT / name).read_text()
    for name in (
        "README.md", "DESIGN.md", "EXPERIMENTS.md",
        "docs/INTERNALS.md", "docs/SCRIPT_API.md",
    )
}

#: Flags of other tools the docs quote, and the file that defines each
#: (``None``: a third-party plugin's).
FOREIGN_FLAGS = {
    "--benchmark-only": None,  # pytest-benchmark
    "--trace": "benchmarks/pogobench/cli.py",
}


def _parsers():
    """``{verb: option strings}``, plus ``None`` for the root parser."""
    root = cli._build_parser()
    (sub,) = [a for a in root._actions if isinstance(a, argparse._SubParsersAction)]
    options = {None: set(root._option_string_actions)}
    for verb, parser in sub.choices.items():
        options[verb] = set(parser._option_string_actions)
    return options


OPTIONS = _parsers()

_INVOCATION = re.compile(
    r"(?:python -m repro|`repro)((?:\\\n|[^\n`])*)"
)
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _invocations(text):
    """``(verb, flags)`` for every quoted ``repro`` command line."""
    for match in _INVOCATION.finditer(text):
        words = match.group(1).replace("\\\n", " ").split()
        flags = [w.split("=")[0] for w in words if _FLAG.fullmatch(w.split("=")[0])]
        # The first bare word: root options and their numeric values
        # (``--seed 7 quickstart``) come before the verb.
        verbs = [w for w in words if re.fullmatch(r"[a-z][a-z0-9-]*", w)]
        yield (verbs[0] if verbs else None), flags


_PY_PATH = re.compile(r"(?<![\w./-])([\w./-]*\w\.py)(?::(\d+))?")
#: Where a quoted path may be rooted; a bare file name (the README's
#: tree listing) may be anywhere under these.
_ROOTS = [ROOT, ROOT / "src", ROOT / "src" / "repro"]
_PY_FILES = [
    path
    for top in ("src", "tests", "benchmarks", "examples")
    for path in (ROOT / top).rglob("*.py")
]
_BY_NAME = {path.name for path in _PY_FILES} | {"setup.py"}


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_every_python_path_and_line_exists(doc):
    missing = []
    for path, line in _PY_PATH.findall(DOCS[doc]):
        if "/" not in path:
            if path not in _BY_NAME:
                missing.append(path)
            continue
        targets = [root / path for root in _ROOTS if (root / path).is_file()]
        if not targets:
            missing.append(path)
        elif line and int(line) > len(targets[0].read_text().splitlines()):
            missing.append(f"{path}:{line}")
    assert not missing, f"{doc} names source locations that do not exist: {missing}"


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_every_dotted_repro_name_resolves(doc):
    unresolved = []
    for name in sorted(set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", DOCS[doc]))):
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                for attr in parts[cut:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                unresolved.append(name)
            break
    assert not unresolved, f"{doc} names objects that do not exist: {unresolved}"


#: CamelCase words that are names of things outside the code.
PROPER_NOUNS = {
    "AnonySense", "AnonyTL", "RogueFinder", "JavaScript", "NaN", "ExceptionType",
}
_CODE = "\n".join(path.read_text() for path in _PY_FILES)
_DEFINED = (
    set(re.findall(r"\b(?:class|def)\s+(\w+)", _CODE))
    | set(re.findall(r"^(\w+)\s*(?::[^=\n]+)?=", _CODE, re.MULTILINE))
    | set(dir(builtins))
    | PROPER_NOUNS
)


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_every_camelcase_identifier_is_defined_in_the_code(doc):
    words = set(re.findall(r"\b[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+\b", DOCS[doc]))
    unknown = sorted(words - _DEFINED)
    assert not unknown, f"{doc} names classes that do not exist: {unknown}"


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_every_repro_verb_is_a_command(doc):
    verbs = {verb for verb, _ in _invocations(DOCS[doc]) if verb is not None}
    unknown = sorted(verbs - set(cli._COMMANDS))
    assert not unknown, f"{doc} quotes CLI verbs that do not exist: {unknown}"


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_every_flag_is_an_option_of_its_command(doc):
    text = DOCS[doc]
    wrong = []
    for verb, flags in _invocations(text):
        allowed = OPTIONS[None] | OPTIONS.get(verb, set())
        wrong += [f"repro {verb} {flag}" for flag in flags if flag not in allowed]
    # Flags quoted on their own, in prose: any repro command's, or a
    # named other tool's.
    anywhere = set().union(*OPTIONS.values())
    for flag in set(_FLAG.findall(_INVOCATION.sub("", text))):
        if flag in FOREIGN_FLAGS:
            owner = FOREIGN_FLAGS[flag]
            if owner is not None and f'"{flag}"' not in (ROOT / owner).read_text():
                wrong.append(f"{flag} (not in {owner})")
        elif flag not in anywhere:
            wrong.append(flag)
    assert not wrong, f"{doc} quotes flags that do not exist: {sorted(wrong)}"


_NUMBER = r"\d(?:[\d,]*\d)?(?:\.\d+)?"
#: ``0.440 → 0.409``, also wrapped across two lines.
_BEFORE_AFTER = re.compile(rf"(?<![\w.,])({_NUMBER})\s*→\s*({_NUMBER})(?!\w)")
_MEASURED = re.split(r"\n\s*\n", (ROOT / "docs" / "MEASUREMENTS.md").read_text())


def _stands_in(number, paragraph):
    return re.search(
        rf"(?<![\d.,]){re.escape(number)}(?!\d|[.,]\d)", paragraph
    ) is not None


@pytest.mark.parametrize("doc", ["README.md", "docs/INTERNALS.md"])
def test_every_quoted_before_and_after_was_measured(doc):
    quotes = _BEFORE_AFTER.findall(DOCS[doc])
    assert quotes  # the pattern still finds what it is for
    unmeasured = [
        f"{before} → {after}"
        for before, after in quotes
        if not any(
            _stands_in(before, paragraph) and _stands_in(after, paragraph)
            for paragraph in _MEASURED
        )
    ]
    assert not unmeasured, (
        f"{doc} quotes figures no paragraph of docs/MEASUREMENTS.md holds: "
        f"{unmeasured}"
    )


def test_the_patterns_still_find_what_they_are_for():
    text = "\n".join(DOCS.values())
    assert len(_PY_PATH.findall(text)) > 100
    assert len(set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text))) > 20
    invocations = list(_invocations(text))
    assert len({verb for verb, _ in invocations}) > 8
    assert sum(len(flags) for _, flags in invocations) > 20
