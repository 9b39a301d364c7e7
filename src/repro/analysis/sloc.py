"""Source-lines-of-code counting for Table 2.

"Table 2 shows the source lines of code count for the application.
Empty lines and comments are not counted."  The paper counted JavaScript;
our scripts are Python, so the counter handles both comment styles (and
simple block comments/docstrings) so the JS listings from the paper can
be counted too for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


@dataclass(frozen=True)
class SlocCount:
    """Line counts for one source text."""

    sloc: int
    blank: int
    comment: int
    total: int
    size_bytes: int


def count_sloc(source: str, language: str = "python") -> SlocCount:
    """Count non-blank, non-comment source lines.

    ``language`` selects the comment syntax: ``python`` (``#`` and
    triple-quoted strings used as docstrings) or ``javascript`` (``//``
    and ``/* ... */``).
    """
    if language not in ("python", "javascript"):
        raise ValueError(f"unsupported language: {language!r}")
    lines = source.splitlines()
    blank = comment = sloc = 0
    in_block = False  # /* */ or ''' ''' state
    block_delim = ""
    for raw_line in lines:
        line = raw_line.strip()
        if in_block:
            comment += 1
            if block_delim in line:
                in_block = False
            continue
        if not line:
            blank += 1
            continue
        if language == "python":
            if line.startswith("#"):
                comment += 1
                continue
            if line.startswith(('"""', "'''")):
                delim = line[:3]
                comment += 1
                # Single-line docstring?
                if not (line.endswith(delim) and len(line) >= 6):
                    in_block = True
                    block_delim = delim
                continue
        else:
            if line.startswith("//"):
                comment += 1
                continue
            if line.startswith("/*"):
                comment += 1
                if "*/" not in line[2:]:
                    in_block = True
                    block_delim = "*/"
                continue
        sloc += 1
    return SlocCount(
        sloc=sloc,
        blank=blank,
        comment=comment,
        total=len(lines),
        size_bytes=len(source.encode("utf-8")),
    )


def count_scripts(scripts: Dict[str, str]) -> List[Tuple[str, SlocCount]]:
    """Count a set of named Python scripts, plus a total row (like Table 2)."""
    rows = [(name, count_sloc(source)) for name, source in sorted(scripts.items())]
    total = SlocCount(
        sloc=sum(c.sloc for _, c in rows),
        blank=sum(c.blank for _, c in rows),
        comment=sum(c.comment for _, c in rows),
        total=sum(c.total for _, c in rows),
        size_bytes=sum(c.size_bytes for _, c in rows),
    )
    rows.append(("total", total))
    return rows
