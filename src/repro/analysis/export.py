"""Export: get simulation data out of the process.

:func:`write_text` is the one write path the CLI's ``--telemetry`` /
``--prom`` flags share; :func:`spans_to_jsonl` and
:func:`spans_from_jsonl` write and read the span trace's JSON Lines form
(the ASCII renderer, :mod:`repro.analysis.plotting`, covers quick looks).
No dependency beyond the standard library.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, TextIO, Union


def write_text(path: str, text: str) -> None:
    """Write ``text`` to the file at ``path``: the one write path the
    CLI's side artifacts (``--telemetry``, ``--prom``) share.  A run's
    report goes to stdout; ``--json`` prints its canonical bytes."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def spans_to_jsonl(spans: Iterable, target: Union[str, TextIO, None] = None) -> Optional[str]:
    """Write lifecycle spans as JSON Lines, one span per line.

    The line layout is owned by :func:`repro.sim.spans.spans_to_jsonl_lines`
    and deterministic, so two identical seeded runs export byte-identical
    files — CI pins this property.  The text is assembled with one join
    and, for a path or file ``target``, written with one call.
    """
    from ..sim.spans import spans_to_jsonl_lines

    lines = spans_to_jsonl_lines(spans)
    lines.append("")  # every line, the last included, ends in a newline
    text = "\n".join(lines)
    if target is None:
        return text
    if isinstance(target, str):
        with open(target, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
    else:
        target.write(text)
    return None


def spans_from_jsonl(source: Union[str, TextIO]) -> List:
    """Read spans back from a JSON Lines export (round-trip of
    :func:`spans_to_jsonl`).  ``source`` is a path or an open file.

    Reads per-shard exports only: a merged fleet trace (lines carrying
    ``shard``) raises ``ValueError`` — see :meth:`Span.from_dict`.
    """
    import json

    from ..sim.spans import Span

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    else:
        lines = source.read().splitlines()
    return [Span.from_dict(json.loads(line)) for line in lines if line.strip()]
