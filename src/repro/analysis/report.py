"""Markdown report generation for experiment results.

Turns :class:`~repro.experiments.base.ExperimentResult` objects into
markdown sections, and a collection of them into a full report — the
programmatic counterpart of EXPERIMENTS.md, so a user who re-runs the
harness at any scale can regenerate the whole paper-vs-measured record
with one command (``repro-experiments report``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def result_to_markdown(result) -> str:
    """Render one ExperimentResult as a markdown section, floats to
    three decimals."""
    lines: List[str] = [f"## {result.experiment}", "", result.description, ""]
    header = "| " + " | ".join(str(h) for h in result.headers) + " |"
    divider = "|" + "|".join(" --- " for _ in result.headers) + "|"
    lines.append(header)
    lines.append(divider)
    for row in result.rows:
        cells = [_format_cell(cell) for cell in row]
        lines.append("| " + " | ".join(cells) + " |")
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    return "\n".join(lines)


def build_report(
    results: Iterable,
    title: str = "Reproduction report",
    preamble: Sequence[str] = (),
) -> str:
    """Assemble a full markdown report from experiment results."""
    parts: List[str] = [f"# {title}", ""]
    for line in preamble:
        parts.append(line)
    if preamble:
        parts.append("")
    for result in results:
        parts.append(result_to_markdown(result))
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"
