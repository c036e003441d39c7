"""Plain-text table rendering for benchmark output.

Every benchmark prints its reproduction of a paper table or figure as an
aligned text table so `pytest benchmarks/ --benchmark-only -s` output can
be compared against the paper directly; the same renderings are what
:mod:`repro.bench.harness` writes to ``results/<name>.txt``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render an aligned text table with a rule under the header."""
    rendered = [[_render_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in rendered)
    return "\n".join(parts)
