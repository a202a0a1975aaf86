"""Terminal-friendly figure rendering for experiment series data.

The experiment functions return raw (time, value) arrays under a
``series`` key; these helpers draw them as compact ASCII charts so the
report is inspectable without matplotlib (which is unavailable offline).
"""

from __future__ import annotations

import numpy as np

__all__ = ["line_chart", "bar_chart"]


def line_chart(
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    *,
    title: str = "",
) -> str:
    """Multi-series ASCII line chart, 64 columns wide and 12 rows tall;
    one glyph per series."""
    glyphs = "*o+x#@"
    width, height = 64, 12
    all_x = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    all_y = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    if len(all_x) == 0:
        return f"{title}\n  (no data)"
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for glyph, (_name, (xs, ys)) in zip(glyphs, series.items()):
        for x, y in zip(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)):
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][col] = glyph
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:10.3g} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y_lo:10.3g} ┤" + "".join(grid[-1]))
    lines.append(" " * 12 + f"{x_lo:<10.3g}" + " " * (width - 20) + f"{x_hi:>10.3g}")
    legend = "   ".join(
        f"{glyph}={name}" for glyph, name in zip(glyphs, series.keys())
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def bar_chart(values: dict[str, float], *, title: str = "") -> str:
    """Horizontal ASCII bar chart (e.g. per-QPU load, Fig 8c); the
    largest value's bar is 48 columns long."""
    width = 48
    if not values:
        return f"{title}\n  (no data)"
    peak = max(values.values())
    if peak <= 0:
        peak = 1.0
    label_w = max(len(k) for k in values)
    lines = [title] if title else []
    for name, value in values.items():
        bar = "█" * max(0, int(round(value / peak * width)))
        lines.append(f"  {name:<{label_w}s} │{bar:<{width}s}│ {value:.1f}")
    return "\n".join(lines)

