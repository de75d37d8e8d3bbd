"""Deterministic SVG rendering of curve CSV files.

The input is the CSV that ``ordstat`` writes: a header line, then rows of
unquoted comma-separated fields, each as wide as the header.  The picture is
a pure function of that text: re-rendering the written CSV reproduces the
plot byte for byte.  Survival columns and hazard columns each get a panel
when present; an empty cell is skipped and Monte Carlo rows are drawn dashed.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = ["render_csv_plot"]

_W, _H = 720, 320
_ML, _MR, _MT, _MB = 70, 20, 36, 44
_COLORS = {"X": "#1f77b4", "Y": "#d62728"}
_CURVES = (("sf_X", 0), ("sf_Y", 0), ("hr_X", 1), ("hr_Y", 1))
_TITLES = ("survival functions", "hazard rate functions")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _panel(series: dict[str, tuple[list[float], list[float]]], title: str,
           y_offset: int) -> list[str]:
    xs = list(chain.from_iterable(s[0] for s in series.values()))
    ys = list(chain.from_iterable(s[1] for s in series.values()))
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.05 * (y_hi - y_lo) or 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def sx(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v: float) -> float:
        return y_offset + _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<rect x="{_ML}" y="{y_offset + _MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{_W // 2}" y="{y_offset + 22}" text-anchor="middle" '
        f'font-size="14" font-family="monospace">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{y_offset + _H - _MB}" '
                   f'x2="{px:.2f}" y2="{y_offset + _H - _MB + 5}" stroke="#333"/>')
        out.append(f'<text x="{px:.2f}" y="{y_offset + _H - _MB + 18}" '
                   f'text-anchor="middle" font-size="11" '
                   f'font-family="monospace">{t:.3g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                   f'y2="{py:.2f}" stroke="#333"/>')
        out.append(f'<text x="{_ML - 8}" y="{py:.2f}" text-anchor="end" '
                   f'dy="4" font-size="11" font-family="monospace">{t:.3g}</text>')
    out.append(f'<text x="{_W // 2}" y="{y_offset + _H - 8}" text-anchor="middle" '
               f'font-size="12" font-family="monospace">x</text>')

    legend_y = y_offset + _MT + 16
    for name in sorted(series):
        vx, vy = zip(*sorted(zip(*series[name])))
        color = _COLORS["X" if "_X" in name else "Y"]
        dash = ' stroke-dasharray="6,4"' if "(" in name else ""
        # on arrays sx/sy repeat their scalar float operations, so the
        # polyline's "%.2f" prints what the ticks' f"{:.2f}" would
        xy = np.column_stack((sx(np.array(vx)), sy(np.array(vy))))
        path = " ".join(["%.2f,%.2f"] * len(vx)) % tuple(xy.ravel().tolist())
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        out.append(f'<line x1="{_W - 170}" y1="{legend_y}" x2="{_W - 140}" '
                   f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{_W - 134}" y="{legend_y + 4}" font-size="11" '
                   f'font-family="monospace">{name}</text>')
        legend_y += 16
    return out


def render_csv_plot(csv_text: str) -> str:
    """Render the curves CSV (schema u,x,sf_X,sf_Y,hr_X,hr_Y,source) to SVG."""
    lines = csv_text.splitlines()
    header = lines[0].split(",") if lines else []
    rows = (line.split(",") for line in lines[1:] if line)
    cols = {col[0]: col[1:] for col in zip(header, *rows, strict=True)}
    x = list(map(float, cols["x"])) if cols else []
    groups: dict[str, list[int]] = {}
    for i, src in enumerate(cols.get("source") or ["analytic"] * len(x)):
        groups.setdefault(src, []).append(i)

    # Series are ordered by their first row, as a row-by-row reader meets
    # them: with a nan cell, a panel's min/max depend on that order.
    found = []
    for order, (col, panel) in enumerate(_CURVES):
        cells = cols.get(col)
        for src, rows_of_src in groups.items() if cells else ():
            idx = [i for i in rows_of_src if cells[i]]
            if idx:
                name = col if src == "analytic" else f"{col} ({src})"
                found.append((idx[0], order, panel, name, [x[i] for i in idx],
                              [float(cells[i]) for i in idx]))
    by_panel: tuple[dict, dict] = ({}, {})
    for *_, panel, name, xs, ys in sorted(found, key=lambda f: f[:2]):
        by_panel[panel][name] = (xs, ys)
    panels = [(title, series) for title, series in zip(_TITLES, by_panel) if series]
    if not panels:
        raise ValueError("CSV contains no drawable curve columns")

    height = _H * len(panels)
    body: list[str] = []
    for i, (title, series) in enumerate(panels):
        body.extend(_panel(series, title, i * _H))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height}" '
        f'viewBox="0 0 {_W} {height}">\n<rect width="{_W}" height="{height}" '
        f'fill="white"/>\n' + "\n".join(body) + "\n</svg>\n"
    )
