"""Deterministic SVG rendering of the curves ``ordstat`` writes.

``render_csv_plot`` reads a curves CSV: a header line, then rows of unquoted
comma-separated fields, each as wide as the header.  It parses the CSV into
one block of float columns per source.  ``render_curve_plot`` takes the
arrays that CSV is printed from as those blocks, without printing and
re-parsing them; the CLI draws with it, so rendering the written CSV
reproduces the written plot byte for byte.  Both hand their blocks to one
series function, and the arrays stay arrays up to the one format call of
each polyline.  Survival columns and hazard columns each get a panel when
present.  A point is drawn only where both its value and its x are finite;
an empty cell reads as NaN, so it is skipped too.  Monte Carlo rows are
drawn dashed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_csv_plot", "render_curve_plot"]

_W, _H = 720, 320
_ML, _MR, _MT, _MB = 70, 20, 36, 44
_COLORS = {"X": "#1f77b4", "Y": "#d62728"}
_CURVES = (("sf_X", 0), ("sf_Y", 0), ("hr_X", 1), ("hr_Y", 1))
_TITLES = ("survival functions", "hazard rate functions")


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _panel(series: dict[str, tuple[np.ndarray, np.ndarray]], title: str,
           y_offset: int) -> list[str]:
    xs, ys = (np.concatenate(v) for v in zip(*series.values()))
    x_lo, x_hi, y_lo, y_hi = xs.min(), xs.max(), ys.min(), ys.max()
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
        vx, vy = series[name]
        order = np.lexsort((vy, vx))
        color = _COLORS["X" if "_X" in name else "Y"]
        dash = ' stroke-dasharray="6,4"' if "(" in name else ""
        # on arrays sx/sy repeat their scalar float operations, so the
        # polyline's "%.2f" prints what the ticks' f"{:.2f}" would
        xy = np.column_stack((sx(vx[order]), sy(vy[order])))
        path = " ".join(["%.2f,%.2f"] * vx.size) % tuple(xy.ravel().tolist())
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        out.append(f'<line x1="{_W - 170}" y1="{legend_y}" x2="{_W - 140}" '
                   f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{_W - 134}" y="{legend_y + 4}" font-size="11" '
                   f'font-family="monospace">{name}</text>')
        legend_y += 16
    return out


def _series(blocks) -> tuple[dict, dict]:
    """The drawable series of ``blocks`` as (survival, hazard) panels of
    name -> (x, y).

    A block is (source, x, sf_X, sf_Y, hr_X, hr_Y) with sources distinct;
    ``None`` is a column left out and an array shorter than ``x`` covers its
    first rows.  A point is drawn only where both its value and its x are
    finite.
    """
    panels: tuple[dict, dict] = ({}, {})
    for source, x, *curves in blocks:
        for (col, panel), values in zip(_CURVES, curves):
            if values is None:
                continue
            xs = x[:values.size]
            keep = np.isfinite(xs) & np.isfinite(values)
            if keep.any():
                panels[panel][_name(col, source)] = (xs[keep], values[keep])
    return panels


def _name(col: str, source: str) -> str:
    return col if source == "analytic" else f"{col} ({source})"


def _document(by_panel: tuple[dict, dict]) -> str:
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


def _floats(cells) -> np.ndarray:
    # an empty cell is NaN, so the finite-value rule of _series skips it
    return np.array([float(c or "nan") for c in cells], dtype=float)


def render_csv_plot(csv_text: str) -> str:
    """Render the curves CSV (schema u,x,sf_X,sf_Y,hr_X,hr_Y,source) to SVG."""
    lines = csv_text.splitlines()
    header = lines[0].split(",") if lines else []
    rows = (line.split(",") for line in lines[1:] if line)
    cols = {col[0]: col[1:] for col in zip(header, *rows, strict=True)}
    x = _floats(cols["x"] if cols else ())
    curves = [_floats(cols[col]) if col in cols else None for col, _ in _CURVES]
    sources = np.array(cols.get("source") or ["analytic"] * x.size)
    blocks = []
    for source in dict.fromkeys(sources.tolist()):
        rows_of_source = sources == source
        blocks.append((source, x[rows_of_source],
                       *(None if c is None else c[rows_of_source] for c in curves)))
    return _document(_series(blocks))


def render_curve_plot(x, blocks) -> str:
    """The SVG that ``render_csv_plot`` gives for ``cli._csv_text(grid, blocks)``,
    with ``x = grid.x``, drawn from the arrays without printing them."""
    x = np.asarray(x, dtype=float)
    return _document(_series((source, x, *curves) for source, *curves in blocks))
