"""Minimal static SVG line charts (no plotting dependency).

Deterministic output: fixed palette, fixed float formatting, no timestamps.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
MARGIN = 60
WIDTH, HEIGHT = 900, 420
N_TICKS = 5
BINS = 40


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / (N_TICKS - 1) for i in range(N_TICKS)]


def line_chart(path, series, title: str = "", x_label: str = "", y_label: str = "") -> None:
    """Write an SVG polyline chart.

    ``series`` is a list of (label, xs, ys) tuples.
    """
    norm = [(escape(str(label)), np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
            for label, xs, ys in series]
    if not norm:
        raise ValueError("no series to plot")
    x_lo = min(float(xs.min()) for _, xs, _ in norm)
    x_hi = max(float(xs.max()) for _, xs, _ in norm)
    y_lo = min(float(ys.min()) for _, _, ys in norm)
    y_hi = max(float(ys.max()) for _, _, ys in norm)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    iw, ih = WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN

    def px(x: float) -> float:
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * iw

    def py(y: float) -> float:
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * ih

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{escape(title)}</text>')
    # axes
    out.append(f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
               f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
               f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        out.append(f'<text x="{px(tx):.1f}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        out.append(f'<text x="{MARGIN - 6}" y="{py(ty) + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>')
    if x_label:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{escape(x_label)}</text>')
    if y_label:
        out.append(f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{escape(y_label)}</text>')
    # polylines and legend
    for i, (label, xs, ys) in enumerate(norm):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN + 16 * i
        out.append(f'<line x1="{WIDTH - MARGIN - 150}" y1="{ly}" x2="{WIDTH - MARGIN - 126}" '
                   f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{WIDTH - MARGIN - 120}" y="{ly + 4}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def histogram_chart(path, samples, labels, title: str = "") -> None:
    """Overlayed step histograms of 1-D samples (density-normalised)."""
    arrays = [np.asarray(s, dtype=float).reshape(-1) for s in samples]
    lo = min(a.min() for a in arrays)
    hi = max(a.max() for a in arrays)
    edges = np.linspace(lo, hi, BINS + 1)
    series = []
    for label, a in zip(labels, arrays):
        counts, _ = np.histogram(a, bins=edges, density=True)
        xs = np.repeat(edges, 2)[1:-1]
        ys = np.repeat(counts, 2)
        series.append((label, xs, ys))
    line_chart(path, series, title=title, x_label="value", y_label="density")
