"""Minimal deterministic SVG line charts.

Output is plain text assembled with fixed float formatting, so identical
inputs produce byte-identical files on any platform.
"""

from __future__ import annotations

WIDTH = 640
HEIGHT = 400
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 50


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _line(x1, y1, x2, y2) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>'


def _text(x, y, anchor: str, size: int, body: str, attrs: str = "") -> str:
    """A sans-serif <text> element; attrs follows the font size."""
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}"{attrs}>{body}</text>'
    )


def line_chart(
    mean_line: list[tuple[float, float]],
    scatter: list[tuple[float, float]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render a mean polyline plus per-point markers as an SVG document."""
    xs = [p[0] for p in mean_line] + [p[0] for p in scatter]
    ys = [p[1] for p in mean_line] + [p[1] for p in scatter]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH // 2, 24, "middle", 16, title),
        _line(MARGIN_L, MARGIN_T + plot_h, MARGIN_L + plot_w, MARGIN_T + plot_h),
        _line(MARGIN_L, MARGIN_T, MARGIN_L, MARGIN_T + plot_h),
    ]
    for tx in _ticks(x_lo, x_hi):
        px = _fmt(sx(tx))
        parts.append(_line(px, MARGIN_T + plot_h, px, MARGIN_T + plot_h + 5))
        parts.append(_text(px, MARGIN_T + plot_h + 20, "middle", 11, _fmt(tx)))
    for ty in _ticks(y_lo, y_hi):
        py = _fmt(sy(ty))
        parts.append(_line(MARGIN_L - 5, py, MARGIN_L, py))
        parts.append(_text(MARGIN_L - 8, py, "end", 11, _fmt(ty)))
    parts.append(_text(MARGIN_L + plot_w // 2, HEIGHT - 10, "middle", 13, xlabel))
    mid = MARGIN_T + plot_h // 2
    parts.append(
        _text(16, mid, "middle", 13, ylabel, f' transform="rotate(-90 16 {mid})"')
    )

    for x, y in scatter:
        parts.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
            f'fill="steelblue" fill-opacity="0.6"/>'
        )
    if mean_line:
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in mean_line)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="firebrick" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
