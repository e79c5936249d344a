"""Hand-rolled SVG scatter and bar charts.

Keeps plotting dependency-free and the output diffable: same inputs give
byte-identical SVG.
"""

import html

_FONT = "font-family=\"sans-serif\" font-size=\"11\""


def escape(text):
    """``text`` with &, < and > escaped for SVG text content.  ``html``
    imports far faster than ``xml.sax.saxutils``, which pulls in
    ``urllib.request`` and ``http.client``."""
    return html.escape(text, quote=False)


def _header(width, height, title):
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="16" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13">'
                     f'{escape(title)}</text>')
    return parts


def _bounds(values, pad_frac=0.12):
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


def scatter_svg(points, labels, title="", width=480, height=360):
    """Labelled 2-D scatter; points is an (n, 2) array-like."""
    points = [(float(x), float(y)) for x, y in points]
    if len(points) != len(labels):
        raise ValueError(f"{len(points)} points but {len(labels)} labels")
    m = 46
    x_lo, x_hi = _bounds([p[0] for p in points])
    y_lo, y_hi = _bounds([p[1] for p in points])

    def sx(x):
        return m + (x - x_lo) / (x_hi - x_lo) * (width - 2 * m)

    def sy(y):
        return height - m - (y - y_lo) / (y_hi - y_lo) * (height - 2 * m)

    parts = _header(width, height, title)
    parts.append(f'<rect x="{m}" y="{m}" width="{width - 2 * m}" '
                 f'height="{height - 2 * m}" fill="none" stroke="#888"/>')
    for (x, y), label in zip(points, labels):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" '
                     f'fill="#27649c"/>')
        parts.append(f'<text x="{sx(x) + 6:.1f}" y="{sy(y) - 6:.1f}" {_FONT}>'
                     f'{escape(str(label))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_svg(values, labels, title="", width=480, height=360):
    """Vertical bar chart of non-negative values with labels underneath."""
    values = [float(v) for v in values]
    if len(values) != len(labels):
        raise ValueError(f"{len(values)} values but {len(labels)} labels")
    if min(values) < 0:
        raise ValueError("bar chart expects non-negative values")
    m = 46
    top = max(values) or 1.0
    span_x = width - 2 * m
    slot = span_x / len(values)
    bar_w = slot * 0.6

    parts = _header(width, height, title)
    base = height - m
    for i, (v, label) in enumerate(zip(values, labels)):
        h = (v / top) * (height - 2 * m)
        x = m + i * slot + (slot - bar_w) / 2
        parts.append(f'<rect x="{x:.1f}" y="{base - h:.1f}" '
                     f'width="{bar_w:.1f}" height="{h:.1f}" fill="#27649c"/>')
        parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{base - h - 4:.1f}" '
                     f'text-anchor="middle" {_FONT}>{v:.2f}</text>')
        parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{base + 14:.1f}" '
                     f'text-anchor="middle" {_FONT}>{escape(str(label))}</text>')
    parts.append(f'<line x1="{m}" y1="{base}" x2="{width - m}" y2="{base}" '
                 f'stroke="#888"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
