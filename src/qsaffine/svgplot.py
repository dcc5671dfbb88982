"""Minimal deterministic SVG emitters for curves and construction bands.

Self-contained static markup, no scripting, fixed-precision coordinates:
identical inputs produce byte-identical documents.  Each document is one str:
``cli._blocks``, the formatter of the csv writers too, gives the points and
rects one ``%`` format per block, and the blocks are joined once.
"""

from __future__ import annotations

from . import cli

WIDTH = 900
HEIGHT = 560
ROW_HEIGHT = 34
MARGIN = 50


def _fc(v: float) -> str:
    """Fixed-precision coordinate."""
    return f"{v:.3f}"


def _header(height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{height}" fill="white"/>',
    ]


def _title(label: str) -> str:
    """The centred title line; the label is XML-escaped."""
    # Imported here: only SVG output needs html, whose entity table is slow to import.
    from html import escape

    return (
        f'<text x="{_fc(WIDTH / 2)}" y="{_fc(MARGIN - 16)}" font-size="14" '
        f'text-anchor="middle" fill="#000000">{escape(label, quote=False)}</text>'
    )


def curve_svg(xs: list[float], ys: list[float], y_ticks: tuple[float, ...], label: str) -> str:
    """Polyline through the points ``(xs[i], ys[i])`` with horizontal guides at ``y_ticks``."""
    y_lo = min(min(ys), min(y_ticks))
    y_hi = max(max(ys), max(y_ticks))
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo -= pad
    y_hi += pad
    iw = WIDTH - 2 * MARGIN
    ih = HEIGHT - 2 * MARGIN
    y_span = y_hi - y_lo

    def py(y: float) -> float:
        return MARGIN + (y_hi - y) / y_span * ih

    parts = _header(HEIGHT)
    seen: set[str] = set()
    for tick in y_ticks:
        ty = _fc(py(tick))
        if ty in seen:
            continue
        seen.add(ty)
        parts.append(
            f'<line x1="{_fc(MARGIN)}" y1="{ty}" x2="{_fc(MARGIN + iw)}" y2="{ty}" '
            'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4,4"/>'
        )
        parts.append(
            f'<text x="{_fc(MARGIN - 6)}" y="{ty}" font-size="12" text-anchor="end" '
            f'dominant-baseline="middle" fill="#444444">{tick:.6g}</text>'
        )
    for tick in (0.0, 1.0):
        tx = _fc(MARGIN + tick * iw)
        parts.append(
            f'<line x1="{tx}" y1="{_fc(py(y_lo))}" x2="{tx}" y2="{_fc(py(y_hi))}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{tx}" y="{_fc(HEIGHT - MARGIN + 16)}" font-size="12" '
            f'text-anchor="middle" fill="#444444">{tick:g}</text>'
        )
    # py(f) written out: the same float operations without a call per point, computed
    # one block at a time; a space between points, so the first block drops its first.
    doc = ["\n".join(parts), '\n<polyline points="']
    doc += cli._blocks(" %.3f,%.3f", len(xs), lambda i, j: (
        [MARGIN + v * iw for v in xs[i:j]],
        [MARGIN + (y_hi - f) / y_span * ih for f in ys[i:j]],
    ))
    doc[2] = doc[2][1:]
    doc += ['" fill="none" stroke="#1b4f9c" stroke-width="1"/>\n', _title(label), "\n</svg>\n"]
    return "".join(doc)


def bands_svg(stages: list[list[tuple[float, float]]], label: str) -> str:
    """Stacked rows of intervals, one row per construction stage."""
    iw = WIDTH - 2 * MARGIN
    parts = ["\n".join(_header(2 * MARGIN + ROW_HEIGHT * len(stages))), "\n"]
    for t, intervals in enumerate(stages):
        y = MARGIN + t * ROW_HEIGHT
        parts.append(
            f'<text x="{_fc(MARGIN - 8)}" y="{_fc(y + ROW_HEIGHT / 2)}" font-size="12" '
            f'text-anchor="end" dominant-baseline="middle" fill="#444444">{t + 1}</text>\n'
        )
        rect = (f'<rect x="%.3f" y="{_fc(y + 4)}" width="%.3f" height="{ROW_HEIGHT - 12}" '
                'fill="#1b4f9c"/>\n')
        parts += cli._blocks(rect, len(intervals), lambda i, j: (
            [MARGIN + lo * iw for lo, _ in intervals[i:j]],
            [max(hi - lo, 0.0) * iw for lo, hi in intervals[i:j]],
        ))
    parts += [_title(label), "\n</svg>\n"]
    return "".join(parts)
