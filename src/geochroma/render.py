"""Deterministic SVG rendering of decompositions.

Convex configurations are drawn on a regular polygon layout (display only;
no combinatorics ever read coordinates back from a render).  Same input,
same bytes: all numbers are formatted with fixed precision.
"""

from __future__ import annotations

import math

from .constructions import Decomposition

SIZE = 480   # square canvas side, px
MARGIN = 24  # blank border around the drawing, px


def _layout(config):
    if config.mode == "convex":
        n = config.n
        cx = cy = SIZE / 2
        r = SIZE / 2 - MARGIN
        # clockwise starting at the top, matching the cyclic vertex order
        return [
            (cx + r * math.sin(2 * math.pi * i / n),
             cy - r * math.cos(2 * math.pi * i / n))
            for i in range(n)
        ]
    xs = [p.x for p in config.points]
    ys = [p.y for p in config.points]
    x0, y0 = min(xs, default=0), min(ys, default=0)  # no points: an empty drawing
    w = max(xs, default=0) - x0 or 1
    h = max(ys, default=0) - y0 or 1
    s = (SIZE - 2 * MARGIN) / max(w, h)
    return [(MARGIN + (p.x - x0) * s, SIZE - MARGIN - (p.y - y0) * s) for p in config.points]


def _hue(color: int) -> str:
    return f"hsl({(color * 137.508) % 360:.1f},70%,42%)"


def render_svg(
    d: Decomposition,
    coloring=None,
    color_filter: int | None = None,
    show_singletons: bool = True,
) -> str:
    pos = _layout(d.config)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    drawn = 0
    for i, verts in enumerate(d.parts.blocks):
        if coloring is not None and color_filter is not None:
            if coloring.colors[i] != color_filter:
                continue
        if len(verts) == 2 and not show_singletons and color_filter is None:
            continue
        stroke = _hue(coloring.colors[i]) if coloring is not None else "#333333"
        if len(verts) >= 3:
            pts = " ".join(f"{pos[v][0]:.2f},{pos[v][1]:.2f}" for v in verts)
            lines.append(
                f'<polygon points="{pts}" fill="none" stroke="{stroke}" '
                f'stroke-width="1.5"/>'
            )
        else:
            u, v = verts
            lines.append(
                f'<line x1="{pos[u][0]:.2f}" y1="{pos[u][1]:.2f}" '
                f'x2="{pos[v][0]:.2f}" y2="{pos[v][1]:.2f}" '
                f'stroke="{stroke}" stroke-width="0.8"/>'
            )
        drawn += 1
    for x, y in pos:
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="black"/>')
    palette = coloring.palette if coloring is not None else 0
    legend = f"n={d.config.n} parts={len(d.parts)} drawn={drawn}"
    if coloring is not None:
        legend += f" colors={palette}"
        if color_filter is not None:
            legend += f" (class {color_filter})"
    lines.append(
        f'<text x="{MARGIN}" y="{SIZE - 6}" font-size="11" '
        f'font-family="monospace">{legend}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
