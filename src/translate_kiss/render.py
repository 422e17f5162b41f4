"""Deterministic SVG rendering of disks and full scenes.

Stored geometry uses mathematical orientation (y up); the flip to screen
coordinates happens only here.  Coordinates are integer unit counts times
unit_px, so no rounding ever occurs and output is byte-identical across
runs.
"""

from __future__ import annotations

from typing import Union

from .disk import Shape, build_disk
from .errors import ParameterError, _show
from .placement import Scene
from .rect import Rect, bounding_box

# A_0 is drawn in grey; A_1.. cycle through the colour list.
FILL_A0 = "#9e9e9e"
FILLS = [
    "#d53e4f",
    "#fc8d59",
    "#fee08b",
    "#99d594",
    "#3288bd",
    "#998ec3",
    "#e78ac3",
    "#a6d854",
    "#ffd92f",
    "#8da0cb",
]


def _svg_rect(r: Rect, bbox: Rect, unit_px: int, fill: str) -> str:
    x = (r.x0 - bbox.x0 + 1) * unit_px
    y = (bbox.y1 + 1 - r.y1) * unit_px
    return (
        f'<rect x="{x}" y="{y}" width="{r.width * unit_px}" '
        f'height="{r.height * unit_px}" fill="{fill}" '
        f'stroke="black" stroke-width="1"/>'
    )


def render_svg(obj: Union[Shape, Scene], unit_px: int = 10) -> bytes:
    """Render a single disk or a placed scene, one group per translate."""
    if unit_px < 1:
        raise ParameterError(f"unit_px must be >= 1, got {_show(unit_px)}")
    if isinstance(obj, Shape):
        groups = [obj.pieces]
        fills = [FILLS[0]]
        labels = ["shape"]
    elif isinstance(obj, Scene):
        shape = build_disk(obj.m, obj.n)
        groups = [
            [r.translate(t) for r in shape.pieces] for t in obj.offsets
        ]
        fills = [FILL_A0] + [FILLS[(i - 1) % len(FILLS)] for i in range(1, len(groups))]
        labels = [f"A{i}" for i in range(len(groups))]
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")

    bbox = bounding_box(r for group in groups for r in group)
    width = (bbox.x1 - bbox.x0 + 2) * unit_px
    height = (bbox.y1 - bbox.y0 + 2) * unit_px
    if max(width, height) >= 2**61:  # unit_px stays out of the message: it may pass int-to-str's limit
        raise ParameterError("SVG width or height reaches 2**61 px at this unit_px")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
    ]
    for label, fill, group in zip(labels, fills, groups):
        lines.append(f'<g id="{label}">')
        lines.extend(_svg_rect(r, bbox, unit_px, fill) for r in group)
        lines.append("</g>")
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
