"""Deterministic SVG rendering of disks and full scenes.

Stored geometry uses mathematical orientation (y up); the flip to screen
coordinates happens only here.  Coordinates are integer unit counts times
an integer unit_px, so no rounding ever occurs and output is byte-identical
across runs.  A shape is drawn as a scene of one translate at the origin:
each group's x and y columns are the disk's rows with its offset added, in
one numpy expression.  Its rects alternate bar and connector, and each kind
has one bytes template with its fixed size and the fill built in, so only
x, y and a connector's height are formatted.  The picture's box is the
disk's box widened by the spread of the offsets.
The rect budget and the 2^61 px bound are checked before any rect is made.
_svg_chunks yields the SVG in chunks; render_svg joins them, and the CLI
writes them as they are made, so it never holds the whole SVG.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

from .disk import _CHUNK, Shape
from .errors import ParameterError, _int_in
from .placement import Scene
from .rect import Vec2

MAX_RENDER_RECTS = 2**23  # the n = 17 scene draws 4,718,574 rects, the n = 18 one 9,961,453

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


def render_svg(obj: Union[Shape, Scene], unit_px: int = 10) -> bytes:
    """Render a single disk or a placed scene, one group per translate;
    ParameterError beyond MAX_RENDER_RECTS rects or 2^61 px."""
    return b"".join(_svg_chunks(obj, unit_px))


def _svg_chunks(obj: Union[Shape, Scene], unit_px: int) -> Iterator[bytes]:
    """render_svg's bytes, in order; every check runs before the first chunk."""
    _int_in("unit_px", unit_px, 1)
    if isinstance(obj, Shape):
        shape, offsets, fills, labels = obj, (Vec2(0, 0),), [FILLS[0]], ["shape"]
    elif isinstance(obj, Scene):
        shape, offsets = Shape(obj.m, obj.n), obj.offsets
        fills = [FILL_A0] + [FILLS[(i - 1) % len(FILLS)] for i in range(1, len(offsets))]
        labels = [f"A{i}" for i in range(len(offsets))]
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    count = len(offsets) * (2 ** (shape.n + 1) - 1)
    if count > MAX_RENDER_RECTS:
        raise ParameterError(f"an SVG of {count} rects exceeds the budget of {MAX_RENDER_RECTS}")

    box = shape.bounding_box()
    x0 = box.x0 + min(t.dx for t in offsets)
    y0 = box.y0 + min(t.dy for t in offsets)
    x1 = box.x1 + max(t.dx for t in offsets)
    y1 = box.y1 + max(t.dy for t in offsets)
    width = (x1 - x0 + 2) * unit_px
    height = (y1 - y0 + 2) * unit_px
    if max(width, height) >= 2**61:  # unit_px stays out of the message: it may pass int-to-str's limit
        raise ParameterError("SVG width or height reaches 2**61 px at this unit_px")
    yield (
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        b'<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">\n'
        % (width, height, width, height)
    )
    rows = shape.rows
    cols = np.empty((len(rows), 3), np.int64)  # x, y and height of each rect, in px
    cols[:, 2] = (rows[:, 3] - rows[:, 1]) * unit_px
    fields = np.arange(3) < 2 + np.arange(len(rows))[:, None] % 2  # x, y, and height on odd (connector) rows
    rect = b'<rect x="%%d" y="%%d" width="%s" height="%s" fill="%s" stroke="black" stroke-width="1"/>\n'
    for label, fill, t in zip(labels, fills, offsets):
        # a rect's screen corner is its top-left one, one unit in from the box
        left, top = t.dx - x0 + 1, y1 + 1 - t.dy
        cols[:, :2] = (rows[:, [0, 3]] * (1, -1) + (left, top)) * unit_px
        bar = rect % (b"%d" % (shape.m * unit_px), b"%d" % unit_px, fill.encode())  # m by 1 units
        pair = bar + rect % (b"%d" % unit_px, b"%d", fill.encode())  # then a connector, 1 unit wide
        yield b'<g id="%s">\n' % label.encode()
        for start in range(0, len(cols), _CHUNK):  # a chunk starts at an even row, so with a bar
            chunk, keep = cols[start : start + _CHUNK], fields[start : start + _CHUNK]
            yield (pair * (len(chunk) // 2) + bar * (len(chunk) % 2)) % tuple(chunk[keep].tolist())
        yield b"</g>\n"
    yield b"</svg>\n"
