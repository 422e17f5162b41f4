"""Exact integer axis-aligned rectangle primitives.

Closed-rectangle semantics throughout: two rects "touch" when their closed
intersection is nonempty while their interiors are disjoint.  All
coordinates are Python ints, so every test here is exact.  The pairwise
sweep behind union_interiors_disjoint and contact_components runs on int64
numpy arrays; it only compares, takes max/min and subtracts, and it rejects
any coordinate with |v| >= 2**61 (RangeError), so it stays exact too.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np

from .errors import ContractViolation, ParameterError, RangeError, _show

POINT = "point"
HSEG = "horizontal-segment"
VSEG = "vertical-segment"


@dataclass(frozen=True, order=True)
class Vec2:
    dx: int
    dy: int

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.dx + other.dx, self.dy + other.dy)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.dx - other.dx, self.dy - other.dy)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.dx, -self.dy)


@dataclass(frozen=True, order=True)
class Rect:
    """Closed rectangle [x0, x1] x [y0, y1] with positive area."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            corners = ", ".join(map(_show, (self.x0, self.y0, self.x1, self.y1)))
            raise ParameterError(f"degenerate rectangle Rect({corners})")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    def translate(self, v: Vec2) -> "Rect":
        return Rect(self.x0 + v.dx, self.y0 + v.dy, self.x1 + v.dx, self.y1 + v.dy)


@dataclass(frozen=True, order=True, slots=True)
class ContactComponent:
    """A maximal point or axis-parallel segment of shared boundary."""

    kind: str
    a: tuple[int, int]
    b: tuple[int, int]
    length: int

    def __post_init__(self) -> None:
        if self.kind == POINT:
            consistent = self.a == self.b and self.length == 0
        elif self.kind == HSEG:
            consistent = self.a[1] == self.b[1] and self.b[0] - self.a[0] == self.length >= 1
        elif self.kind == VSEG:
            consistent = self.a[0] == self.b[0] and self.b[1] - self.a[1] == self.length >= 1
        else:
            raise ParameterError(f"unknown component kind {_show(self.kind)}")
        if not consistent:
            a, b = (", ".join(map(_show, p)) for p in (self.a, self.b))
            length = _show(self.length)
            raise ParameterError(f"inconsistent {self.kind} ({a})-({b}) of length {length}")


def point_component(p: tuple[int, int]) -> ContactComponent:
    return ContactComponent(POINT, p, p, 0)


def hseg(y: int, xa: int, xb: int) -> ContactComponent:
    return ContactComponent(HSEG, (xa, y), (xb, y), xb - xa)


def vseg(x: int, ya: int, yb: int) -> ContactComponent:
    return ContactComponent(VSEG, (x, ya), (x, yb), yb - ya)


def bounding_box(rects: Iterable[Rect]) -> Rect:
    """Smallest rect containing every rect of a nonempty collection."""
    rs = list(rects)
    x0, y0 = min(r.x0 for r in rs), min(r.y0 for r in rs)
    return Rect(x0, y0, max(r.x1 for r in rs), max(r.y1 for r in rs))


_LIMIT = 2**61
# rows [x, y0, y1] of vertical, [y, x0, x1] of horizontal and [x, y] of point contacts
_Contacts = tuple[list[list[int]], list[list[int]], list[list[int]]]


def _rect_array(rects: Iterable[Rect]) -> np.ndarray:
    """Rects as a (k, 4) int64 array of rows [x0, y0, x1, y1]."""
    try:
        return np.array([(r.x0, r.y0, r.x1, r.y1) for r in rects], dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        raise RangeError("rect coordinates exceed the int64 sweep bound 2**61") from None


def _sweep(A: np.ndarray, B: np.ndarray) -> Optional[_Contacts]:
    """Touching pairs of two (k, 4) int64 rect arrays, or None on interior overlap.

    B is sorted by x0; each rect a of A is paired with the B rects whose x0
    lies in [a.x0 - max width of B, a.x1], which holds every B rect whose
    closed x-range meets a's.  All closed intersections are taken at once;
    one open in both axes is an interior overlap.  Only the touching pairs
    go back to Python ints.  Coordinates with |v| >= 2**61 raise RangeError,
    so every width, window bound and intersection fits in int64.
    """
    for arr in (A, B):
        if arr.size and (arr.min() <= -_LIMIT or arr.max() >= _LIMIT):
            raise RangeError("rect coordinates exceed the int64 sweep bound 2**61")
    if not len(A) or not len(B):
        return [], [], []
    B = B[np.argsort(B[:, 0], kind="stable")]
    lo = np.searchsorted(B[:, 0], A[:, 0] - (B[:, 2] - B[:, 0]).max(), "left")
    hi = np.searchsorted(B[:, 0], A[:, 2], "right")
    counts = hi - lo
    ia = np.repeat(np.arange(len(A)), counts)
    ib = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    low = np.maximum(A[ia, :2], B[ib, :2])
    high = np.minimum(A[ia, 2:], B[ib, 2:])
    gap = high - low
    if (gap > 0).all(axis=1).any():
        return None
    meet = (gap >= 0).all(axis=1)
    low, high, gap = low[meet], high[meet], gap[meet]
    flat_x, flat_y = gap[:, 0] == 0, gap[:, 1] == 0
    vertical = np.column_stack((low[:, 0], low[:, 1], high[:, 1]))[flat_x & ~flat_y]
    horizontal = np.column_stack((low[:, 1], low[:, 0], high[:, 0]))[flat_y & ~flat_x]
    return vertical.tolist(), horizontal.tolist(), low[flat_x & flat_y].tolist()


def union_interiors_disjoint(A: list[Rect], B: list[Rect]) -> bool:
    """True iff no rect of A interior-overlaps any rect of B.

    Raises RangeError for coordinates with |v| >= 2**61.
    """
    return _sweep(_rect_array(A), _rect_array(B)) is not None


def _merge_lines(rows: Iterable[tuple[int, int, int]]) -> dict[int, list[tuple[int, int]]]:
    """Rows (line, lo, hi) merged into maximal sorted runs per line; runs that
    overlap or share an endpoint merge."""
    lines: dict[int, list[tuple[int, int]]] = {}
    for line, lo, hi in sorted(rows):
        runs = lines.setdefault(line, [])
        if runs and lo <= runs[-1][1]:
            runs[-1] = (runs[-1][0], max(runs[-1][1], hi))
        else:
            runs.append((lo, hi))
    return lines


def _on_runs(runs: list[tuple[int, int]], v: int) -> bool:
    """True iff v lies in one of the sorted, disjoint closed runs."""
    i = bisect_right(runs, v, key=itemgetter(0))
    return i > 0 and v <= runs[i - 1][1]


def _components(contacts: _Contacts) -> list[ContactComponent]:
    """Touching pairs from _sweep as maximal components in canonical order."""
    vertical, horizontal, points = contacts
    verticals, horizontals = _merge_lines(vertical), _merge_lines(horizontal)
    components = [vseg(x, ya, yb) for x, runs in verticals.items() for ya, yb in runs]
    components += [hseg(y, xa, xb) for y, runs in horizontals.items() for xa, xb in runs]
    for x, y in set(map(tuple, points)):
        if not (_on_runs(verticals.get(x, []), y) or _on_runs(horizontals.get(y, []), x)):
            components.append(point_component((x, y)))
    return sorted(components, key=lambda c: (c.kind, c.a, c.b))


def contact_components(A: list[Rect], B: list[Rect]) -> list[ContactComponent]:
    """All maximal contact components between the unions of A and B.

    Collinear touching segments are merged; a point lying on some segment is
    absorbed by it.  Output order is canonical: sorted by (kind, a, b).
    Raises RangeError for coordinates with |v| >= 2**61.
    """
    contacts = _sweep(_rect_array(A), _rect_array(B))
    if contacts is None:
        raise ContractViolation("unions have overlapping interiors")
    return _components(contacts)


def total_contact_length(components: list[ContactComponent]) -> int:
    """Summed length of segment components; points contribute nothing."""
    return sum(c.length for c in components)
