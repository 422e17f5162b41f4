"""Exact integer axis-aligned rectangle primitives.

Closed-rectangle semantics throughout: two rects "touch" when their closed
intersection is nonempty while their interiors are disjoint.  All
coordinates are Python ints, so every test here is exact.  The pairwise
sweep runs on int64 numpy arrays; it only compares, takes max/min and
subtracts, and it rejects any coordinate with |v| >= 2**61 (RangeError), so
it stays exact too.  Both verifiers reach it through _placed_contacts, two
copies of one rect array at two offsets; union_interiors_disjoint and
contact_components wrap it for Rect lists, and no package code calls them.

A contact is the closed segment between its ends a and b, a point if a == b.
The sweep puts each touching pair on the line of its zero x-gap and on the
line of its zero y-gap, so a point contact lies on both of its lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """A maximal point or axis-parallel segment of shared boundary, given by
    its ends: a point when a == b, else a segment from a up or to the right
    to b.  kind and length are derived from the ends."""

    kind: str = field(init=False)
    a: tuple[int, int]
    b: tuple[int, int]
    length: int = field(init=False)

    def __post_init__(self) -> None:
        (xa, ya), (xb, yb) = self.a, self.b
        if ya == yb and xa < xb:
            kind = HSEG
        elif xa == xb and ya < yb:
            kind = VSEG
        elif self.a == self.b:
            kind = POINT
        else:
            a, b = (", ".join(map(_show, p)) for p in (self.a, self.b))
            raise ParameterError(f"contact ({a})-({b}) is not a point or a segment going up or right")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "length", xb - xa + yb - ya)


_LIMIT = 2**61
# rows [x, y0, y1] of contacts with zero x-gap and [y, x0, x1] of those with zero y-gap
_Contacts = tuple[list[list[int]], list[list[int]]]


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
        return [], []
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
    vertical = np.column_stack((low[:, 0], low[:, 1], high[:, 1]))[gap[:, 0] == 0]
    horizontal = np.column_stack((low[:, 1], low[:, 0], high[:, 0]))[gap[:, 1] == 0]
    return vertical.tolist(), horizontal.tolist()


def union_interiors_disjoint(A: list[Rect], B: list[Rect]) -> bool:
    """True iff no rect of A interior-overlaps any rect of B.

    Raises RangeError for coordinates with |v| >= 2**61.
    """
    return _sweep(_rect_array(A), _rect_array(B)) is not None


def _merge_lines(rows: Iterable[list[int]]) -> list[list[int]]:
    """Rows [line, lo, hi] merged into the maximal runs of each line, sorted;
    runs that overlap or share an endpoint merge.  Each run is the first of
    its rows, extended in place, so rows must be lists the caller gives up."""
    runs: list[list[int]] = []
    for row in sorted(rows):
        if runs and row[0] == runs[-1][0] and row[1] <= runs[-1][2]:
            runs[-1][2] = max(runs[-1][2], row[2])
        else:
            runs.append(row)
    return runs


def _components(contacts: _Contacts) -> list[ContactComponent]:
    """Touching pairs from _sweep as maximal components in canonical order; a
    point is a zero-length run that merging leaves alone on both its lines."""
    vertical, horizontal = map(_merge_lines, contacts)
    lone = {(x, y) for x, y, y1 in vertical if y == y1}
    lone &= {(x, y) for y, x, x1 in horizontal if x == x1}
    components = [ContactComponent(p, p) for p in lone]
    components += [ContactComponent((x, ya), (x, yb)) for x, ya, yb in vertical if ya < yb]
    components += [ContactComponent((xa, y), (xb, y)) for y, xa, xb in horizontal if xa < xb]
    return sorted(components, key=lambda c: (c.kind, c.a, c.b))


def _placed_contacts(rows: np.ndarray, a: Vec2, b: Vec2) -> Optional[tuple[ContactComponent, ...]]:
    """Contacts between two copies of the (k, 4) rect array rows placed at
    offsets a and b, in _components' order, or None on interior overlap."""
    raw = _sweep(rows + (a.dx, a.dy, a.dx, a.dy), rows + (b.dx, b.dy, b.dx, b.dy))
    return None if raw is None else tuple(_components(raw))


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
