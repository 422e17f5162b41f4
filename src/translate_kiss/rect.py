"""Exact integer axis-aligned rectangle primitives.

Closed-rectangle semantics throughout: two rects "touch" when their closed
intersection is nonempty while their interiors are disjoint.  A Rect's
corners and a contact's ends must be ints (ParameterError for a float or a
bool), so every test here is exact.  The pairwise sweep runs on int64 numpy
arrays; it only compares, takes max/min and subtracts, and it rejects any
coordinate with |v| >= 2**61 (RangeError), so it stays exact too.  One pair
core (_pairs) pairs each rect of A with a window of B rows and works on
contiguous int64 columns, each gathered by one take: the closed
intersections' corners by elementwise maximum and minimum, their gaps by
subtraction, and no reduction along a row.  The caller makes the windows.
_sweep, for Rect lists in any order, sorts B's columns by x0 and pads each
window by B's widest rect, so it bounds the window in x only;
union_interiors_disjoint and contact_components wrap it, and no package
code calls them.  The verifiers' sweep of two placed copies of one disk
lives in disk, beside the row layout that its windows rest on.  Blocks
that build many acyclic objects (_bulk's contacts, decoded JSON) run under
_gc_paused, so the cyclic garbage collector does not walk them again and
again.

A contact is the closed segment between its ends a and b, a point if a == b.
The sweep puts each touching pair on the line of its zero x-gap and on the
line of its zero y-gap, so a point contact lies on both of its lines.  From
the sweep to the contacts everything stays an int64 array: the rows of each
line are merged into maximal runs as a union of closed intervals, with the
starts and the ends sorted apart (_merge), a point is a zero-length run on
both of its lines, found by one sort of the zero-length runs' cells, and
the runs are put in canonical order by one sort per kind (_canonical), as
rows of ends [xa, ya, xb, yb].  Each row's kind comes from two comparisons
of its ends (_kinds), the rule that ContactComponent applies to one
contact; the writer and _bulk, which turns the rows into ContactComponent
tuples in one step without per-contact checks, each take it from the rows
they are given.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import ContractViolation, ParameterError, RangeError, _int_in, _show

POINT = "point"
HSEG = "horizontal-segment"
VSEG = "vertical-segment"
# a contact's kind, indexed by 1 - (xb > xa) + (yb > ya) (_kinds)
_KIND_NAMES = np.array([HSEG, POINT, VSEG], dtype=object)


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
        for name, value in zip(("x0", "y0", "x1", "y1"), (self.x0, self.y0, self.x1, self.y1)):
            _int_in(name, value)
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


class ContactComponent(tuple):
    """A maximal point or axis-parallel segment of shared boundary, given by
    its ends: a point when a == b, else a segment from a up or to the right
    to b.  kind and length are derived from the ends.  It is the immutable
    tuple (kind, a, b, length), so it compares, hashes and sorts as that tuple."""

    __slots__ = ()

    def __new__(cls, a: tuple[int, int], b: tuple[int, int]) -> "ContactComponent":
        (xa, ya), (xb, yb) = a, b
        for name, value in zip(("xa", "ya", "xb", "yb"), (xa, ya, xb, yb)):
            _int_in(name, value)
        if not (xa <= xb and ya <= yb and (xa == xb or ya == yb)):
            a, b = (", ".join(map(_show, p)) for p in (a, b))
            raise ParameterError(f"contact ({a})-({b}) is not a point or a segment going up or right")
        kind = _KIND_NAMES[1 - (xb > xa) + (yb > ya)]
        return tuple.__new__(cls, (kind, (xa, ya), (xb, yb), xb - xa + yb - ya))

    # fields read by index in C, so reading one runs no Python code
    kind = property(itemgetter(0), doc="POINT, HSEG or VSEG")
    a = property(itemgetter(1), doc="the lower or left end")
    b = property(itemgetter(2), doc="the upper or right end")
    length = property(itemgetter(3), doc="|b - a|, 0 for a point")

    def __getnewargs__(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return self[1], self[2]

    def __repr__(self) -> str:
        return "ContactComponent(kind=%r, a=%r, b=%r, length=%r)" % self


_LIMIT = 2**61
# 1-D int64 columns of equal length: rects (x0, y0, x1, y1), line rows (line, lo, hi)
_Columns = tuple[np.ndarray, ...]
# line rows (x, y0, y1) of contacts with zero x-gap and (y, x0, x1) of those with zero y-gap
_Contacts = tuple[_Columns, _Columns]
# the ends of no contacts, as (0, 4) int64 rows [xa, ya, xb, yb]
_NO_ENDS = np.empty((0, 4), np.int64)
_NO_ENDS.flags.writeable = False


def _rect_array(rects: Iterable[Rect]) -> np.ndarray:
    """Rects as a (k, 4) int64 array of rows [x0, y0, x1, y1]."""
    try:
        return np.array([(r.x0, r.y0, r.x1, r.y1) for r in rects], dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        raise RangeError("rect coordinates exceed the int64 sweep bound 2**61") from None


def _in_bound(arr: np.ndarray) -> None:
    if arr.size and (arr.min() <= -_LIMIT or arr.max() >= _LIMIT):
        raise RangeError("coordinates exceed the int64 sweep bound 2**61")


def _pairs(A: _Columns, B: _Columns, lo: np.ndarray, hi: np.ndarray) -> Optional[_Contacts]:
    """Touching pairs of the rects with columns A and B, or None on interior
    overlap, where rect a of A is paired with B rows lo[a] <= k < hi[a] (an
    empty window when hi[a] <= lo[a]), a window that holds every B rect whose
    closed box meets a's.  Each column is gathered by one take, and all
    closed intersections are taken at once: their corners by elementwise
    maximum and minimum, and their gaps gx, gy as differences.  One open in
    both axes is an interior overlap; one with gx == 0 lies on a vertical
    line and one with gy == 0 on a horizontal line.  The caller bounds the
    coordinates so that every difference of two fits in int64."""
    counts = np.maximum(hi - lo, 0)
    ia = np.repeat(np.arange(len(lo)), counts)
    ib = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    x0, y0, x1, y1 = (c.take(ia) for c in A)
    for f, a, b in zip((np.maximum, np.maximum, np.minimum, np.minimum), (x0, y0, x1, y1), B):
        f(a, b.take(ib), out=a)
    gx, gy = x1 - x0, y1 - y0
    if ((gx > 0) & (gy > 0)).any():
        return None
    meet = (gx >= 0) & (gy >= 0)
    vertical, horizontal = meet & (gx == 0), meet & (gy == 0)
    return (x0[vertical], y0[vertical], y1[vertical]), (y0[horizontal], x0[horizontal], x1[horizontal])


def _sweep(A: np.ndarray, B: np.ndarray) -> Optional[_Contacts]:
    """Touching pairs of two (k, 4) int64 rect arrays in any order, or None
    on interior overlap.

    B is sorted by x0; each rect a of A is paired with the B rects whose x0
    lies in [a.x0 - max width of B, a.x1], which holds every B rect whose
    closed x-range meets a's.  Coordinates with |v| >= 2**61 raise
    RangeError, so every width and window bound fits in int64.
    """
    _in_bound(A)
    _in_bound(B)
    if not len(A) or not len(B):
        none = (np.empty(0, np.int64),) * 3
        return none, none
    B = B.T.take(np.argsort(B[:, 0], kind="stable"), axis=1)
    lo = np.searchsorted(B[0], A[:, 0] - (B[2] - B[0]).max(), "left")
    hi = np.searchsorted(B[0], A[:, 2], "right")
    return _pairs(np.ascontiguousarray(A.T), B, lo, hi)


def union_interiors_disjoint(A: list[Rect], B: list[Rect]) -> bool:
    """True iff no rect of A interior-overlaps any rect of B.

    Raises RangeError for coordinates with |v| >= 2**61.
    """
    return _sweep(_rect_array(A), _rect_array(B)) is not None


def _merge(rows: _Columns) -> _Columns:
    """Line rows, columns (line, lo, hi) with lo <= hi, merged into the
    maximal runs of each line and sorted by (line, lo); runs that overlap or
    share an endpoint merge.

    The union of closed intervals: with the starts sorted by (line, lo) and,
    apart from them, the ends by (line, hi), start k begins a run where the
    line changes or lo[k] > hi[k - 1], and a run ends at the last end before
    the next run begins.
    """
    if not len(rows[0]):
        return rows
    line, lo, hi = rows
    by_lo, by_hi = np.lexsort((lo, line)), np.lexsort((hi, line))
    line, lo, hi = line.take(by_lo), lo.take(by_lo), hi.take(by_hi)
    start = np.ones(len(line), bool)
    start[1:] = (line[1:] != line[:-1]) | (lo[1:] > hi[:-1])
    return line[start], lo[start], hi[np.append(start[1:], True)]


# builds a ContactComponent from its four fields without __new__'s checks
_trusted = partial(tuple.__new__, ContactComponent)


def _kinds(ends: np.ndarray) -> np.ndarray:
    """The kind of each (k, 4) int64 row of ends [xa, ya, xb, yb] of a point
    or a segment going up or right, as an index into _KIND_NAMES: 0, 1 or 2
    for a horizontal segment, a point or a vertical segment.

    With right = xb > xa and up = yb > ya, a row's kind is 1 - right + up.
    The ends are compared, not subtracted, so no row can overflow."""
    xa, ya, xb, yb = ends.T
    return 1 - (xb > xa) + (yb > ya)


def _lengths(ends: np.ndarray) -> np.ndarray:
    """|b - a| for each (k, 4) int64 row of ends [xa, ya, xb, yb] of a point
    or a segment going up or right."""
    return ends[:, 2] - ends[:, 0] + ends[:, 3] - ends[:, 1]


def _bulk(ends: np.ndarray) -> tuple[ContactComponent, ...]:
    """Contacts from (k, 4) int64 rows of ends [xa, ya, xb, yb] of points and
    segments going up or right, built with the cyclic collector paused."""
    if not len(ends):
        return ()
    xa, ya, xb, yb = ends.T.tolist()
    names = _KIND_NAMES[_kinds(ends)].tolist()
    with _gc_paused():  # the contacts hold no cycles
        return tuple(map(_trusted, zip(names, zip(xa, ya), zip(xb, yb), _lengths(ends).tolist())))


@contextmanager
def _gc_paused() -> Iterator[None]:
    """The cyclic garbage collector off for the block, then enabled again
    only if it was enabled before.  For blocks that build many acyclic
    objects, which reference counting frees and each collector pass walks
    in vain."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _canonical(contacts: _Contacts) -> np.ndarray:
    """Touching pairs from _pairs as the (k, 4) int64 ends [xa, ya, xb, yb] of
    the maximal components in canonical order, sorted by (kind, a, b); a
    point is a zero-length run that merging leaves alone on both its lines.

    Merged runs of one line are disjoint, so a cell (x, y) is a zero-length
    run at most once per kind: after one sort of all such cells by (x, y), a
    point is a cell equal to the one after it."""
    (vx, vy0, vy1), (hy, hx0, hx1) = map(_merge, contacts)
    v_zero, h_zero = vy0 == vy1, hx0 == hx1
    x = np.concatenate((vx[v_zero], hx0[h_zero]))
    y = np.concatenate((vy0[v_zero], hy[h_zero]))
    order = np.lexsort((y, x))
    x, y = x.take(order), y.take(order)
    twice = np.flatnonzero((x[1:] == x[:-1]) & (y[1:] == y[:-1]))
    px, py = x.take(twice), y.take(twice)  # the points, sorted by (x, y)
    hy, hx0, hx1 = hy[~h_zero], hx0[~h_zero], hx1[~h_zero]
    order = np.lexsort((hy, hx0))  # the horizontal segments by (xa, y): runs of one line are disjoint
    hy, hx0, hx1 = hy.take(order), hx0.take(order), hx1.take(order)
    vx, vy0, vy1 = vx[~v_zero], vy0[~v_zero], vy1[~v_zero]  # _merge sorted them by (x, ya), and ya fixes yb
    return np.column_stack(
        [np.concatenate(c) for c in ((hx0, px, vx), (hy, py, vy0), (hx1, px, vx), (hy, py, vy1))]
    )


def contact_components(A: list[Rect], B: list[Rect]) -> list[ContactComponent]:
    """All maximal contact components between the unions of A and B.

    Collinear touching segments are merged; a point lying on some segment is
    absorbed by it.  Output order is canonical: sorted by (kind, a, b).
    Raises RangeError for coordinates with |v| >= 2**61.
    """
    contacts = _sweep(_rect_array(A), _rect_array(B))
    if contacts is None:
        raise ContractViolation("unions have overlapping interiors")
    return list(_bulk(_canonical(contacts)))


def total_contact_length(components: list[ContactComponent]) -> int:
    """Summed length of segment components; points contribute nothing."""
    return sum(map(attrgetter("length"), components))
