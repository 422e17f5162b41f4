"""Construction of the staircase disks and their recursive sub-copy structure.

A disk with parameters (m, n) is the union of 2^n horizontal bars of size
m x 1 and 2^n - 1 vertical connectors of width 1, where connector i has
height ruler(i).  Bars i and i+1 are joined through connector i, so the
whole union is a topological disk whose pieces form a single path.  The
(m, 0) disk is one bar, and the (m, k) disk is two (m, k - 1) disks joined
by a connector.  A piece's role and index are its position in the path:
piece k is bar k // 2 + 1 when k is even and connector k // 2 + 1 when k
is odd.  The pieces are the rows of one int64 array computed in closed form
from the ruler sums S(i) = 2i - popcount(i); Rect objects are made only for
callers that ask for `pieces`.  _staircase_heights, the check that rows
are that staircase, and _placed_ends, the sweep of two placed copies, both
called by both verifiers, rest on that layout and live here beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, _int_in
from .rect import _LIMIT, _NO_ENDS, Rect, Vec2, _canonical, _in_bound, _pairs
from .ruler import _ruler_sums, ruler_sum

MAX_N = 20  # 2^21 - 1 pieces; much beyond that, building the disk exhausts memory
_CHUNK = 2**16  # rows per % call where a disk's rows are formatted, so few of tolist's ints are alive at once


@dataclass(frozen=True)
class Shape:
    """The (m, n) disk, checked on creation.  Its rects, in path order B1, V1,
    B2, ..., B_{2^n}, are the `rows` of one read-only int64 array derived from
    (m, n) in closed form on first use; `pieces` holds them as Rects."""

    m: int
    n: int

    def __post_init__(self) -> None:
        _check_disk_params(self.m, self.n)

    @cached_property
    def rows(self) -> np.ndarray:
        """Read-only (2^(n+1) - 1, 4) int64 rows [x0, y0, x1, y1] in path
        order, _staircase_rows at the ruler sums S(i): bar i + 1 is [i m,
        S(i), (i + 1) m, S(i) + 1] and connector i rises from S(i - 1) + 1 to
        S(i) + 1 in column i m - 1.  The array is in Fortran order, so each
        of its four columns is contiguous."""
        rows = _staircase_rows(self.m, _ruler_sums(2**self.n))
        rows.flags.writeable = False
        return rows

    @cached_property
    def pieces(self) -> tuple[Rect, ...]:
        return tuple(Rect(*r) for r in self.rows.tolist())

    def rects(self) -> list[Rect]:
        return list(self.pieces)

    def bounding_box(self) -> Rect:
        """Bar 1 starts at the origin; the last bar, the highest, ends the box."""
        return Rect(0, 0, self.m * 2**self.n, ruler_sum(2**self.n - 1) + 1)


@dataclass(frozen=True)
class SubCopyRef:
    """Copy number `copy` among the 2^(n-level) sub-disks at a given level.

    level k addresses the tiling of the bars by 2^(n-k) translates of the
    (m, k) disk; level 0 addresses single bars, each the (m, 0) disk.
    """

    level: int
    copy: int


def _validate_ref(n: int, ref: SubCopyRef) -> None:
    _int_in("level", ref.level, 0, n)
    _int_in("copy", ref.copy, 1, 2 ** (n - ref.level))


def _check_disk_params(m: int, n: int, n_min: int = 0) -> None:
    """ParameterError unless m >= 2, n_min <= n <= MAX_N and m 2^(n+1) < 2^61,
    m and n being ints: a float or a bool would reach every coordinate."""
    _int_in("m", m, 2)
    _int_in("n", n, n_min, MAX_N)
    # every coordinate of the disk and its translates lies below m * 2^(n+1)
    if m * 2 ** (n + 1) >= _LIMIT:
        raise ParameterError(f"m * 2**{n + 1} reaches the coordinate bound 2**61")


def build_disk(m: int, n: int) -> Shape:
    """The (m, n) disk: ParameterError unless m >= 2, 0 <= n <= MAX_N, m 2^(n+1) < 2^61."""
    return Shape(m, n)


def _staircase_rows(m: int, heights: np.ndarray) -> np.ndarray:
    """The (2 len(heights) - 1, 4) int64 rows, in Fortran order, of the
    staircase of bars of width m at the int64 heights H, in Shape.rows'
    layout: bar i + 1 at H(i), connector i up to H(i) + 1."""
    x, s = np.arange(len(heights), dtype=np.int64) * m, heights
    rows = np.empty((2 * len(s) - 1, 4), np.int64, order="F")
    # each column is contiguous, so it is filled in place, bars and
    # connectors alternating, with no row-major temporary
    for column, bar, connector in zip(rows.T, (x, s, x + m, s + 1), (x[1:] - 1, s[:-1] + 1, x[1:], s[1:] + 1)):
        column[0::2], column[1::2] = bar, connector
    return rows


def _staircase_heights(rows: np.ndarray, m: int, n: int) -> np.ndarray | None:
    """H, the bar heights rows[0::2, 1] of 2^n bars, if rows are exactly
    _staircase_rows(m, H) with H(0) = 0 and every term H(i) - H(i - 1) at
    least 1, as the ruler's are; else None.  It takes O(rows).  Both
    verifiers check the disk's rows by it."""
    if rows.shape != (2 ** (n + 1) - 1, 4):
        return None
    heights = rows[0::2, 1]
    if heights[0] or np.diff(heights).min() < 1:
        return None
    return heights if np.array_equal(rows, _staircase_rows(m, heights)) else None


def _x_window(m: int, count: int, x0, x1) -> tuple[np.ndarray, np.ndarray]:
    """The index range [lo, hi) of a disk's count rows in path order whose
    closed x-ranges meet [x0, x1], in closed form from the bar width m: bar
    i + 1 is [i m, (i + 1) m] and connector i is [i m - 1, i m], so 2
    floor((x0 - 1) / m) rows have x1 < x0 and floor(x1 / m) + floor((x1 + 1)
    / m) + 1 rows have x0 <= x1; lo is raised to 0 and hi cut to count.
    Scalars give one range, arrays one range per box."""
    return np.maximum(2 * ((x0 - 1) // m), 0), np.minimum(x1 // m + (x1 + 1) // m + 1, count)


def _placed_ends(rows: np.ndarray, a: Vec2, b: Vec2) -> np.ndarray | None:
    """The (k, 4) int64 ends [xa, ya, xb, yb] of the contacts between two
    copies of a disk's rows, Shape.rows, placed at offsets a and b, in
    canonical order, or None on interior overlap.

    The rows are nondecreasing in each column, so each copy's extremes are
    its first and last rows, where the 2**61 bound is checked.  The sweep
    runs in B's frame: B is the rows' four columns, not copied, A the rows
    moved by a - b, and the ends are moved by b at the end; with |rows| <
    2**61, A fits in int64, and every gap taken is one between the placed
    copies.  A is cut to the rows that meet B's bounding box, which keeps
    each of their x-windows (_x_window) nonempty and inside the rows.  Each
    row meets the next in y, so the rows of a window [lx, hx) cover [Y0[lx],
    Y1[hx - 1]] in y: a rect of A is kept only if it meets that cover, and
    only kept rects search B's y columns for their windows.  A pair with no
    kept rect has no contact.
    """
    corners = rows[[0, -1]]
    _in_bound(corners + (a.dx, a.dy, a.dx, a.dy))
    _in_bound(corners + (b.dx, b.dy, b.dx, b.dy))
    (x0, y0, bar_x1, _), (_, _, x1, y1) = corners.tolist()
    X0, Y0, X1, Y1 = B = rows.T
    m, d = bar_x1 - x0, a - b
    lx, hx = _x_window(m, len(rows), x0 - d.dx, x1 - d.dx)
    first = max(lx, np.searchsorted(Y1, y0 - d.dy, "left"))
    last = min(hx, np.searchsorted(Y0, y1 - d.dy, "right"))
    cut = slice(first, max(first, last))  # hx < 0 once B lies 2 or more units left of A
    lx, hx = _x_window(m, len(rows), X0[cut] + d.dx, X1[cut] + d.dx)
    near = Y0.take(lx) <= Y1[cut] + d.dy
    near &= Y1.take(hx - 1) >= Y0[cut] + d.dy
    keep = np.flatnonzero(near)
    if not len(keep):
        return _NO_ENDS
    A = [c[cut].take(keep) + v for c, v in zip(B, (d.dx, d.dy, d.dx, d.dy))]
    lo = np.maximum(lx.take(keep), np.searchsorted(Y1, A[1], "left"))
    hi = np.minimum(hx.take(keep), np.searchsorted(Y0, A[3], "right"))
    raw = _pairs(A, B, lo, hi)
    return None if raw is None else _canonical(raw) + (b.dx, b.dy, b.dx, b.dy)


def sub_copy_offset(m: int, n: int, ref: SubCopyRef) -> Vec2:
    """Translation placing the origin of a level-k disk at its copy's spot."""
    _check_disk_params(m, n)
    _validate_ref(n, ref)
    first = (ref.copy - 1) * 2**ref.level
    return Vec2(first * m, ruler_sum(first))


def extract_sub_copy(shape: Shape, ref: SubCopyRef) -> Shape:
    """One sub-copy, moved so its first bar sits at the origin.  Every level-k
    sub-copy is the (m, k) disk, an identity tests/oracles.py checks by slicing."""
    _validate_ref(shape.n, ref)
    return Shape(shape.m, ref.level)
