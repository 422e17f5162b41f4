"""Construction of the staircase disks and their recursive sub-copy structure.

A disk with parameters (m, n) is the union of 2^n horizontal bars of size
m x 1 and 2^n - 1 vertical connectors of width 1, where connector i has
height ruler(i).  Bars i and i+1 are joined through connector i, so the
whole union is a topological disk whose pieces form a single path.  The
(m, 0) disk is one bar, and the (m, k) disk is two (m, k - 1) disks joined
by a connector.  A piece's role and index are its position in the path:
piece k is bar k // 2 + 1 when k is even and connector k // 2 + 1 when k
is odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, _show
from .rect import _LIMIT, Rect, Vec2
from .ruler import ruler_sum

MAX_N = 20  # 2^21 - 1 pieces; much beyond that, building the disk exhausts memory


@dataclass(frozen=True)
class Shape:
    """The (m, n) disk, checked on creation.  Its rects, in path order B1, V1,
    B2, ..., B_{2^n}, are derived from (m, n) in closed form on first use."""

    m: int
    n: int

    def __post_init__(self) -> None:
        _check_disk_params(self.m, self.n)

    @cached_property
    def pieces(self) -> tuple[Rect, ...]:
        m, bars = self.m, 2**self.n
        pieces: list[Rect] = []
        for i in range(1, bars + 1):
            y = ruler_sum(i - 1)
            pieces.append(Rect((i - 1) * m, y, i * m, y + 1))
            if i < bars:
                pieces.append(Rect(i * m - 1, y + 1, i * m, ruler_sum(i) + 1))
        return tuple(pieces)

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
    if not 0 <= ref.level <= n:
        raise ParameterError(f"level {_show(ref.level)} out of range 0..{n}")
    if not 1 <= ref.copy <= 2 ** (n - ref.level):
        raise ParameterError(
            f"copy {_show(ref.copy)} out of range 1..{2 ** (n - ref.level)} at level {ref.level}"
        )


def _check_disk_params(m: int, n: int) -> None:
    if m < 2:
        raise ParameterError(f"need bar width m >= 2, got {_show(m)}")
    if n < 0:
        raise ParameterError(f"need n >= 0, got {_show(n)}")
    if n > MAX_N:
        raise ParameterError(f"n={_show(n)} exceeds the supported maximum {MAX_N}")
    # every coordinate of the disk and its translates lies below m * 2^(n+1)
    if m * 2 ** (n + 1) >= _LIMIT:
        raise ParameterError(f"m * 2**{n + 1} reaches the coordinate bound 2**61")


def build_disk(m: int, n: int) -> Shape:
    """The (m, n) disk: ParameterError unless m >= 2, 0 <= n <= MAX_N, m 2^(n+1) < 2^61."""
    return Shape(m, n)


def _column_profile(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell range [lo[c], hi[c]) of each unit column c of the (m, n) disk, as
    build_disk lays it out: bar i + 1 at height S(i) = ruler_sum(i), and connector
    i (1 <= i < 2^n) in column i m - 1 up to S(i) + 1.  The caller checks m, n."""
    sums = np.fromiter(map(ruler_sum, range(2**n)), np.int64, 2**n)
    lo = np.repeat(sums, m)
    hi = lo + 1
    hi[m - 1 :: m][:-1] = sums[1:] + 1
    return lo, hi


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
