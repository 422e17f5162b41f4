"""Placement of the n+1 translates and generation of disjointness test cases.

The translates A_1..A_n follow the recursion: the leftmost level-(n+1-i)
sub-copy of A_i coincides with the second such sub-copy of A_{i-1} shifted
right by one and down by one.  Summed from A_1 at the origin, it puts A_i
at (m (2^n - 2^(n+1-i)) + i - 1, 2 (2^n - 2^(n+1-i) - i + 1)), the closed
form a Scene uses.  A_0 is A_1 shifted down by n+1.  The paper takes
m >= n, so each pair witness's step j - i < n is in Lemma 2's range
1..m - 1, but a Scene takes any m >= 2.

Argued, and checked by test_facing_reduction for 3 <= n <= 11: with
L = n + 1 - j, A_j's first level-L sub-copy is A_0's last level-L sub-copy
D moved by (j - 1, L + 1).  The rest of A_0 lies in columns left of D, and
for j >= 2 the rest of A_j in columns right of D (for j = 1, D is all of
A_0), so A_0 and A_j overlap iff the (m, L) disk overlaps its copy moved
by (j - 1, L + 1).  Measured for 3 <= n <= 13 and 2 <= m <= n + 1, not
proved: (0, j) overlaps iff L = n + 1 - j >= 2 and m + 1 <= j <= c(L) m + 1,
c(L) = max{t : S(t - 1) <= L + 1} for the ruler prefix sum S, and no other
pair does, so the construction passes iff m >= n - 1 (at m = n - 2 only
(0, n - 1) overlaps; CI pins n = 16, 20).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Iterator

import numpy as np

from .disk import SubCopyRef, _check_disk_params, _column_profile, sub_copy_offset
from .errors import ConstructionBroken, ContractViolation, ParameterError, _int_in
from .rect import Vec2
from .ruler import ruler_sum

MAX_LEMMA2_WORK = 2**35  # (shift, column) pairs compared; (14, 14) compares 2.6e10, (15, 15) 1.2e11
# elements of the (shifts, columns) arrays of one check_lemma2_exhaustive pass
_BLOCK = 2**16


@dataclass(frozen=True)
class Scene:
    """The translates A_0..A_n of the (m, n) disk, checked on creation; their
    offsets are the closed form above."""

    m: int
    n: int
    offsets: tuple[Vec2, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        m, n = self.m, self.n
        _check_disk_params(m, n, 2)
        # A_(k+1) sits at (m s + k, 2 (s - k)), where s = 2^n - 2^(n-k)
        offsets = (Vec2(m * s + k, 2 * (s - k)) for k, s in enumerate(2**n - 2 ** (n - k) for k in range(n)))
        object.__setattr__(self, "offsets", (Vec2(0, -(n + 1)), *offsets))


@dataclass(frozen=True)
class Lemma2Case:
    """One instance of the stepping-disjointness lemma.

    The second translate's first bar is bar r of the first translate,
    shifted right by xstar and down by ystar.
    """

    m: int
    n: int
    r: int
    xstar: int
    ystar: int

    def __post_init__(self) -> None:
        _check_disk_params(self.m, self.n, 2)
        _int_in("bar index r", self.r, 1, 2**self.n)
        _int_in("xstar", self.xstar, 1, self.m - 1)
        _int_in("ystar", self.ystar, 1)

    @property
    def offset(self) -> Vec2:
        """Shift of the second translate: bar r's corner, right xstar, down ystar."""
        return Vec2((self.r - 1) * self.m + self.xstar, ruler_sum(self.r - 1) - self.ystar)


def place_translates(m: int, n: int) -> Scene:
    """The (m, n) scene, for n >= 2 and a disk's (m, n); it passes iff m >= n - 1 (measured)."""
    return Scene(m, n)


def _last_ystar(n: int) -> int:
    """One above the top of the last bar: from here on the boxes are apart."""
    return ruler_sum(2**n - 1) + 2


def iter_lemma2_cases(m: int, n: int) -> Iterator[Lemma2Case]:
    """All cases worth testing: beyond ystar = height + 1 the bounding
    boxes are vertically disjoint and every case is vacuous."""
    _check_disk_params(m, n, 2)
    last = _last_ystar(n)
    for r in range(1, 2**n + 1):
        for xstar in range(1, m):
            for ystar in range(1, last + 1):
                yield Lemma2Case(m=m, n=n, r=r, xstar=xstar, ystar=ystar)


def check_lemma2_exhaustive(m: int, n: int) -> Lemma2Case | None:
    """Decide every case of iter_lemma2_cases; None if all are disjoint, else
    the first failure in their order.

    The disk meets unit column c in one nonempty cell range [lo[c], hi[c]),
    which disk._column_profile gives in closed form, so no disk is built.
    Case (r, xstar, ystar) shifts the translate by (dx, base - ystar), where
    dx = (r - 1) m + xstar and base = ruler_sum(r - 1), so column c of the
    translate faces column c + dx of the disk, and the two interiors overlap
    there exactly when ystar lies strictly between base + lo[c] - hi[c + dx]
    and base + hi[c] - lo[c + dx].  Some ystar in 1..top does iff two
    thresholds hold, lo[c] - hi[c + dx] <= top - 1 - base and
    hi[c] - lo[c + dx] >= 2 - base: the interval is never empty, since both
    columns are, so a column with lo == hi raises ContractViolation.  The
    cases run in order of increasing dx, so one vectorised pass decides
    every ystar of a block of consecutive shifts.  More than MAX_LEMMA2_WORK
    of the cols (cols - 1) / 2 (shift, column) pairs compared, cols = m 2^n,
    raise ParameterError.
    """
    _check_disk_params(m, n, 2)
    cols = m * 2**n
    work = cols * (cols - 1) // 2
    if work > MAX_LEMMA2_WORK:
        raise ParameterError(f"lemma 2 check of {cols} columns compares {work} pairs, more than {MAX_LEMMA2_WORK}")
    top = _last_ystar(n)
    bases = np.fromiter(map(ruler_sum, range(2**n)), np.int32, 2**n)
    t_lo, t_hi = top - 1 - bases, 2 - bases
    # int32 is exact below the work cap; a block reads at most isqrt(_BLOCK)
    # columns past the end, where a lo this high fails the second threshold
    prof = np.empty((2, cols + isqrt(_BLOCK)), np.int32)
    prof[0, :cols], prof[1, :cols] = _column_profile(m, n)
    empty = np.flatnonzero(prof[1, :cols] <= prof[0, :cols])
    if empty.size:
        raise ContractViolation(f"column {empty[0]} of the disk is empty")
    prof[:, cols:] = prof[1, :cols].max() + top
    lo, hi = prof[:, :cols]
    row, item = prof.strides
    d0 = 1
    while d0 < cols:
        w = cols - d0
        d1 = min(d0 + max(_BLOCK // w, 1), cols)
        dx = np.arange(d0, d1)
        # row k reads prof's columns d0 + k + c, c < w: a read-only view whose extent numpy checks
        windows = np.ndarray((2, d1 - d0, w), np.int32, prof, d0 * item, (row, item, item))
        windows.flags.writeable = False
        lo_dx, hi_dx = windows
        bar = dx // m
        bad = (lo[:w] - hi_dx <= t_lo[bar, None]) & (hi[:w] - lo_dx >= t_hi[bar, None])
        rows = np.flatnonzero(bad.any(axis=1) & (dx % m != 0))
        if rows.size:
            k = int(rows[0])
            r, xstar = divmod(d0 + k, m)
            first = np.maximum(lo[:w] - hi_dx[k] + int(bases[r]) + 1, 1)
            return Lemma2Case(m=m, n=n, r=r + 1, xstar=xstar, ystar=int(first[bad[k]].min()))
        d0 = d1
    return None


@dataclass(frozen=True)
class PairWitness:
    """Structural witness reducing an A_i/A_j pair to a lemma case.

    A_j's leftmost level sub-copy is copy `copy` at level `level` inside
    A_i, shifted right and down by j - i; `bar_index` is the first bar of
    that sub-copy, so the lemma applies with xstar = ystar = j - i.
    """

    level: int
    copy: int
    bar_index: int
    xstar: int
    ystar: int


def theorem_pair_witness(m: int, n: int, i: int, j: int) -> PairWitness:
    """Solve for the sub-copy of A_i that A_j's leftmost sub-copy steps off from.

    Sub-copy `copy` starts at bar first + 1 = (copy - 1) * 2^level + 1, at
    x = first * m, so the target's dx fixes the copy and its dy must agree.
    """
    scene = place_translates(m, n)
    _int_in("i", i, 1, n - 1)
    _int_in("j", j, i + 1, n)
    level = n + 1 - j
    shift = j - i
    target = scene.offsets[j] - scene.offsets[i] - Vec2(shift, -shift)
    first, rem = divmod(target.dx, m)
    copy = first // 2**level + 1
    solved = not rem and first % 2**level == 0 and 1 <= copy <= 2 ** (n - level)
    if not (solved and sub_copy_offset(m, n, SubCopyRef(level=level, copy=copy)) == target):
        raise ConstructionBroken(
            f"no sub-copy of A_{i} matches A_{j}'s leftmost copy (m={m}, n={n})"
        )
    return PairWitness(level=level, copy=copy, bar_index=first + 1, xstar=shift, ystar=shift)
