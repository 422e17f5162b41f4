"""Placement of the n+1 translates and generation of disjointness test cases.

The translates A_1..A_n follow the recursion: the leftmost level-(n+1-i)
sub-copy of A_i coincides with the second such sub-copy of A_{i-1} shifted
right by one and down by one.  Summed from A_1 at the origin, it puts A_i
at (m (2^n - 2^(n+1-i)) + i - 1, 2 (2^n - 2^(n+1-i) - i + 1)), the closed
form a Scene uses.  A_0 is A_1 shifted down by n+1.

verify decides each pair by the paper's proof, and these arguments, on
the rows the sweep reads (verify._Proof).  Let S be the ruler prefix sum.

Pair (i, j), 1 <= i < j, s = j - i: A_j lies at the Lemma 2 offset (k m +
s, S(k) - s) from A_i, k + 1 the bar_index of theorem_pair_witness.  Lemma
2's reduction (check_lemma2_exhaustive) holds at every step x* >= 1, not
only x* <= m - 1: column c of bar b faces a column of bar b + k or later,
or from the bar's last column b + k + 1 or later, and S increases.  So if
no window of k of the first 2^n - 1 terms falls short, A_i and A_j are
disjoint, at every step.  For s >= 2 they have no contact either, since
each contact would be an overlap at one of the steps (s +- 1, s +- 1), all
Lemma 2 cases of the same k.  A corner contact is one at once.  In a
staircase of bars at least 2 wide, the left neighbour of each column, or
for a first column the right one, holds its bottom cell, and the right
neighbour, or for a last column the left one, its top cell, so a contact
across a horizontal edge is one too.  So is one across a vertical edge,
unless both columns are single cells at one height, which would make them
A_i's last column, at S(2^n - 1), and A_j's first, at S(k) - s, lower.

Pair (0, j), L = n + 1 - j: A_j's first level-L sub-copy D' is A_0's last
level-L sub-copy D moved by (j - 1, L + 1), by the closed form.  The cells
of A_0 outside D lie left of column D.x0, A_j lies at column D.x0 + 1 or
to the right of it, and the cells of A_j outside D' lie at column D.x1 + 1
or to the right, except, at j = 2, the connector leaving D', whose bottom
is L + 1 above D's top in column D.x1 (for j = 1, D is all of A_0).  So
A_0 and A_j have exactly the contacts of the (m, L) disk and its copy
moved by (j - 1, L + 1), and overlap iff those do, which is F(m, L, j -
1).  F(m, L, s) is false for 0 <= s <= m - 1: each column of the copy is a
column of the same bar or the bar before, raised by L + 1, so an overlap
needs a connector of height at least L + 1, and ruler(i) <= L for i <
2^L.  F(m, L, m) is true for L >= 2: the last column of bar 2^(L - 1)
reaches S(2^(L - 1)) + 1, L + 2 above the bottom of the last column of the
bar before, which the copy raises by only L + 1.  At L = 1 no bar with a
connector has a bar before it, so F(m, 1, m) is false.

So only pairs (0, j) with j - 1 >= m overlap, and the construction passes
iff m >= n - 1: for m >= n every j - 1 <= m - 1, for m = n - 1 the pair
with j - 1 = m has L = 1, and for m <= n - 2 the pair (0, m + 1) has L = n
- m >= 2 (CI pins n = 16, 20); each A_j touches A_0 by
verify_touching_heights' tallest run.  The paper takes m >= n, so each
pair witness's step j - i < n is in Lemma 2's range 1..m - 1, but a Scene
takes any m >= 2.  Measured for 3 <= n <= 13 and 2 <= m <= n + 1, not
proved: (0, j) with L >= 2 and j >= m + 1 overlaps iff j <= c(L) m + 1,
c(L) = max{t : S(t - 1) <= L + 1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .disk import SubCopyRef, _check_disk_params, _column_profile, sub_copy_offset
from .errors import ConstructionBroken, ContractViolation, ParameterError, _int_in
from .rect import Vec2
from .ruler import MAX_WINDOW_WORK, _first_short_window, ruler_sum

MAX_LEMMA2_COLUMNS = 2**22  # columns of one check_lemma2_exhaustive profile; (128, 15), at the cap, peaks at 101 MB


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


def _facing_shift(j: int, level: int) -> Vec2:
    """The shift (j - 1, level + 1) from A_0's last level-L sub-copy, L =
    level = n + 1 - j, to A_j's first, which the facing reduction uses."""
    return Vec2(j - 1, level + 1)


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
    """Decide every case of iter_lemma2_cases by Lemma 1's windows, as the
    paper's proof does; None if all are disjoint, else the first failure in
    their order.

    The disk meets unit column c in the cell range [lo[c], hi[c]) that
    disk._column_profile gives.  It must be the staircase of the bar heights
    S(i) = ruler_sum(i) that the case offsets use, with S(0) = 0 and each
    term S(i) - S(i - 1) at least 1: bar i + 1 spans columns i m .. i m + m
    - 1 at [S(i), S(i) + 1), but its last column, connector i + 1, rises to
    S(i + 1) + 1 (the last bar's to S(i) + 1).  Else it raises
    ContractViolation, which names the first column off the staircase when
    the heights and the width are right.  Case (r, xstar, ystar) with k = r
    - 1 moves the disk by (dx, S(k) - ystar), dx = k m + xstar, 1 <= xstar
    <= m - 1, so its column c faces column c + dx, and as both are nonempty
    some ystar >= 1 overlaps there iff hi[c] + S(k) - lo[c + dx] >= 2.
    Take c in bar b + 1.  If c + dx lies in bar b + k + 1, as it does for c
    the bar's first column and any xstar, the condition says the k terms b
    + 1 .. b + k, a window among the first 2^n - 1, sum below S(k).  The
    bar's last column, which rises to S(b + 1) + 1, faces bar b + k + 2 and
    says it of terms b + 2 .. b + k + 1.  Any other column crossing into bar
    b + k + 2 says it of the k + 1 terms b + 1 .. b + k + 1, which exceed the
    window b + 1 .. b + k by a term of at least 1, so only if that window
    falls short too.  The verdict thus depends on neither m nor xstar:
    ruler._first_short_window finds the least k with a short window, and
    the first failure is (k + 1, 1, 1).  Its ystar is 1 since at ystar = 1
    the moved column 0 lies just below the column it faces, and
    neighbouring columns of a staircase share a cell, so at the first column
    c that overlaps for some ystar the moved column cannot lie wholly above
    column c + dx.  Before the profile is made, ParameterError refuses n >=
    16, whose (2^n - 1)^2 window sums pass Lemma 1's bound
    ruler.MAX_WINDOW_WORK, and more than MAX_LEMMA2_COLUMNS columns m 2^n.
    """
    _check_disk_params(m, n, 2)
    windows = (2**n - 1) ** 2  # Lemma 1's min(k_max, r_max) r_max at k_max = r_max = 2^n - 1
    if windows > MAX_WINDOW_WORK:
        raise ParameterError(f"lemma 2 at n = {n} takes {windows} window sums, more than {MAX_WINDOW_WORK}")
    cols = m * 2**n
    if cols > MAX_LEMMA2_COLUMNS:
        raise ParameterError(f"lemma 2 at m = {m}, n = {n} reads {cols} columns, more than {MAX_LEMMA2_COLUMNS}")
    heights = np.fromiter(map(ruler_sum, range(2**n)), np.int64, 2**n)
    if heights[0] or np.diff(heights).min() < 1:
        raise ContractViolation("the bar heights S(i) do not start at 0 and rise by at least 1")
    lo, hi = _column_profile(m, n)
    if not len(lo) == len(hi) == cols:
        raise ContractViolation(f"the disk has {len(lo)} columns, not {cols}")
    # compared in place, bar i + 1 as row i of a (2^n, m) view, so no second
    # profile is made: only one boolean per column and a temporary
    bars = heights[:, None]
    off = lo.reshape(-1, m) != bars
    off[:, :-1] |= hi.reshape(-1, m)[:, :-1] != bars + 1
    off[:, -1] |= hi[m - 1 :: m] != np.append(heights[1:], heights[-1]) + 1
    if off.any():
        raise ContractViolation(f"column {off.argmax()} of the disk is off the staircase of its bar heights")
    short = _first_short_window(heights, 2**n - 1)
    return None if short is None else Lemma2Case(m=m, n=n, r=short[0] + 1, xstar=1, ystar=1)


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
    x = first * m, so the target's dx fixes the copy, whose offset must then
    be the target.
    """
    scene = place_translates(m, n)
    _int_in("i", i, 1, n - 1)
    _int_in("j", j, i + 1, n)
    level = n + 1 - j
    shift = j - i
    target = scene.offsets[j] - scene.offsets[i] - Vec2(shift, -shift)
    first = target.dx // m
    copy = first // 2**level + 1
    if not 1 <= copy <= 2 ** (n - level) or sub_copy_offset(m, n, SubCopyRef(level=level, copy=copy)) != target:
        raise ConstructionBroken(
            f"no sub-copy of A_{i} matches A_{j}'s leftmost copy (m={m}, n={n})"
        )
    return PairWitness(level=level, copy=copy, bar_index=first + 1, xstar=shift, ystar=shift)
