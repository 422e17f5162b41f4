"""Ruler sequence (OEIS A001511 by definition, no lookup), closed-form prefix
sums, and the Lemma 1 prefix-sum table and minimal-prefix-sum window check.

``ruler(i)`` counts bits from the right up to and including the first set bit
of ``i``.  The sequence of these values gives the connector heights of the
rectilinear disks; its key property is that every length-k window has sum at
least the sum of the first k terms.  The check runs on the sums cast to the
narrowest of int16, int32 and int64 that holds every window exactly: int16
for the ruler's own sums up to k = 1424, as each term is at most 23.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError, _int_in, _show

MAX_TABLE_LIMIT = 2**22  # building 2^20 terms peaks near 50 MiB, so about 200 MiB at the cap
MAX_WINDOW_WORK = 2**30  # bound on min(k_max, r_max) * r_max window sums; 2^30 take 0.5 s on int16, 1.3 s on int64


def ruler(i: int) -> int:
    """Number of trailing zero bits of i, plus one.  Bit-inspection route."""
    _int_in("i", i, 1)
    return (i & -i).bit_length()


def ruler_sum(k: int) -> int:
    """Sum of the first k ruler terms, 2k - popcount(k) by Legendre's formula."""
    return 2 * k - k.bit_count()


def _ruler_sums(k: int) -> np.ndarray:
    """S(0), ..., S(k - 1) as int64, S(i) = ruler_sum(i): term j >= 1 starts
    at one and gains one for each b >= 1 with 2^b dividing j."""
    terms = np.ones(k, np.int64)
    terms[:1] = 0  # S(0) = 0
    for b in range(1, k.bit_length()):
        terms[2**b :: 2**b] += 1
    return np.cumsum(terms, out=terms)


@dataclass(frozen=True)
class PrefixTable:
    """Cached prefix sums of the ruler sequence.

    sums[i] is the sum of the first i terms; sums[0] == 0.  The table is
    built eagerly from _ruler_sums, never extends itself and holds at most
    MAX_TABLE_LIMIT terms.
    """

    limit: int
    sums: tuple[int, ...]

    @classmethod
    def build(cls, limit: int) -> "PrefixTable":
        _int_in("table limit", limit, 1, MAX_TABLE_LIMIT)
        return cls(limit=limit, sums=tuple(_ruler_sums(limit + 1).tolist()))


def prefix_sum(i: int, table: PrefixTable) -> int:
    """Sum of the first i ruler terms (0 for i == 0)."""
    _int_in("i", i, 0)
    if i > table.limit:
        raise RangeError(f"prefix_sum({_show(i)}) exceeds table limit {table.limit}")
    return table.sums[i]


def _check_windows(k_max: int, r_max: int) -> None:
    """Raise ParameterError unless lemma 1 has a window to check and at most
    MAX_WINDOW_WORK window sums to take."""
    _int_in("k_max", k_max, 1)
    _int_in("r_max", r_max, 1)
    if min(k_max, r_max) * r_max > MAX_WINDOW_WORK:
        raise ParameterError(
            f"min(k_max, r_max) * r_max = {_show(min(k_max, r_max) * r_max)} window sums "
            f"exceed the supported maximum {MAX_WINDOW_WORK}"
        )


def _narrowed(sums: np.ndarray, k_top: int) -> np.ndarray:
    """The int64 sums cast, wrapping, to the narrowest of int16, int32 and
    int64 that holds -W..W, W = min(k_top * max|term|, max - min).

    A window of at most k_top terms is a sum of those terms and a difference
    of two sums, so it lies in -W..W, and taken there modulo 2^b it is the
    true difference.  Raises RangeError if two sums differ by 2**63 or more."""
    lo, hi = int(sums.min()), int(sums.max())
    if hi - lo >= 2**63:
        raise RangeError("two table sums differ by 2**63 or more")
    terms = np.diff(sums)  # each |term| <= hi - lo < 2**63
    bound = min(k_top * max(int(terms.max()), -int(terms.min())), hi - lo)
    del terms  # freed before the cast
    lane = next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    return sums.astype(lane, copy=False)


def _short_window(lanes: np.ndarray, k: int, buffer: np.ndarray) -> int | None:
    """The least r whose window lanes[r + k - 1] - lanes[r - 1] of k terms
    falls below the prefix lanes[k] - lanes[0], or None: the windows are
    subtracted into buffer, of at least len(lanes) - k entries in the lanes'
    dtype, and r is located only when the smallest falls short."""
    count = len(lanes)
    windows = np.subtract(lanes[k:], lanes[: count - k], out=buffer[: count - k])
    if windows.min() < windows[0]:
        return int(np.argmax(windows < windows[0])) + 1
    return None


def _first_short_window(sums: np.ndarray, k_top: int) -> tuple[int, int] | None:
    """The first (k, r) in lexicographic order with k <= k_top whose window
    sums[r + k - 1] - sums[r - 1] falls below sums[k] - sums[0], or None.

    sums is int64, more than k_top of them, and each k's windows are checked
    by _short_window in the _narrowed lane with one reused buffer.  Only k
    <= N / 2 is scanned, N = len(sums) - 1: if the window of k > N / 2 terms
    from r falls short, r >= 2 and r + k - 1 <= N give r <= k, and removing
    the terms r .. k it shares with the prefix leaves a short window of r -
    1 <= N - k < k terms from k + 1, so the least short k is at most N / 2."""
    k_top = min(k_top, (len(sums) - 1) // 2)
    lanes = _narrowed(sums, k_top)
    buffer = np.empty(len(lanes) - 1, lanes.dtype)
    for k in range(1, k_top + 1):
        r = _short_window(lanes, k, buffer)
        if r is not None:
            return k, r
    return None


def check_lemma1_exhaustive(
    k_max: int, r_max: int, table: PrefixTable
) -> tuple[int, int] | None:
    """Check every window with k <= k_max and r + k - 1 <= r_max.

    Returns None if all windows pass, else the first failing (k, r) in
    lexicographic order.  The table's r_max + 1 sums are read once, each an
    int (else ParameterError) within int64 (else RangeError), and checked by
    _first_short_window, so the full desk-scale sweep stays well under a
    second.
    """
    _check_windows(k_max, r_max)
    if r_max > table.limit:
        raise RangeError(f"r_max {_show(r_max)} exceeds table limit {table.limit}")
    read = table.sums[: r_max + 1]
    if len(read) <= r_max or not {int}.issuperset(map(type, read)):
        raise ParameterError(f"lemma 1 at r_max = {_show(r_max)} needs r_max + 1 table sums, each an int")
    try:
        sums = np.fromiter(read, np.int64, len(read))
    except OverflowError:
        raise RangeError("a table sum passes int64") from None
    return _first_short_window(sums, min(k_max, r_max))


def _check_ruler_windows(k_max: int, r_max: int) -> tuple[int, int] | None:
    """check_lemma1_exhaustive(k_max, r_max, PrefixTable.build(r_max)), run on
    the _ruler_sums array itself: no table is built."""
    _check_windows(k_max, r_max)
    _int_in("r_max", r_max, 1, MAX_TABLE_LIMIT)
    return _first_short_window(_ruler_sums(r_max + 1), min(k_max, r_max))
