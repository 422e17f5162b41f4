"""Ruler sequence (OEIS A001511 by definition, no lookup), closed-form prefix
sums, and the Lemma 1 prefix-sum table and minimal-prefix-sum window check.

``ruler(i)`` counts bits from the right up to and including the first set bit
of ``i``.  The sequence of these values gives the connector heights of the
rectilinear disks; its key property is that every length-k window has sum at
least the sum of the first k terms, checked on int32 sums wherever they fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError, _int_in, _show

MAX_TABLE_LIMIT = 2**22  # building 2^20 terms peaks near 50 MiB, so about 200 MiB at the cap
MAX_WINDOW_WORK = 2**30  # bound on min(k_max, r_max) * r_max window sums; 2^28 of them take 1.5 s


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
    return np.cumsum(terms)


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


def _window_sums(sums: tuple[int, ...], r_max: int) -> np.ndarray:
    """sums[0..r_max] as int32 if they and every difference of two of them fit
    in int32, else int64; each must be an int, and no sum or difference may pass int64."""
    read = sums[: r_max + 1]
    if len(read) <= r_max or not {int}.issuperset(map(type, read)):
        raise ParameterError(f"lemma 1 at r_max = {_show(r_max)} needs r_max + 1 table sums, each an int")
    try:
        read = np.fromiter(read, np.int64, len(read))
    except OverflowError:
        raise RangeError("a table sum passes int64") from None
    lo, hi = int(read.min()), int(read.max())
    if hi - lo >= 2**63:
        raise RangeError("two table sums differ by 2**63 or more")
    return read.astype(np.int32) if -(2**31) <= lo and hi < 2**31 and hi - lo < 2**31 else read


def check_lemma1_exhaustive(
    k_max: int, r_max: int, table: PrefixTable
) -> tuple[int, int] | None:
    """Check every window with k <= k_max and r + k - 1 <= r_max.

    Returns None if all windows pass, else the first failing (k, r) in
    lexicographic order.  Vectorized per k, into one buffer, so the full
    desk-scale sweep stays well under a second.
    """
    _check_windows(k_max, r_max)
    if r_max > table.limit:
        raise RangeError(f"r_max {_show(r_max)} exceeds table limit {table.limit}")
    sums = _window_sums(table.sums, r_max)
    buffer = np.empty(r_max, sums.dtype)
    for k in range(1, min(k_max, r_max) + 1):
        windows = np.subtract(sums[k:], sums[: r_max + 1 - k], out=buffer[: r_max + 1 - k])
        if windows.min() < sums[k] - sums[0]:
            return (k, int(np.argmax(windows < sums[k] - sums[0])) + 1)
    return None
