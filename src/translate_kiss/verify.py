"""Full verification of the construction, producing a re-checkable certificate.

For the theorem check, "touches" means a positive-length shared boundary
segment; isolated point contacts are recorded but do not qualify.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from operator import itemgetter
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from .disk import Shape, SubCopyRef, _placed_ends, _staircase_heights, build_disk, sub_copy_offset
from .errors import ContractViolation, _int_in
from .placement import Scene, _facing_shift, place_translates
from .rect import _NO_ENDS, ContactComponent, Vec2, _bulk, _lengths, _merge
from .ruler import _narrowed, _short_window


class _Contacts:
    """PairVerdict.contacts.  A verdict that _verdicts makes holds the (k, 4)
    int64 rows of its contacts' ends, which rect._bulk turns into the tuple
    of ContactComponent on the first read, kept for every later one; any
    other value is held and read as given."""

    def __get__(self, obj: Optional[PairVerdict], cls: type) -> tuple[ContactComponent, ...]:
        if obj is None:
            raise AttributeError("contacts")  # so the dataclass field has no default
        held = obj.__dict__["contacts"]
        if isinstance(held, np.ndarray):
            held = obj.__dict__["contacts"] = _bulk(held)
        return held

    def __set__(self, obj: PairVerdict, value: Any) -> None:
        obj.__dict__["contacts"] = value


def _ends(v: PairVerdict) -> np.ndarray:
    """The (k, 4) int64 rows [xa, ya, xb, yb] of v's contacts' ends: the rows
    v holds, or else rows made from its ContactComponents, each the tuple
    (kind, a, b, length)."""
    held = v.__dict__["contacts"]
    if isinstance(held, np.ndarray):
        return held
    ends = chain.from_iterable(chain.from_iterable(map(itemgetter(1, 2), held)))
    return np.fromiter(ends, np.int64, 4 * len(held)).reshape(-1, 4)


@dataclass(frozen=True)
class PairVerdict:
    """The verdict on translates A_i and A_j, i < j.  contacts is a tuple of
    ContactComponent in canonical order; a verdict that verify_construction
    or parse returns, made by the sweep _verdicts, holds their rows of ends
    instead and makes the tuple when contacts is first read."""

    i: int
    j: int
    interiors_disjoint: bool
    contacts: tuple[ContactComponent, ...] = _Contacts()
    segment_length_total: int


@dataclass(frozen=True)
class Certificate:
    """Everything needed to re-check the construction without rebuilding it."""

    m: int
    n: int
    offsets: tuple[Vec2, ...]
    pair_verdicts: tuple[PairVerdict, ...]
    touching_count: int
    ok: bool


class _Proof:
    """The paper's proof applied to the pairs of a scene, on the rows that
    the sweep reads; placement's docstring gives the arguments.  Nothing is
    taken from the proof, and every pair is left to the full sweep, unless
    the rows are the staircase of their bar heights H (_staircase_heights)."""

    def __init__(self, scene: Scene, rows: np.ndarray) -> None:
        self.scene, self.rows = scene, rows
        self.heights = _staircase_heights(rows, scene.m, scene.n)
        self._passes: dict[int, bool] = {}  # k -> no window of k terms falls short
        if self.heights is not None:
            self._lanes = _narrowed(self.heights, len(self.heights) - 1)
            self._buffer = np.empty(len(self._lanes) - 1, self._lanes.dtype)

    def disjoint(self, i: int, j: int) -> bool:
        """Whether Lemma 2 shows A_i and A_j, 1 <= i < j, disjoint: A_j must
        lie at exactly the Lemma 2 offset (k m + s, H(k) - s) from A_i, s = j
        - i, 1 <= k < 2^n, and no window of k of the first 2^n - 1 terms of H
        may fall short, which one _short_window pass per distinct k decides."""
        heights, s = self.heights, j - i
        if heights is None:
            return False
        d = self.scene.offsets[j] - self.scene.offsets[i]
        k, rest = divmod(d.dx - s, self.scene.m)
        if rest or not 1 <= k < len(heights) or d.dy != heights[k] - s:
            return False
        if k not in self._passes:
            self._passes[k] = _short_window(self._lanes, k, self._buffer) is None
        return self._passes[k]

    def ends(self, i: int, j: int) -> Optional[np.ndarray]:
        """disk._placed_ends of A_i and A_j: for i = 0 on A_0's last level-L
        sub-copy D, L = n + 1 - j, and A_j's first, placed apart by the
        facing shift, where A_j lies at that shift from D and D has the
        heights of the (m, L) disk; else on the full rows."""
        scene, rows, heights = self.scene, self.rows, self.heights
        a = scene.offsets[i]
        if i == 0 and heights is not None:
            level = scene.n + 1 - j
            first = len(heights) - 2**level  # D starts at bar first + 1
            d = a + Vec2(first * scene.m, int(heights[first]))
            if scene.offsets[j] - d == _facing_shift(j, level) and np.array_equal(
                heights[first:] - heights[first], heights[: 2**level]
            ):
                rows, a = rows[: 2 ** (level + 1) - 1], d
        return _placed_ends(rows, a, scene.offsets[j])


def _verdicts(scene: Scene, kept: list[PairVerdict], keep: bool) -> Iterator[tuple[PairVerdict, np.ndarray]]:
    """The verdict on each pair of the scene's translates i < j in order,
    appended to kept and yielded with its ends: the (k, 4) int64 rows
    [xa, ya, xb, yb] of A_i's contacts with A_j in canonical order, or
    _NO_ENDS when their interiors overlap, from which the writer formats its
    contacts.  A pair with j - i >= 2 that _Proof.disjoint shows disjoint
    has no contacts and is not swept; A_0's pairs are swept on their facing
    sub-disks (_Proof.ends), and the rest on one copy of the disk's rows.
    The verdict holds the ends, read-only, as its contacts only when keep,
    else no contacts; its segment_length_total is summed from the ends
    either way.  Its two readers are verify_construction, which keeps the
    contacts, and the CLI's streamed certificate, which keeps none; parse
    reads verify_construction's."""
    proof = _Proof(scene, build_disk(scene.m, scene.n).rows)
    for i, j in combinations(range(scene.n + 1), 2):
        found = _NO_ENDS if i and j - i >= 2 and proof.disjoint(i, j) else proof.ends(i, j)
        ends = _NO_ENDS if found is None else found
        ends.flags.writeable = False
        kept.append(PairVerdict(i, j, found is not None, ends if keep else (), int(_lengths(ends).sum())))
        yield kept[-1], ends


def _line_verdicts(scene: Scene) -> Iterator[PairVerdict]:
    """The verdicts, with no contacts, on the pairs of the scene with i = 0
    or that _Proof.disjoint does not show disjoint, in order; on the real
    rows, A_0's n pairs, each swept on its facing sub-disks.  Every pair
    left out is disjoint and not A_0's, so these give _verdict_totals of
    verify_construction(scene.m, scene.n)."""
    proof = _Proof(scene, build_disk(scene.m, scene.n).rows)
    for i, j in combinations(range(scene.n + 1), 2):
        if not (i and proof.disjoint(i, j)):
            ends = proof.ends(i, j)
            yield PairVerdict(i, j, ends is not None, (), 0 if ends is None else int(_lengths(ends).sum()))


def verify_construction(m: int, n: int) -> Certificate:
    """Check all translate pairs for disjoint interiors and collect contacts.

    ok is a verdict, not an error: a False certificate faithfully reports a
    broken build.
    """
    scene = place_translates(m, n)
    verdicts = tuple(v for v, _ in _verdicts(scene, [], keep=True))
    return Certificate(m, n, scene.offsets, verdicts, *_verdict_totals(n, verdicts))


def _verdict_totals(n: int, verdicts: Sequence[PairVerdict]) -> tuple[int, bool]:
    """touching_count and ok as the pair verdicts imply them: A_i touches A_0
    when their contact segments have positive total length, and ok needs
    every pair disjoint and all n translates touching A_0."""
    touching = sum(1 for v in verdicts if v.i == 0 and v.segment_length_total >= 1)
    return touching, all(v.interiors_disjoint for v in verdicts) and touching == n


@dataclass(frozen=True)
class VerticalRun:
    """A maximal merged run of piece right edges in one column."""

    x: int
    y0: int
    y1: int

    @property
    def height(self) -> int:
        return self.y1 - self.y0


def _rightward_rows(shape: Shape) -> tuple[np.ndarray, ...]:
    """rightward_runs as int64 columns (x, y0, y1)."""
    _, y0, x1, y1 = shape.rows.T
    return _merge((x1, y0, y1))


def rightward_runs(shape: Shape) -> list[VerticalRun]:
    """Maximal vertical runs formed by merging collinear piece right edges."""
    return list(map(VerticalRun, *(column.tolist() for column in _rightward_rows(shape))))


@dataclass(frozen=True)
class TouchingReport:
    """Why A_0 and A_i touch: the geometry of their facing sub-copies."""

    i: int
    offset: Vec2
    offset_expected: Vec2
    offset_ok: bool
    tallest_run: VerticalRun
    tallest_is_unique: bool
    tallest_height_expected: int
    contacts: tuple[ContactComponent, ...]
    has_segment_contact: bool

    @property
    def ok(self) -> bool:
        return (
            self.offset_ok
            and self.tallest_is_unique
            and self.tallest_run.height == self.tallest_height_expected
            and self.has_segment_contact
        )


def verify_touching_heights(m: int, n: int, i: int) -> TouchingReport:
    """Check the contact between A_0's last and A_i's first level sub-copy.

    The facing sub-copies are disks of level n+1-i; the shift between them
    must be (i-1, n+2-i), and the tallest merged right-edge run of the
    sub-copy, height n+2-i, must sit alone at its middle column so the
    upward shift produces contact without overlap.
    """
    scene = place_translates(m, n)
    _int_in("translate index i", i, 1, n)
    level = n + 1 - i
    sub = build_disk(m, level)

    last_copy = SubCopyRef(level=level, copy=2 ** (n - level))
    d_offset = scene.offsets[0] + sub_copy_offset(m, n, last_copy)
    d_prime_offset = scene.offsets[i]
    offset = d_prime_offset - d_offset
    expected = _facing_shift(i, level)

    runs = _rightward_rows(sub)
    heights = runs[2] - runs[1]
    # the first tallest, as max(rightward_runs(sub), key=height) picks it
    first = int(np.argmax(heights))
    tallest = VerticalRun(*(int(column[first]) for column in runs))
    unique = bool((heights == heights[first]).sum() == 1)

    ends = _placed_ends(sub.rows, d_offset, d_prime_offset)
    if ends is None:
        raise ContractViolation("unions have overlapping interiors")
    contacts = _bulk(ends)
    has_segment = any(c.length >= 1 for c in contacts)

    return TouchingReport(
        i=i,
        offset=offset,
        offset_expected=expected,
        offset_ok=offset == expected,
        tallest_run=tallest,
        tallest_is_unique=unique,
        tallest_height_expected=n + 2 - i,
        contacts=contacts,
        has_segment_contact=has_segment,
    )
