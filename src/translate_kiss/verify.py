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

from .disk import Shape, SubCopyRef, build_disk, sub_copy_offset
from .errors import ContractViolation, _int_in
from .placement import Scene, place_translates
from .rect import _NO_ENDS, ContactComponent, Vec2, _bulk, _gc_paused, _lengths, _merge, _placed_ends


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
            with _gc_paused():  # the contacts hold no cycles
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


def _verdicts(scene: Scene, kept: list[PairVerdict], keep: bool) -> Iterator[tuple[PairVerdict, np.ndarray]]:
    """The verdict on each pair of the scene's translates i < j in order,
    appended to kept and yielded with its ends: the (k, 4) int64 rows
    [xa, ya, xb, yb] of A_i's contacts with A_j in canonical order, or
    _NO_ENDS when their interiors overlap, from which the writer formats its
    contacts.  One copy of the disk's rows serves every pair.  The verdict
    holds the ends, read-only, as its contacts only when keep, else no
    contacts; its segment_length_total is summed from the ends either way."""
    offsets = scene.offsets
    rows = build_disk(scene.m, scene.n).rows
    for i, j in combinations(range(scene.n + 1), 2):
        found = _placed_ends(rows, offsets[i], offsets[j])
        ends = _NO_ENDS if found is None else found
        ends.flags.writeable = False
        kept.append(PairVerdict(i, j, found is not None, ends if keep else (), int(_lengths(ends).sum())))
        yield kept[-1], ends


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
    expected = Vec2(i - 1, n + 2 - i)

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
