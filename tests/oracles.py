"""Reference implementations the tests compare the package against.

Each one is written independently of the fast path it checks (all-pairs
loops, run-at-a-time merges, per-case sweeps, rect-to-column scatters,
bit-free recursions, copy scans, the numpy calls a rewrite replaced), and
each has one definition, here.
"""

from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np

from translate_kiss import (
    ConstructionBroken,
    ContractViolation,
    Lemma2Case,
    PairWitness,
    ParameterError,
    Rect,
    Scene,
    Shape,
    Vec2,
    build_disk,
    iter_lemma2_cases,
    prefix_sum,
    rightward_runs,
)
from translate_kiss import disk, placement
from translate_kiss.rect import _rect_array, _sweep
from translate_kiss.render import FILL_A0, FILLS
from translate_kiss.ruler import ruler_sum


def ruler_by_halving(i):
    """ruler(i) by parity recursion: odd positions hold 1 and position 2j
    holds one more than position j.  No bit tricks."""
    if i < 1:
        raise ParameterError(f"ruler is defined for i >= 1, got {i}")
    h = 1
    while i % 2 == 0:
        i //= 2
        h += 1
    return h


def lemma1_first_failure(k_max, r_max, terms):
    """First (k, r) in lexicographic order, with r + k - 1 <= r_max, whose k
    terms starting at r sum below the first k; terms[i - 1] is term i."""
    for k in range(1, min(k_max, r_max) + 1):
        for r in range(1, r_max - k + 2):
            if sum(terms[:k]) > sum(terms[r - 1 : r + k - 1]):
                return k, r
    return None


def interiors_overlap(a: Rect, b: Rect) -> bool:
    """Open-rectangle intersection test."""
    return max(a.x0, b.x0) < min(a.x1, b.x1) and max(a.y0, b.y0) < min(a.y1, b.y1)


class Contact(NamedTuple):
    """A contact with its kind and length decided here, not by ContactComponent."""

    kind: str
    a: tuple[int, int]
    b: tuple[int, int]
    length: int


def closed_contact(a: Rect, b: Rect) -> Optional[Contact]:
    """Intersection of the closed rects, given disjoint interiors.

    Returns a point or segment contact, or None when the closed rects do
    not meet at all.
    """
    if interiors_overlap(a, b):
        raise ContractViolation(f"interiors of {a} and {b} overlap")
    ix0, ix1 = max(a.x0, b.x0), min(a.x1, b.x1)
    iy0, iy1 = max(a.y0, b.y0), min(a.y1, b.y1)
    if ix0 > ix1 or iy0 > iy1:
        return None
    if ix0 == ix1 and iy0 == iy1:
        return Contact("point", (ix0, iy0), (ix0, iy0), 0)
    if ix0 == ix1:
        return Contact("vertical-segment", (ix0, iy0), (ix0, iy1), iy1 - iy0)
    # iy0 == iy1 is forced: a 2D closed intersection would mean open overlap
    return Contact("horizontal-segment", (ix0, iy0), (ix1, iy0), ix1 - ix0)


def merge_lines(rows):
    """Rows [line, lo, hi] merged into the maximal runs of each line, sorted;
    runs that overlap or share an endpoint merge.  One run at a time, in a
    Python loop: the oracle for rect._merge."""
    runs = []
    for line, lo, hi in sorted(map(list, rows)):
        if runs and line == runs[-1][0] and lo <= runs[-1][2]:
            runs[-1][2] = max(runs[-1][2], hi)
        else:
            runs.append([line, lo, hi])
    return runs


def loop_components(contacts):
    """_sweep's (vertical, horizontal) rows as contacts, one at a time:
    merge_lines on each kind, a point where a zero-length run is alone on
    both its lines, one Contact per component with its kind and length
    decided here, sorted by (kind, a, b).  The oracle for the contacts that
    rect._canonical and rect._bulk make."""
    vertical, horizontal = (merge_lines(zip(*(c.tolist() for c in rows))) for rows in contacts)
    lone = {(x, y) for x, y, y1 in vertical if y == y1}
    lone &= {(x, y) for y, x, x1 in horizontal if x == x1}
    found = [Contact("point", p, p, 0) for p in lone]
    found += [Contact("vertical-segment", (x, ya), (x, yb), yb - ya) for x, ya, yb in vertical if ya < yb]
    found += [Contact("horizontal-segment", (xa, y), (xb, y), xb - xa) for y, xa, xb in horizontal if xa < xb]
    return sorted(found)


def kinds_by_select(ends):
    """rect._kinds of rows of points and segments going up or right, as one
    np.select over the three shapes: 0 for a horizontal segment going right,
    1 for a point, 2 for a vertical segment going up (-1 for any other row,
    which is no contact)."""
    xa, ya, xb, yb = ends.T
    return np.select([(ya == yb) & (xa < xb), (xa == xb) & (ya == yb), (xa == xb) & (ya < yb)], [0, 1, 2], -1)


def canonical_by_unique(contacts):
    """rect._canonical with its lines merged by merge_lines and its points
    found by np.unique: the (x, y) of every zero-length merged run of either
    kind, kept where it is seen twice."""
    vertical, horizontal = (
        np.array(merge_lines(zip(*(c.tolist() for c in rows))), np.int64).reshape(-1, 3) for rows in contacts
    )
    v_zero = vertical[:, 1] == vertical[:, 2]
    h_zero = horizontal[:, 1] == horizontal[:, 2]
    cells, seen = np.unique(
        np.concatenate((vertical[v_zero, :2], horizontal[h_zero][:, [1, 0]])), axis=0, return_counts=True
    )
    points = cells[seen == 2]
    hseg = horizontal[~h_zero]
    hseg = hseg[np.lexsort((hseg[:, 2], hseg[:, 0], hseg[:, 1]))]
    vseg = vertical[~v_zero]
    return np.concatenate((hseg[:, [1, 0, 2, 0]], points[:, [0, 1, 0, 1]], vseg[:, [0, 1, 0, 2]]))


def tallest_by_max(shape):
    """(tallest run, whether no other run is as tall) among the shape's
    rightward_runs, the tallest picked by max, so the first of equals."""
    runs = rightward_runs(shape)
    tallest = max(runs, key=lambda r: r.height)
    return tallest, sum(1 for r in runs if r.height == tallest.height) == 1


def naive_union_disjoint(A, B):
    return not any(interiors_overlap(a, b) for a in A for b in B)


def naive_contacts(A, B):
    """All-pairs contact collection with an independently written merge."""
    points, hsegs, vsegs = set(), [], []
    for a in A:
        for b in B:
            if a.x0 > b.x1 or b.x0 > a.x1 or a.y0 > b.y1 or b.y0 > a.y1:
                continue  # closed_contact would return None; skipping saves time
            c = closed_contact(a, b)
            if c is None:
                continue
            if c.kind == "point":
                points.add(c.a)
            elif c.kind == "horizontal-segment":
                hsegs.append((c.a[1], c.a[0], c.b[0]))
            else:
                vsegs.append((c.a[0], c.a[1], c.b[1]))

    def fold(segs):
        out = []
        for key, lo, hi in sorted(segs):
            if out and out[-1][0] == key and lo <= out[-1][2]:
                out[-1][2] = max(out[-1][2], hi)
            else:
                out.append([key, lo, hi])
        return out

    h = fold(hsegs)
    v = fold(vsegs)
    kept = []
    for px, py in points:
        on_h = any(py == y and lo <= px <= hi for y, lo, hi in h)
        on_v = any(px == x and lo <= py <= hi for x, lo, hi in v)
        if not (on_h or on_v):
            kept.append((px, py))
    result = {("horizontal-segment", (lo, y), (hi, y)) for y, lo, hi in h}
    result |= {("vertical-segment", (x, lo), (x, hi)) for x, lo, hi in v}
    result |= {("point", p, p) for p in kept}
    return result


def loop_pieces(m, n):
    """The (m, n) disk's rects, one bar and one connector at a time: bar i
    at height ruler_sum(i - 1), and connector i up to ruler_sum(i) + 1.
    The oracle for Shape.rows."""
    bars = 2**n
    pieces = []
    for i in range(1, bars + 1):
        y = ruler_sum(i - 1)
        pieces.append(Rect((i - 1) * m, y, i * m, y + 1))
        if i < bars:
            pieces.append(Rect(i * m - 1, y + 1, i * m, ruler_sum(i) + 1))
    return tuple(pieces)


def lemma2_instance(case: Lemma2Case) -> tuple[list[Rect], list[Rect]]:
    """The two rect lists of a lemma instance: one at the origin, one shifted."""
    rects = build_disk(case.m, case.n).rects()
    return rects, [r.translate(case.offset) for r in rects]


def sliced_sub_copy(shape, ref):
    """The pieces of one sub-copy, sliced from the disk's path and moved so
    its first bar sits at the origin: the oracle for extract_sub_copy."""
    base = (ref.copy - 1) * 2**ref.level
    last = ref.copy * 2**ref.level
    # pieces are interleaved B1 V1 B2 ... B_{2^n}: bar i sits at slot 2(i-1)
    span = shape.pieces[2 * base : 2 * (last - 1) + 1]
    off = Vec2(-span[0].x0, -span[0].y0)
    return tuple(r.translate(off) for r in span)


def rect_column_profile(rects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell range [lo[c], hi[c]) of each unit column c of interior-disjoint rects.

    Columns count from the leftmost x.  Raises ConstructionBroken unless the
    rect heights summed over every column equal hi - lo, i.e. unless each
    column meets the union in one interval.
    """
    x0, y0, x1, y1 = rects.T
    widths = x1 - x0
    cols = np.repeat(x0 - x0.min(), widths) + np.arange(widths.sum()) - np.repeat(
        np.cumsum(widths) - widths, widths
    )
    span = int(x1.max() - x0.min())
    lo, hi, covered = np.full(span, y1.max()), np.full(span, y0.min()), np.zeros(span, np.int64)
    np.minimum.at(lo, cols, np.repeat(y0, widths))
    np.maximum.at(hi, cols, np.repeat(y1, widths))
    np.add.at(covered, cols, np.repeat(y1 - y0, widths))
    broken = np.flatnonzero(covered != hi - lo)
    if broken.size:
        raise ConstructionBroken(f"column {broken[0]} of the disk is not one interval")
    return lo, hi


def _built_profile(m, n):
    """rect_column_profile of the rects of the disk that disk.build_disk gives."""
    return rect_column_profile(_rect_array(disk.build_disk(m, n).rects()))


def sweep_lemma2_exhaustive(m, n):
    """Per-case oracle: one rect sweep for each case of iter_lemma2_cases.

    It reads the disk through disk.build_disk, so a disk patched there
    reaches this oracle, as it reaches check_lemma2_exhaustive."""
    rects = _rect_array(disk.build_disk(m, n).rects())
    for case in iter_lemma2_cases(m, n):
        off = case.offset
        if _sweep(rects, rects + (off.dx, off.dy, off.dx, off.dy)) is None:
            return case
    return None


def pass_lemma2_exhaustive(m, n):
    """Per-(r, xstar) oracle: one numpy pass over the column profile for each
    bar r and step xstar, deciding every ystar of that one shift at once.

    It reads the profile of disk.build_disk's rects and placement.ruler_sum
    at call time, so a disk or ruler patched there reaches this oracle too."""
    lo, hi = _built_profile(m, n)
    top = placement.ruler_sum(2**n - 1) + 2
    for r in range(1, 2**n + 1):
        base = placement.ruler_sum(r - 1)
        for xstar in range(1, m):
            dx = (r - 1) * m + xstar
            # smallest and largest overlapping ystar per facing column, within 1..top
            first = np.maximum(base + lo[:-dx] - hi[dx:] + 1, 1)
            last = np.minimum(base + hi[:-dx] - lo[dx:] - 1, top)
            bad = first[first <= last]
            if bad.size:
                return Lemma2Case(m=m, n=n, r=r, xstar=xstar, ystar=int(bad.min()))
    return None


def pass_every_step(m, n, steps):
    """pass_lemma2_exhaustive with the step x running over 1..steps, past a
    Lemma2Case's m - 1, and no cut at the last ystar: the first (r, x,
    ystar), in that order, for which the disk moved by ((r - 1) m + x,
    S(r - 1) - ystar) overlaps the disk, or None."""
    lo, hi = _built_profile(m, n)
    for r in range(1, 2**n + 1):
        base = placement.ruler_sum(r - 1)
        for x in range(1, steps + 1):
            dx = (r - 1) * m + x
            first = np.maximum(base + lo[:-dx] - hi[dx:] + 1, 1)
            bad = first[first <= base + hi[:-dx] - lo[dx:] - 1]
            if bad.size:
                return r, x, int(bad.min())
    return None


def scan_pair_witness(scene, table, i, j):
    """Brute-force oracle: scan every level sub-copy of A_i, with offsets
    read from a prefix-sum table, for the one A_j steps off from."""
    m, n = scene.m, scene.n
    level, shift = n + 1 - j, j - i
    target = scene.offsets[j] - scene.offsets[i] - Vec2(shift, -shift)
    for copy in range(1, 2 ** (n - level) + 1):
        first = (copy - 1) * 2**level
        if Vec2(first * m, prefix_sum(first, table)) == target:
            return PairWitness(level, copy, first + 1, shift, shift)
    return None


def swept_ends(m, n):
    """(i, j, ends) for every pair of the (m, n) scene in combinations order,
    each swept by disk._placed_ends on the disk's full rows, ends None on
    interior overlap: the sweep that verify ran on every pair before the
    paper's proof decided any."""
    rows, offsets = build_disk(m, n).rows, placement.place_translates(m, n).offsets
    return [(i, j, disk._placed_ends(rows, offsets[i], offsets[j])) for i, j in combinations(range(n + 1), 2)]


def svg_by_rect(obj, unit_px):
    """render_svg's bytes, one rect at a time, each with its x, y, width and
    height formatted into the one rect template, from the Rect pieces of the
    disk; the picture's box is the pieces' box widened by the offsets'.  No
    bound is checked.  The oracle for render._svg_chunks."""
    if isinstance(obj, Scene):
        shape, offsets = Shape(obj.m, obj.n), obj.offsets
        fills = [FILL_A0] + [FILLS[(i - 1) % len(FILLS)] for i in range(1, len(offsets))]
        labels = [f"A{i}" for i in range(len(offsets))]
    else:
        shape, offsets, fills, labels = obj, (Vec2(0, 0),), [FILLS[0]], ["shape"]
    pieces = shape.pieces
    x0 = min(r.x0 for r in pieces) + min(t.dx for t in offsets)
    y0 = min(r.y0 for r in pieces) + min(t.dy for t in offsets)
    x1 = max(r.x1 for r in pieces) + max(t.dx for t in offsets)
    y1 = max(r.y1 for r in pieces) + max(t.dy for t in offsets)
    width, height = (x1 - x0 + 2) * unit_px, (y1 - y0 + 2) * unit_px
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
    ]
    for label, fill, t in zip(labels, fills, offsets):
        rect = f'<rect x="%d" y="%d" width="%d" height="%d" fill="{fill}" stroke="black" stroke-width="1"/>\n'
        out.append(f'<g id="{label}">\n')
        for r in pieces:  # the screen corner is the top-left one, one unit in from the box
            x, y = (r.x0 + t.dx - x0 + 1) * unit_px, (y1 + 1 - r.y1 - t.dy) * unit_px
            out.append(rect % (x, y, (r.x1 - r.x0) * unit_px, (r.y1 - r.y0) * unit_px))
        out.append("</g>\n")
    out.append("</svg>\n")
    return "".join(out).encode()
