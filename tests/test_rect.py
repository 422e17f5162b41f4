import random

import pytest
from hypothesis import given, settings, strategies as st

from translate_kiss import (
    ContractViolation,
    ParameterError,
    RangeError,
    Rect,
    Vec2,
    build_disk,
    contact_components,
    total_contact_length,
    union_interiors_disjoint,
    verify_construction,
)

from oracles import closed_contact, interiors_overlap, naive_contacts, naive_union_disjoint

coords = st.integers(min_value=-8, max_value=8)


@st.composite
def rects(draw):
    x0 = draw(coords)
    y0 = draw(coords)
    w = draw(st.integers(min_value=1, max_value=6))
    h = draw(st.integers(min_value=1, max_value=6))
    return Rect(x0, y0, x0 + w, y0 + h)


rect_lists = st.lists(rects(), min_size=0, max_size=8)


@st.composite
def soups(draw):
    """Up to 40 rects on a small grid, so duplicates, overlaps inside one
    list and shared edges and corners are all common."""
    base = draw(st.lists(rects(), max_size=30))
    if not base:
        return base
    return base + draw(st.lists(st.sampled_from(base), max_size=10))


@st.composite
def disjoint_soups(draw):
    """(A, B) with disjoint unions, from a grid of unit cells each labelled
    A, B or empty.  Each list holds its cells, the maximal horizontal runs
    of them and some duplicates, so rects overlap inside one list while A
    and B meet only along shared edges and corners."""
    labels = draw(st.lists(st.sampled_from(".AB"), min_size=25, max_size=25))
    lists = []
    for mark in "AB":
        cells = [(i % 5 - 2, i // 5 - 2) for i, c in enumerate(labels) if c == mark]
        soup = [Rect(x, y, x + 1, y + 1) for x, y in cells]
        for x, y in cells:
            if (x - 1, y) not in cells:
                x1 = x + 1
                while (x1, y) in cells:
                    x1 += 1
                soup.append(Rect(x, y, x1, y + 1))
        if soup:
            soup += draw(st.lists(st.sampled_from(soup), max_size=5))
        lists.append(draw(st.permutations(soup)))
    return tuple(lists)


class TestRect:
    def test_degenerate_rejected(self):
        with pytest.raises(ParameterError):
            Rect(0, 0, 0, 1)
        with pytest.raises(ParameterError):
            Rect(0, 2, 1, 2)
        with pytest.raises(ParameterError):
            Rect(3, 0, 1, 1)

    def test_translate(self):
        assert Rect(0, 0, 1, 2).translate(Vec2(3, -1)) == Rect(3, -1, 4, 1)


class TestInteriorsOverlap:
    def test_identical(self):
        r = Rect(0, 0, 1, 1)
        assert interiors_overlap(r, r)

    def test_shared_edge_only(self):
        assert not interiors_overlap(Rect(0, 0, 1, 1), Rect(1, 0, 2, 1))

    def test_corner_case(self):
        assert not interiors_overlap(Rect(0, 0, 2, 1), Rect(1, 1, 2, 2))

    @given(a=rects(), b=rects())
    def test_symmetric(self, a, b):
        assert interiors_overlap(a, b) == interiors_overlap(b, a)


class TestClosedContact:
    def test_edge(self):
        c = closed_contact(Rect(0, 0, 1, 1), Rect(1, 0, 2, 1))
        assert c.kind == "vertical-segment"
        assert (c.a, c.b, c.length) == ((1, 0), (1, 1), 1)

    def test_corner_point(self):
        c = closed_contact(Rect(0, 0, 1, 1), Rect(1, 1, 2, 2))
        assert c.kind == "point" and c.a == (1, 1) and c.length == 0

    def test_no_contact(self):
        assert closed_contact(Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)) is None

    def test_contract_violation(self):
        with pytest.raises(ContractViolation):
            closed_contact(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3))

    @given(a=rects(), b=rects())
    def test_zero_area_always(self, a, b):
        if interiors_overlap(a, b):
            return
        c = closed_contact(a, b)
        if c is not None:
            # never a 2D region: a point or an axis-parallel segment
            assert c.a == c.b or c.a[0] == c.b[0] or c.a[1] == c.b[1]


class TestUnionDisjoint:
    def test_self_overlap(self):
        A = [Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)]
        assert not union_interiors_disjoint(A, A)

    def test_far_translate(self):
        A = [Rect(0, 0, 3, 1), Rect(1, 1, 2, 3)]
        B = [r.translate(Vec2(100, 0)) for r in A]
        assert union_interiors_disjoint(A, B)

    def test_empty_lists(self):
        assert union_interiors_disjoint([], [Rect(0, 0, 1, 1)])
        assert union_interiors_disjoint([Rect(0, 0, 1, 1)], [])

    @given(A=soups(), B=soups())
    def test_matches_naive(self, A, B):
        assert union_interiors_disjoint(A, B) == naive_union_disjoint(A, B)

    @given(A=rect_lists, B=rect_lists)
    def test_symmetric(self, A, B):
        assert union_interiors_disjoint(A, B) == union_interiors_disjoint(B, A)


class TestContactComponents:
    def test_shared_edge(self):
        comps = contact_components([Rect(0, 0, 1, 1)], [Rect(1, 0, 2, 1)])
        assert len(comps) == 1
        assert total_contact_length(comps) == 1

    def test_corner_absorbed_into_segment(self):
        # both pairs touch along unit edges meeting at (1, 1); the corner
        # never surfaces as a separate point component
        A = [Rect(0, 0, 2, 1), Rect(0, 1, 1, 2)]
        B = [Rect(1, 1, 2, 2)]
        comps = contact_components(A, B)
        assert [(c.kind, c.a, c.b) for c in comps] == [
            ("horizontal-segment", (1, 1), (2, 1)),
            ("vertical-segment", (1, 1), (1, 2)),
        ]

    def test_point_between_segments_absorbed(self):
        # diagonal corner contact lying on an unrelated segment is absorbed
        A = [Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)]
        B = [Rect(1, 1, 2, 2)]
        comps = contact_components(A, B)
        assert [(c.kind, c.a, c.b) for c in comps] == [
            ("horizontal-segment", (1, 1), (2, 1)),
        ]

    def test_isolated_point_kept(self):
        comps = contact_components([Rect(0, 0, 1, 1)], [Rect(1, 1, 2, 2)])
        assert [c.kind for c in comps] == ["point"]
        assert total_contact_length(comps) == 0

    def test_abutting_segments_merge(self):
        A = [Rect(0, 0, 1, 1), Rect(0, 1, 1, 2)]
        B = [Rect(1, 0, 2, 1), Rect(1, 1, 2, 2)]
        comps = contact_components(A, B)
        assert len(comps) == 1
        assert (comps[0].a, comps[0].b, comps[0].length) == ((1, 0), (1, 2), 2)

    def test_nested_segment_absorbed(self):
        # B's two rects overlap each other; the shorter edge lies inside the longer
        comps = contact_components([Rect(0, 0, 1, 10)], [Rect(1, 0, 2, 10), Rect(1, 2, 2, 3)])
        assert [(c.kind, c.a, c.b) for c in comps] == [("vertical-segment", (1, 0), (1, 10))]

    def test_contract_violation(self):
        with pytest.raises(ContractViolation):
            contact_components([Rect(0, 0, 2, 2)], [Rect(1, 1, 3, 3)])

    @settings(max_examples=200)
    @given(A=rect_lists, B=rect_lists)
    def test_matches_naive_all_pairs(self, A, B):
        if not union_interiors_disjoint(A, B):
            return
        got = {(c.kind, c.a, c.b) for c in contact_components(A, B)}
        assert got == naive_contacts(A, B)

    @given(pair=disjoint_soups())
    def test_soups_match_naive(self, pair):
        A, B = pair
        got = {(c.kind, c.a, c.b) for c in contact_components(A, B)}
        assert got == naive_contacts(A, B)

    def test_empty_lists(self):
        assert contact_components([], [Rect(0, 0, 1, 1)]) == []
        assert contact_components([Rect(0, 0, 1, 1)], []) == []
        assert contact_components([], []) == []

    @given(A=rect_lists, B=rect_lists)
    def test_order_independent(self, A, B):
        if not union_interiors_disjoint(A, B):
            return
        assert contact_components(A, B) == contact_components(
            list(reversed(A)), list(reversed(B))
        )

    @given(A=rect_lists, B=rect_lists, dx=coords, dy=coords)
    def test_translation_equivariance(self, A, B, dx, dy):
        if not union_interiors_disjoint(A, B):
            return
        v = Vec2(dx, dy)
        shifted = contact_components(
            [r.translate(v) for r in A], [r.translate(v) for r in B]
        )
        base = contact_components(A, B)
        assert len(shifted) == len(base)
        moved = sorted(
            (c.kind, (c.a[0] + dx, c.a[1] + dy), (c.b[0] + dx, c.b[1] + dy))
            for c in base
        )
        assert moved == sorted((c.kind, c.a, c.b) for c in shifted)


class TestSweepRange:
    """The sweep runs on int64 and accepts only |v| < 2**61."""

    @pytest.mark.parametrize("far", [
        Rect(2**70, 0, 2**70 + 1, 1),
        Rect(2**61 - 1, 0, 2**61, 1),
        Rect(-(2**61), 0, 0, 1),
    ])
    def test_out_of_range_rejected(self, far):
        near = [Rect(0, 0, 1, 1)]
        for A, B in (([far], near), (near, [far])):
            with pytest.raises(RangeError):
                union_interiors_disjoint(A, B)
            with pytest.raises(RangeError):
                contact_components(A, B)

    def test_largest_coordinates_exact(self):
        top = 2**61 - 1
        A = [Rect(-top, 0, top, 1), Rect(top - 1, 1, top, 2)]
        B = [Rect(-top, 1, top - 1, 2), Rect(top - 2, -top, top, 0)]
        assert union_interiors_disjoint(A, B) == naive_union_disjoint(A, B)
        comps = contact_components(A, B)
        assert {(c.kind, c.a, c.b) for c in comps} == naive_contacts(A, B)
        assert total_contact_length(comps) == 2 * top + 2


class TestTranslatesMatchNaive:
    """The sweep against the all-pairs oracle on the construction itself."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_pair(self, n):
        for m in (n, n + 1, n + 2):
            cert = verify_construction(m, n)
            rects = build_disk(m, n).rects()
            placed = [[r.translate(t) for r in rects] for t in cert.offsets]
            for v in cert.pair_verdicts:
                A, B = placed[v.i], placed[v.j]
                assert v.interiors_disjoint == naive_union_disjoint(A, B)
                assert {(c.kind, c.a, c.b) for c in v.contacts} == naive_contacts(A, B)

    def test_random_offsets_5_4(self):
        # offsets up to the bounding box size reach every relative position
        # in which the two translates can meet
        rects = build_disk(5, 4).rects()
        w = max(r.x1 for r in rects) - min(r.x0 for r in rects)
        h = max(r.y1 for r in rects) - min(r.y0 for r in rects)
        rng = random.Random(4)
        for _ in range(3000):
            v = Vec2(rng.randint(-w, w), rng.randint(-h, h))
            B = [r.translate(v) for r in rects]
            try:  # closed_contact raises on the first overlapping pair
                expected = naive_contacts(rects, B)
            except ContractViolation:
                expected = None
            assert union_interiors_disjoint(rects, B) == (expected is not None), v
            if expected is not None:
                got = {(c.kind, c.a, c.b) for c in contact_components(rects, B)}
                assert got == expected, v
