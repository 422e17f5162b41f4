import copy
import dataclasses
import gc
import json
import pickle
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from translate_kiss import (
    Certificate,
    ContactComponent,
    ContractViolation,
    PairVerdict,
    ParameterError,
    RangeError,
    Rect,
    Vec2,
    build_disk,
    contact_components,
    parse,
    place_translates,
    serialize,
    total_contact_length,
    union_interiors_disjoint,
    verify_construction,
)

import translate_kiss
from translate_kiss import rect
from translate_kiss.disk import _placed_ends, _x_window
from translate_kiss.rect import _bulk, _gc_paused, _merge, _rect_array, _sweep
from translate_kiss.rect import _canonical, _kinds
from translate_kiss.serial import _contacts

from oracles import (
    canonical_by_unique,
    closed_contact,
    interiors_overlap,
    kinds_by_select,
    loop_components,
    merge_lines,
    naive_contacts,
    naive_union_disjoint,
)

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

    def test_float_corners_refused(self):
        # the interiors overlap on x in (1.2, 1.5); cast to int64, both
        # corners became 1 and the pair read as disjoint
        with pytest.raises(ParameterError, match="must be an int"):
            union_interiors_disjoint([Rect(0, 0, 1.5, 1)], [Rect(1.2, 0, 3, 1)])

    @given(A=soups(), B=soups())
    def test_matches_naive(self, A, B):
        assert union_interiors_disjoint(A, B) == naive_union_disjoint(A, B)

    @given(A=rect_lists, B=rect_lists)
    def test_symmetric(self, A, B):
        assert union_interiors_disjoint(A, B) == union_interiors_disjoint(B, A)


class TestContactEnds:
    """A contact is its two ends; its kind and length follow from them."""

    @pytest.mark.parametrize(
        "a, b, kind, length",
        [
            ((2, 3), (2, 3), "point", 0),
            ((-1, 3), (4, 3), "horizontal-segment", 5),
            ((2, -3), (2, 3), "vertical-segment", 6),
        ],
        ids=["point", "horizontal-segment", "vertical-segment"],
    )
    def test_kind_and_length_from_ends(self, a, b, kind, length):
        c = ContactComponent(a, b)
        assert (c.kind, c.a, c.b, c.length) == (kind, a, b, length)

    @pytest.mark.parametrize(
        "a, b",
        [((0, 0), (1, 1)), ((0, 1), (1, 0)), ((4, 3), (-1, 3)), ((2, 3), (2, -3))],
        ids=["diagonal", "anti-diagonal", "reversed-horizontal", "reversed-vertical"],
    )
    def test_other_ends_rejected(self, a, b):
        with pytest.raises(ParameterError):
            ContactComponent(a, b)

    def test_list_ends_stored_as_tuples(self):
        # list ends made a contact unequal to its tuple-ended twin, and
        # unhashable, so a certificate holding one did not round-trip
        c = ContactComponent([0, 0], [1, 0])
        assert c == ContactComponent((0, 0), (1, 0)) and hash(c) == hash(ContactComponent((0, 0), (1, 0)))
        assert type(c.a) is tuple and type(c.b) is tuple
        cert = verify_construction(4, 3)
        verdicts = tuple(
            dataclasses.replace(v, contacts=tuple(ContactComponent(list(d.a), list(d.b)) for d in v.contacts))
            for v in cert.pair_verdicts
        )
        assert any(v.contacts for v in verdicts)
        listed = dataclasses.replace(cert, pair_verdicts=verdicts)
        assert serialize(listed) == serialize(cert) and parse(serialize(listed)) == listed


ends = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3), st.booleans()).map(
    lambda t: ((t[0], t[1]), (t[0] + t[2], t[1]) if t[3] else (t[0], t[1] + t[2]))
)


class TestContactContract:
    """What callers may rely on, pinned apart from how the class is built:
    a contact behaves as the tuple (kind, a, b, length)."""

    @given(st.lists(ends, max_size=6))
    def test_equal_hashed_and_ordered_like_its_fields(self, pairs):
        contacts = [ContactComponent(a, b) for a, b in pairs]
        fields = [(c.kind, c.a, c.b, c.length) for c in contacts]
        for c, f, (a, b) in zip(contacts, fields, pairs):
            assert c == ContactComponent(a, b) and hash(c) == hash(f)
        for c, f in zip(contacts, fields):
            for d, g in zip(contacts, fields):
                assert (c == d, c < d, c <= d, c > d) == (f == g, f < g, f <= g, f > g)
        assert [(c.kind, c.a, c.b, c.length) for c in sorted(contacts)] == sorted(fields)
        assert len(set(contacts)) == len(set(fields))

    @pytest.mark.parametrize("name", ["kind", "a", "b", "length", "other"])
    def test_immutable(self, name):
        c = ContactComponent((0, 0), (2, 0))
        with pytest.raises(AttributeError):
            setattr(c, name, 1)
        assert c == ContactComponent((0, 0), (2, 0))

    def test_repr_names_its_fields(self):
        assert repr(ContactComponent((1, 2), (1, 5))) == (
            "ContactComponent(kind='vertical-segment', a=(1, 2), b=(1, 5), length=3)"
        )

    def test_copies_are_equal(self):
        c = ContactComponent((-1, 3), (4, 3))
        for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert twin == c and type(twin) is ContactComponent

    def test_verdict_and_certificate_fields(self):
        c = ContactComponent((0, 0), (0, 2))
        v = PairVerdict(i=0, j=1, interiors_disjoint=True, contacts=(c,), segment_length_total=2)
        cert = Certificate(m=3, n=1, offsets=(Vec2(0, 0),), pair_verdicts=(v,), touching_count=1, ok=True)
        assert [f.name for f in dataclasses.fields(PairVerdict)] == [
            "i", "j", "interiors_disjoint", "contacts", "segment_length_total"
        ]
        assert [f.name for f in dataclasses.fields(Certificate)] == [
            "m", "n", "offsets", "pair_verdicts", "touching_count", "ok"
        ]
        assert cert.pair_verdicts[0].contacts == (c,) and v == PairVerdict(0, 1, True, (c,), 2)

    def test_package_exports(self):
        # adding or dropping a public name takes an edit here
        assert translate_kiss.__all__ == [
            "Certificate", "ConstructionBroken", "ContactComponent", "ContractViolation",
            "DocumentInvariantError", "Lemma2Case", "MalformedDocument", "PairVerdict",
            "PairWitness", "ParameterError", "PrefixTable", "RangeError", "Rect", "Scene",
            "SchemaVersionMismatch", "Shape", "SubCopyRef", "TouchingReport", "Vec2",
            "VerticalRun", "build_disk", "check_lemma1_exhaustive", "check_lemma2_exhaustive",
            "contact_components", "extract_sub_copy", "iter_lemma2_cases", "parse",
            "place_translates", "prefix_sum", "render_svg", "rightward_runs", "ruler",
            "serialize", "sub_copy_offset", "theorem_pair_witness", "total_contact_length",
            "union_interiors_disjoint", "verify_construction", "verify_touching_heights",
        ]
        assert all(hasattr(translate_kiss, name) for name in translate_kiss.__all__)

    @given(st.lists(ends, max_size=8))
    def test_bulk_ends_match_the_constructor(self, pairs):
        rows = np.array([a + b for a, b in pairs], np.int64).reshape(-1, 4)
        got = _bulk(rows)
        expected = tuple(ContactComponent(a, b) for a, b in pairs)
        assert got == expected and all(type(c) is ContactComponent for c in got)
        assert [tuple(c) for c in got] == [tuple(c) for c in expected]


line_rows = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-10, 10), st.integers(0, 6)).map(
        lambda t: (t[0], t[1], t[1] + t[2])
    ),
    max_size=40,
)


class TestMerge:
    """The vectorised line merge against the one-run-at-a-time loop."""

    @staticmethod
    def check(rows):
        got = _merge(tuple(np.array(rows, np.int64).reshape(-1, 3).T))
        assert len(got) == 3 and all(c.dtype == np.int64 and c.ndim == 1 for c in got)
        assert np.column_stack(got).tolist() == merge_lines(rows)

    @given(line_rows)
    def test_matches_loop(self, rows):
        self.check(rows)

    @given(line_rows, st.data())
    def test_duplicates_and_nesting(self, rows, data):
        # repeated rows and rows inside others, so one run covers many
        extra = data.draw(st.lists(st.sampled_from(rows), max_size=10)) if rows else []
        nested = [(line, lo + (hi - lo) // 3, hi - (hi - lo) // 3) for line, lo, hi in rows]
        self.check(rows + extra + nested)

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(0, 5, 5)],
            [(0, 0, 2), (0, 2, 4), (0, 4, 4), (0, 5, 5)],  # shared endpoints merge, a gap does not
            [(1, 0, 9), (0, 3, 4), (1, 2, 3), (0, 0, 1)],  # nested, and lines given out of order
            [(0, 0, 10), (1, 1, 2), (0, 11, 12)],  # a long run of line 0 must not reach line 1
            [(-(2**61) + 1, -(2**61) + 1, 2**61 - 1), (2**61 - 1, -5, -5), (2**61 - 1, -5, 3)],
        ],
        ids=["empty", "one-point", "touching", "nested", "lines-apart", "int64-extremes"],
    )
    def test_cases(self, rows):
        self.check(rows)


# small values make points common, and the int64 extremes would overflow a
# subtraction of ends
end_values = st.one_of(st.integers(-3, 3), st.sampled_from([-(2**63), -(2**61), 2**61 - 1, 2**63 - 1]))


@st.composite
def contact_rows(draw, values=end_values):
    """Ends [xa, ya, xb, yb] of a segment going right, a point or a segment
    going up; a segment whose ends are drawn equal is a point."""
    c, u, v = draw(st.tuples(values, values, values))
    lo, hi = sorted((u, v))
    return draw(st.sampled_from([(lo, c, hi, c), (u, c, u, c), (c, lo, c, hi)]))


class TestKinds:
    """_kinds, of the rows of points and of segments going up or right,
    against the np.select oracle."""

    @given(st.lists(contact_rows(), max_size=12))
    def test_matches_select(self, rows):
        ends = np.array(rows, np.int64).reshape(-1, 4)
        assert _kinds(ends).tolist() == kinds_by_select(ends).tolist()

    @given(st.lists(contact_rows(), max_size=12))
    def test_constructor_matches_select(self, rows):
        # the constructor shares _kinds' rule, so it is checked against the oracle
        names = ["horizontal-segment", "point", "vertical-segment"]
        want = [names[k] for k in kinds_by_select(np.array(rows, np.int64).reshape(-1, 4)).tolist()]
        assert [ContactComponent((xa, ya), (xb, yb)).kind for xa, ya, xb, yb in rows] == want

    def test_every_shape(self):
        rows = [[0, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 2]]  # right, point, up
        assert _kinds(np.array(rows, np.int64)).tolist() == [0, 1, 2]
        assert _kinds(np.empty((0, 4), np.int64)).tolist() == []
        # every other row is no contact, and the constructor refuses it
        for xa, ya, xb, yb in [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]:
            with pytest.raises(ParameterError):
                ContactComponent((xa, ya), (xb, yb))


# ends inside the 2**61 sweep bound, so every length fits in int64
bounded_values = st.one_of(st.integers(-3, 3), st.sampled_from([-(2**61) + 1, 2**61 - 1]))


class TestContactTemplates:
    """serial._contacts, which writes each row with its kind's template,
    against JSON objects built here from the rows."""

    @staticmethod
    def check(rows):
        def kind(xa, ya, xb, yb):
            return "point" if (xa, ya) == (xb, yb) else "horizontal-segment" if ya == yb else "vertical-segment"

        want = [
            {"kind": kind(*r), "a": [r[0], r[1]], "b": [r[2], r[3]], "length": r[2] - r[0] + r[3] - r[1]}
            for r in rows
        ]
        assert json.loads(b"[" + _contacts(np.array(rows, np.int64).reshape(-1, 4)) + b"]") == want

    @given(st.lists(contact_rows(bounded_values), max_size=12))
    def test_matches_objects(self, rows):
        self.check(rows)

    @pytest.mark.parametrize(
        "rows",
        [[], [[0, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 2]], [[-(2**61) + 1, 5, 2**61 - 1, 5], [7, 7, 7, 7]]],
        ids=["empty", "every-kind", "extremes"],
    )
    def test_cases(self, rows):
        self.check(rows)


class TestCanonical:
    """_canonical, which finds points by one sort, against the oracle that
    finds them by np.unique."""

    @staticmethod
    def check(raw):
        got = _canonical(raw)
        assert got.dtype == np.int64 and got.shape[1:] == (4,)
        assert got.tolist() == canonical_by_unique(raw).tolist()

    @given(pair=disjoint_soups())
    def test_sweeps_of_soups(self, pair):
        # duplicate rects, and cells nested in the runs that hold them
        A, B = pair
        self.check(_sweep(_rect_array(A), _rect_array(B)))

    @given(line_rows, line_rows)
    def test_any_line_rows(self, vertical, horizontal):
        self.check(tuple(tuple(np.array(rows, np.int64).reshape(-1, 3).T) for rows in (vertical, horizontal)))


class TestContactsMatchLoopPath:
    """Every pair's contacts against the loop path: the same _sweep rows,
    merged by the loop and made one Contact at a time."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_pair(self, n):
        for m in (n, n + 2):
            cert = verify_construction(m, n)
            rows = build_disk(m, n).rows
            for v in cert.pair_verdicts:
                a, b = cert.offsets[v.i], cert.offsets[v.j]
                raw = _sweep(rows + (a.dx, a.dy, a.dx, a.dy), rows + (b.dx, b.dy, b.dx, b.dy))
                assert [tuple(c) for c in v.contacts] == [tuple(c) for c in loop_components(raw)]
                assert v.segment_length_total == sum(c.length for c in loop_components(raw))

    @given(pair=disjoint_soups())
    def test_soups(self, pair):
        A, B = pair
        raw = _sweep(_rect_array(A), _rect_array(B))
        assert [tuple(c) for c in contact_components(A, B)] == [tuple(c) for c in loop_components(raw)]


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
        # a corner contact at either end of a collinear segment is absorbed too
        for A, B, segment in [
            ([Rect(0, 1, 1, 2)], [Rect(1, 1, 2, 2), Rect(1, 0, 2, 1)], ((1, 1), (1, 2))),
            ([Rect(0, 1, 1, 2)], [Rect(1, 1, 2, 2), Rect(1, 2, 2, 3)], ((1, 1), (1, 2))),
            ([Rect(1, 0, 2, 1)], [Rect(1, 1, 2, 2), Rect(0, 1, 1, 2)], ((1, 1), (2, 1))),
            ([Rect(1, 0, 2, 1)], [Rect(1, 1, 2, 2), Rect(2, 1, 3, 2)], ((1, 1), (2, 1))),
        ]:
            comps = contact_components(A, B)
            assert [(c.a, c.b, c.length) for c in comps] == [(*segment, 1)], (A, B)

    def test_isolated_point_kept(self):
        comps = contact_components([Rect(0, 0, 1, 1)], [Rect(1, 1, 2, 2)])
        assert [c.kind for c in comps] == ["point"]
        assert total_contact_length(comps) == 0
        # four rect pairs meet only at (1, 1): one point, reported once
        A = [Rect(0, 0, 1, 1), Rect(-1, -1, 1, 1)]
        B = [Rect(1, 1, 2, 2), Rect(1, 1, 3, 3)]
        assert contact_components(A, B) == [ContactComponent((1, 1), (1, 1))]

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
        shape = build_disk(5, 4)
        rects = shape.rects()
        w = max(r.x1 for r in rects) - min(r.x0 for r in rects)
        h = max(r.y1 for r in rects) - min(r.y0 for r in rects)
        rng = random.Random(4)
        for _ in range(3000):
            v = Vec2(rng.randint(-w, w), rng.randint(-h, h))
            B = [r.translate(v) for r in rects]
            expected = naive_placed(rects, B)
            assert union_interiors_disjoint(rects, B) == (expected is not None), v
            assert placed(shape.rows, v) == expected, v
            if expected is not None:
                got = sorted((c.kind, c.a, c.b) for c in contact_components(rects, B))
                assert got == expected, v


def naive_placed(A, B):
    """naive_contacts in canonical order, or None on interior overlap."""
    try:  # closed_contact raises on the first overlapping pair
        return sorted(naive_contacts(A, B))
    except ContractViolation:
        return None


def placed_contacts(rows, a, b):
    """_placed_ends as contacts, or None on interior overlap."""
    ends = _placed_ends(rows, a, b)
    return None if ends is None else _bulk(ends)


def placed(rows, v):
    """placed_contacts between rows at the origin and at v, as (kind, a, b)."""
    found = placed_contacts(rows, Vec2(0, 0), v)
    return None if found is None else [(c.kind, c.a, c.b) for c in found]


class TestTightWindow:
    """_placed_ends' window, tight in x and y, needs rows that are
    nondecreasing in every column, each meeting the next in y, and laid out
    in x as _x_window's closed form says; the disk's rows in path order are."""

    @pytest.mark.parametrize("n", range(15))
    def test_rows_nondecreasing(self, n):
        for m in (2, 3, n + 2):
            assert (np.diff(build_disk(m, n).rows, axis=0) >= 0).all(), (m, n)

    @pytest.mark.parametrize("n", range(15))
    def test_rows_chain_in_y(self, n):
        # each row meets the next in y, so the rows of an x-window cover one
        # y-interval, from its first row's y0 to its last row's y1
        for m in (2, 3, n + 2):
            rows = build_disk(m, n).rows
            assert (rows[1:, 1] <= rows[:-1, 3]).all(), (m, n)

    @pytest.mark.parametrize("n", range(15))
    def test_rows_are_read_only_contiguous_columns(self, n):
        for m in (2, 3, n + 2):
            rows = build_disk(m, n).rows
            assert rows.flags.f_contiguous and not rows.flags.writeable, (m, n)

    @pytest.mark.parametrize("n", range(8))
    def test_x_window_is_the_binary_search(self, n):
        # past either end the closed form may leave [0, count]; the window is
        # empty there either way
        for m in (2, 3, n + 2):
            rows = build_disk(m, n).rows
            v = np.arange(-m - 2, rows[-1, 2] + m + 3)
            lo, hi = _x_window(m, len(rows), v, v)
            assert np.minimum(lo, len(rows)).tolist() == np.searchsorted(rows[:, 2], v, "left").tolist(), (m, n)
            assert np.maximum(hi, 0).tolist() == np.searchsorted(rows[:, 0], v, "right").tolist(), (m, n)

    @pytest.mark.parametrize("m, n", [(3, 0), (3, 1), (4, 2)])
    def test_every_offset_in_the_box(self, m, n):
        # overlapping offsets included: their answer is None
        shape = build_disk(m, n)
        rects, box = shape.rects(), shape.bounding_box()
        for dx in range(-box.width, box.width + 1):
            for dy in range(-box.height, box.height + 1):
                v = Vec2(dx, dy)
                B = [r.translate(v) for r in rects]
                assert placed(shape.rows, v) == naive_placed(rects, B), v


class TestPlacedMatchesSweep:
    """_placed_ends, with its closed-form x-windows and its cut by each
    window's y-cover, against the generic _sweep of the two placed copies:
    every pair of every scene with 2 <= n <= 10 and max(2, n - 3) <= m <=
    n + 3, 1,502 pairs, 19 of them overlapping."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_every_pair_of_every_scene(self, n):
        for m in range(max(2, n - 3), n + 4):
            rows, offsets = build_disk(m, n).rows, place_translates(m, n).offsets
            for i, j in combinations(range(n + 1), 2):
                a, b = offsets[i], offsets[j]
                got = _placed_ends(rows, a, b)
                raw = _sweep(rows + (a.dx, a.dy, a.dx, a.dy), rows + (b.dx, b.dy, b.dx, b.dy))
                if raw is None:
                    assert got is None, (m, n, i, j)
                else:
                    want = _canonical(raw)
                    assert got is not None and got.dtype == want.dtype, (m, n, i, j)
                    assert np.array_equal(got, want), (m, n, i, j)


def box_offsets(w, h):
    """Offsets of a second copy whose bounding box, w x h, misses the first's,
    meets it only at a corner, or shares part of one edge with it."""
    apart = [Vec2(w + 1, 0), Vec2(-w - 1, 0), Vec2(0, h + 1), Vec2(0, -h - 1), Vec2(w + 1, h + 1)]
    corners = [Vec2(sx * w, sy * h) for sx in (-1, 1) for sy in (-1, 1)]
    edges = [Vec2(sx * w, dy) for sx in (-1, 1) for dy in range(-h + 1, h)]
    edges += [Vec2(dx, sy * h) for sy in (-1, 1) for dx in range(-w + 1, w)]
    return apart + corners + edges


class TestBoxCut:
    """_placed_ends first cuts A to the rows that meet B's bounding box; the
    cut keeps every row on the box's edges and corners, and is empty for a
    box that lies apart, on either side."""

    @pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (2, 3), (5, 3)])
    def test_boxes_apart_touching_at_a_corner_or_along_an_edge(self, m, n):
        shape = build_disk(m, n)
        rects, box = shape.rects(), shape.bounding_box()
        for v in box_offsets(box.width, box.height):
            B = [r.translate(v) for r in rects]
            assert placed(shape.rows, v) == naive_placed(rects, B), v

    @pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (2, 3), (5, 3)])
    def test_boxes_up_to_three_widths_apart(self, m, n):
        # the cut's x-window lies wholly left or right of the rows once the
        # copies are 2 or more units apart in x; it must then be empty
        shape = build_disk(m, n)
        rects, box = shape.rects(), shape.bounding_box()
        w, h = box.width, box.height
        for dx in range(-3 * w, 3 * w + 1):
            for dy in (-3 * h, -h - 2, -h, -1, 0, 1, h, h + 2, 3 * h):
                v = Vec2(dx, dy)
                B = [r.translate(v) for r in rects]
                assert placed(shape.rows, v) == naive_placed(rects, B), v

    def test_the_cases_occur(self):
        # apart: no contact; the corner (w, h): the last bar meets the first
        # at one point; the right edge: the last bar's side meets the first's
        shape = build_disk(3, 2)
        box = shape.bounding_box()
        assert placed(shape.rows, Vec2(box.width + 1, 0)) == []
        assert placed(shape.rows, Vec2(-box.width - 1, 0)) == placed(shape.rows, Vec2(-box.width - 2, 0)) == []
        assert placed(shape.rows, Vec2(box.width, box.height)) == [("point", (12, 5), (12, 5))]
        assert placed(shape.rows, Vec2(box.width, box.height - 1)) == [("vertical-segment", (12, 4), (12, 5))]


class TestPlacedBound:
    """_placed_ends checks the 2**61 bound on each copy's first and last
    rows only, which hold its extremes as the rows are nondecreasing."""

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("column", range(4), ids=["x0", "y0", "x1", "y1"])
    def test_an_extreme_row_at_the_bound_raises(self, side, column):
        # the first row's x0 or y0 moved to -2**61, or the last row's x1 or y1 to 2**61
        rows = build_disk(3, 2).rows
        limit, row = (-(2**61), rows[0]) if column < 2 else (2**61, rows[-1])
        step = limit - int(row[column])
        v = Vec2(step, 0) if column % 2 == 0 else Vec2(0, step)
        a, b = (v, Vec2(0, 0)) if side == "a" else (Vec2(0, 0), v)
        with pytest.raises(RangeError):
            placed_contacts(rows, a, b)

    @pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (2, 3)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_in_bound_offsets_exact(self, m, n, sign):
        # both copies moved as far as the bound allows, their joint extreme
        # at 2**61 - 1 (or at its negative) in x and in y
        shape = build_disk(m, n)
        rows, rects, box = shape.rows, shape.rects(), shape.bounding_box()
        top = 2**61 - 1
        (x0, y0, _, _), (_, _, x1, y1) = rows[[0, -1]].tolist()
        for d in box_offsets(box.width, box.height):
            if sign == 1:
                b = Vec2(top - x1 - max(d.dx, 0), top - y1 - max(d.dy, 0))
            else:
                b = Vec2(-top - x0 - min(d.dx, 0), -top - y0 - min(d.dy, 0))
            a = b + d
            found = placed_contacts(rows, a, b)
            got = None if found is None else [(c.kind, c.a, c.b) for c in found]
            assert got == naive_placed([r.translate(a) for r in rects], [r.translate(b) for r in rects]), d
            one_past = Vec2(sign, sign)
            with pytest.raises(RangeError):
                placed_contacts(rows, a + one_past, b + one_past)


class TestGcPaused:
    """_gc_paused leaves the collector as it found it."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_restores_an_enabled_collector(self, collector):
        gc.enable()
        with _gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self, collector):
        gc.disable()
        with _gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nests(self, collector):
        gc.enable()
        with _gc_paused():
            with _gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_after_an_exception(self, collector):
        gc.enable()
        with pytest.raises(KeyError):
            with _gc_paused():
                raise KeyError("x")
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_bulk_builds_every_contact_paused(self, collector, monkeypatch, enabled):
        # _bulk pauses the collector itself, so contact_components, which
        # calls it bare, builds its contacts with the collector off too
        seen, trusted = [], rect._trusted

        def recorded(fields):
            seen.append(gc.isenabled())
            return trusted(fields)

        monkeypatch.setattr(rect, "_trusted", recorded)
        (gc.enable if enabled else gc.disable)()
        ends = np.array([[0, 0, 0, 2], [1, 1, 1, 1], [0, 3, 4, 3]], np.int64)
        A, B = [Rect(0, 0, 2, 2)], [Rect(2, 0, 4, 2), Rect(0, 2, 2, 4), Rect(-1, -1, 0, 0)]
        for build in (lambda: _bulk(ends), lambda: contact_components(A, B)):
            seen.clear()
            assert len(build()) == 3 and seen == [False] * 3
            assert gc.isenabled() == enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_verify_construction_keeps_the_state(self, collector, enabled):
        (gc.enable if enabled else gc.disable)()
        assert verify_construction(4, 3).ok
        assert gc.isenabled() == enabled
