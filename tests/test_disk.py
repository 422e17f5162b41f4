import json

import numpy as np
import pytest

from translate_kiss import (
    Lemma2Case,
    ParameterError,
    PrefixTable,
    Rect,
    Shape,
    SubCopyRef,
    Vec2,
    build_disk,
    check_lemma2_exhaustive,
    extract_sub_copy,
    parse,
    place_translates,
    prefix_sum,
    ruler,
    serialize,
    sub_copy_offset,
    verify_construction,
)

from oracles import closed_contact, loop_pieces, naive_union_disjoint, sliced_sub_copy


def adjacency_path_ok(shape):
    """Positive-length shared edges must connect exactly consecutive pieces,
    each along an edge of length exactly 1."""
    pieces = shape.pieces
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            c = closed_contact(pieces[i], pieces[j])
            positive = c is not None and c.length >= 1
            if j == i + 1:
                if not positive or c.length != 1:
                    return False
            elif positive:
                return False
    return True


class TestBuildDisk:
    def test_smallest(self):
        shape = build_disk(2, 1)
        doc = json.loads(serialize(shape))
        assert [(p["role"], p["index"]) for p in doc["pieces"]] == [
            ("bar", 1), ("connector", 1), ("bar", 2)
        ]
        assert shape.pieces == (Rect(0, 0, 2, 1), Rect(1, 1, 2, 2), Rect(2, 1, 4, 2))
        assert [p["rect"] for p in doc["pieces"]] == [[0, 0, 2, 1], [1, 1, 2, 2], [2, 1, 4, 2]]

    def test_tallest_connector_4_3(self):
        shape = build_disk(4, 3)
        v4 = shape.pieces[1::2][3]
        assert v4 == Rect(15, 5, 16, 8)
        assert v4.height == 3

    def test_zero_disk_is_one_bar(self):
        # the base of the recursion: the (m, k) disk is two (m, k - 1) disks
        # joined by a connector, and the (m, 0) disk is one m x 1 bar
        shape = build_disk(4, 0)
        assert shape.pieces == (Rect(0, 0, 4, 1),)
        data = serialize(shape)
        assert data == (
            b'{"schema_version":"tk-1","kind":"shape","m":4,"n":0,'
            b'"pieces":[{"role":"bar","index":1,"rect":[0,0,4,1]}]}\n'
        )
        assert parse(data) == shape

    def test_piece_count(self):
        for m, n in [(2, 1), (3, 2), (4, 3), (5, 5)]:
            shape = build_disk(m, n)
            assert len(shape.pieces) == 2 ** (n + 1) - 1
            bars, conns = shape.pieces[0::2], shape.pieces[1::2]
            assert len(bars) == 2**n
            assert len(conns) == 2**n - 1
            roles = [p["role"] for p in json.loads(serialize(shape))["pieces"]]
            assert roles.count("bar") == 2**n
            assert roles.count("connector") == 2**n - 1

    def test_piece_dimensions(self):
        shape = build_disk(5, 4)
        for bar in shape.pieces[0::2]:
            assert (bar.width, bar.height) == (5, 1)
        for k, conn in enumerate(shape.pieces[1::2], start=1):
            assert conn.width == 1
            assert conn.height == ruler(k)

    def test_bounding_box(self):
        for m, n in [(2, 1), (4, 3), (6, 4)]:
            bb = build_disk(m, n).bounding_box()
            assert bb == Rect(0, 0, 2**n * m, 2 ** (n + 1) - n - 1)

    def test_closed_form_bounding_box_spans_the_pieces(self):
        for n in range(13):
            for m in sorted({2, 3, n + 2}):
                ps = build_disk(m, n).pieces
                want = Rect(
                    min(r.x0 for r in ps), min(r.y0 for r in ps),
                    max(r.x1 for r in ps), max(r.y1 for r in ps),
                )
                assert build_disk(m, n).bounding_box() == want, (m, n)

    @pytest.mark.parametrize("m, n", [(1, 3), (4, -1), (4, 21)])
    def test_invalid_shape_refused(self, m, n):
        with pytest.raises(ParameterError):
            Shape(m, n)

    def test_a_shape_is_its_m_and_n(self):
        assert Shape(4, 3) == build_disk(4, 3)
        assert hash(Shape(4, 3)) == hash(build_disk(4, 3))
        assert Shape(4, 3) != Shape(5, 3)

    def test_pieces_are_made_once(self):
        shape = Shape(4, 3)
        assert shape.pieces is shape.pieces

    @pytest.mark.parametrize("n", range(13))
    def test_rows_match_the_loop_oracle(self, n):
        for m in sorted({2, 3, n + 2}):
            want = loop_pieces(m, n)
            assert Shape(m, n).rows.tolist() == [[r.x0, r.y0, r.x1, r.y1] for r in want], (m, n)
            assert Shape(m, n).pieces == want, (m, n)

    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_rows_at_the_largest_m(self, n):
        # the widest disk under the coordinate bound: its last x1 is m * 2^n
        m = (2**61 - 1) // 2 ** (n + 1)
        want = loop_pieces(m, n)
        assert Shape(m, n).rows.tolist() == [[r.x0, r.y0, r.x1, r.y1] for r in want]
        assert Shape(m, n).pieces == want

    def test_rows_are_read_only_and_made_once(self):
        shape = Shape(4, 3)
        assert shape.rows is shape.rows
        assert shape.rows.dtype == np.int64 and shape.rows.shape == (15, 4)
        with pytest.raises(ValueError):
            shape.rows[0, 0] = 1
        assert shape.rows[0].tolist() == [0, 0, 4, 1]

    def test_bars_sit_at_prefix_table_sums(self):
        table = PrefixTable.build(2**8)
        for n in range(1, 9):
            shape = build_disk(3, n)
            bars = shape.pieces[0::2]
            assert [r.y0 for r in bars] == list(table.sums[: 2**n])
            assert shape.bounding_box().height == 2 ** (n + 1) - n - 1

    def test_disjoint_and_path(self):
        for m, n in [(2, 1), (2, 2), (4, 3), (5, 4)]:
            shape = build_disk(m, n)
            rects = shape.rects()
            assert all(naive_union_disjoint(rects[:k], [rects[k]]) for k in range(len(rects)))
            assert adjacency_path_ok(shape)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            build_disk(1, 3)
        with pytest.raises(ParameterError):
            build_disk(4, -1)
        with pytest.raises(ParameterError):
            build_disk(2, 21)


@pytest.mark.parametrize("value", [2.5, 3.0, True], ids=repr)
@pytest.mark.parametrize("which", ["m", "n"])
@pytest.mark.parametrize("make", [
    build_disk,
    place_translates,
    verify_construction,
    check_lemma2_exhaustive,
    lambda m, n: Lemma2Case(m, n, r=1, xstar=1, ystar=1),
    lambda m, n: sub_copy_offset(m, n, SubCopyRef(1, 1)),
], ids=["build_disk", "place_translates", "verify_construction", "check_lemma2_exhaustive",
        "Lemma2Case", "sub_copy_offset"])
def test_non_integer_parameters_refused(make, which, value):
    # 3.0 and True compare like 3 and 1, but would reach coordinates and documents
    args = {"m": 4, "n": 3, which: value}
    with pytest.raises(ParameterError):
        make(args["m"], args["n"])


class TestSubCopies:
    def test_whole_shape_offset(self):
        for m, n in [(2, 2), (4, 3), (5, 5)]:
            assert sub_copy_offset(m, n, SubCopyRef(level=n, copy=1)) == Vec2(0, 0)

    def test_offset_4_3(self):
        assert sub_copy_offset(4, 3, SubCopyRef(level=2, copy=2)) == Vec2(16, 7)

    def test_second_half_offset(self):
        for m, n in [(2, 2), (4, 3), (3, 5)]:
            off = sub_copy_offset(m, n, SubCopyRef(level=n - 1, copy=2))
            # second half starts after 2^(n-1) bars, one connector-height up
            assert off == Vec2(2 ** (n - 1) * m, 2**n - 1)
            assert off.dy == sum(ruler(i) for i in range(1, 2 ** (n - 1) + 1))

    def test_offsets_match_prefix_table(self):
        for n in range(1, 9):
            table = PrefixTable.build(2**n)
            for m in (2, n + 2):
                for level in range(n + 1):
                    for copy in range(1, 2 ** (n - level) + 1):
                        first = (copy - 1) * 2**level
                        assert sub_copy_offset(m, n, SubCopyRef(level, copy)) == Vec2(
                            first * m, prefix_sum(first, table)
                        )

    def test_invalid_ref(self):
        with pytest.raises(ParameterError):
            sub_copy_offset(4, 3, SubCopyRef(level=4, copy=1))
        with pytest.raises(ParameterError):
            sub_copy_offset(4, 3, SubCopyRef(level=2, copy=3))
        with pytest.raises(ParameterError):
            sub_copy_offset(4, 3, SubCopyRef(level=1, copy=0))

    def test_extract_whole(self):
        shape = build_disk(4, 3)
        ref = SubCopyRef(level=3, copy=1)
        assert extract_sub_copy(shape, ref) == shape
        assert sliced_sub_copy(shape, ref) == shape.pieces

    def test_extract_equals_fresh_build(self):
        shape = build_disk(4, 3)
        ref = SubCopyRef(level=2, copy=2)
        assert extract_sub_copy(shape, ref) == build_disk(4, 2)
        assert sliced_sub_copy(shape, ref) == build_disk(4, 2).pieces

    def test_extract_single_bar(self):
        shape = build_disk(4, 3)
        ref = SubCopyRef(level=0, copy=5)
        sub = extract_sub_copy(shape, ref)
        assert sub.pieces == sliced_sub_copy(shape, ref) == (Rect(0, 0, 4, 1),)
        assert sub == build_disk(4, 0)

    def test_recursive_identity_all_levels(self):
        for m, n in [(2, 2), (4, 3), (4, 4)]:
            shape = build_disk(m, n)
            for level in range(1, n + 1):
                for copy in range(1, 2 ** (n - level) + 1):
                    ref = SubCopyRef(level=level, copy=copy)
                    assert extract_sub_copy(shape, ref) == build_disk(m, level)
                    assert sliced_sub_copy(shape, ref) == build_disk(m, level).pieces

    def test_split_into_halves_plus_connector(self):
        m, n = 4, 3
        shape = build_disk(m, n)
        left = extract_sub_copy(shape, SubCopyRef(level=n - 1, copy=1))
        right = extract_sub_copy(shape, SubCopyRef(level=n - 1, copy=2))
        off = sub_copy_offset(m, n, SubCopyRef(level=n - 1, copy=2))
        rebuilt = set(left.pieces)
        rebuilt |= {r.translate(off) for r in right.pieces}
        middle = shape.pieces[1::2][2 ** (n - 1) - 1]  # connector 2^(n-1)
        rebuilt.add(middle)
        assert rebuilt == set(shape.pieces)

    def test_tallest_connector_unique(self):
        for m, n in [(2, 2), (4, 3), (5, 5)]:
            conns = build_disk(m, n).pieces[1::2]
            heights = sorted((r.height, k) for k, r in enumerate(conns, start=1))
            assert heights[-1] == (n, 2 ** (n - 1))
            if len(heights) > 1:
                assert heights[-2][0] < n

    def test_sliced_sub_copy_oracle(self):
        # level 0 included: a single bar is the (m, 0) disk
        for n in range(9):
            for m in (2, n + 2):
                shape = build_disk(m, n)
                for level in range(n + 1):
                    for copy in range(1, 2 ** (n - level) + 1):
                        ref = SubCopyRef(level=level, copy=copy)
                        assert sliced_sub_copy(shape, ref) == extract_sub_copy(shape, ref).pieces

    def test_every_sub_copy_is_a_fresh_disk_and_round_trips(self):
        # level 0 included: a single bar is the (m, 0) disk
        for n in range(0, 7):
            for m in (2, n + 2):
                shape = build_disk(m, n)
                for level in range(n + 1):
                    fresh = build_disk(m, level)
                    for copy in range(1, 2 ** (n - level) + 1):
                        ref = SubCopyRef(level=level, copy=copy)
                        sub = extract_sub_copy(shape, ref)
                        assert sub == fresh, (m, n, level, copy)
                        assert sliced_sub_copy(shape, ref) == fresh.pieces, (m, n, level, copy)
                        assert parse(serialize(sub)) == sub, (m, n, level, copy)

