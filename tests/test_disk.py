import pytest

from translate_kiss import (
    ParameterError,
    PrefixTable,
    Rect,
    SubCopyRef,
    Vec2,
    build_disk,
    extract_sub_copy,
    prefix_sum,
    ruler,
    sub_copy_offset,
)

from oracles import closed_contact, naive_union_disjoint


def adjacency_path_ok(shape):
    """Positive-length shared edges must connect exactly consecutive pieces,
    each along an edge of length exactly 1."""
    pieces = shape.pieces
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            c = closed_contact(pieces[i].rect, pieces[j].rect)
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
        assert [p.name for p in shape.pieces] == ["B1", "V1", "B2"]
        assert shape.pieces[0].rect == Rect(0, 0, 2, 1)
        assert shape.pieces[1].rect == Rect(1, 1, 2, 2)
        assert shape.pieces[2].rect == Rect(2, 1, 4, 2)

    def test_tallest_connector_4_3(self):
        shape = build_disk(4, 3)
        v4 = next(p for p in shape.pieces if p.name == "V4")
        assert v4.rect == Rect(15, 5, 16, 8)
        assert v4.rect.height == 3

    def test_piece_count(self):
        for m, n in [(2, 1), (3, 2), (4, 3), (5, 5)]:
            shape = build_disk(m, n)
            assert len(shape.pieces) == 2 ** (n + 1) - 1
            bars = [p for p in shape.pieces if p.role == "bar"]
            conns = [p for p in shape.pieces if p.role == "connector"]
            assert len(bars) == 2**n
            assert len(conns) == 2**n - 1

    def test_piece_dimensions(self):
        shape = build_disk(5, 4)
        for p in shape.pieces:
            if p.role == "bar":
                assert (p.rect.width, p.rect.height) == (5, 1)
            else:
                assert p.rect.width == 1
                assert p.rect.height == ruler(p.index)

    def test_bounding_box(self):
        for m, n in [(2, 1), (4, 3), (6, 4)]:
            bb = build_disk(m, n).bounding_box()
            assert bb == Rect(0, 0, 2**n * m, 2 ** (n + 1) - n - 1)

    def test_bars_sit_at_prefix_table_sums(self):
        table = PrefixTable.build(2**8)
        for n in range(1, 9):
            shape = build_disk(3, n)
            bars = [p.rect for p in shape.pieces if p.role == "bar"]
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
            build_disk(4, 0)
        with pytest.raises(ParameterError):
            build_disk(2, 21)


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
        assert extract_sub_copy(shape, SubCopyRef(level=3, copy=1)) == shape

    def test_extract_equals_fresh_build(self):
        shape = build_disk(4, 3)
        assert (
            extract_sub_copy(shape, SubCopyRef(level=2, copy=2)).pieces
            == build_disk(4, 2).pieces
        )

    def test_extract_single_bar(self):
        shape = build_disk(4, 3)
        sub = extract_sub_copy(shape, SubCopyRef(level=0, copy=5))
        assert len(sub.pieces) == 1
        assert sub.pieces[0].rect == Rect(0, 0, 4, 1)

    def test_recursive_identity_all_levels(self):
        for m, n in [(2, 2), (4, 3), (4, 4)]:
            shape = build_disk(m, n)
            for level in range(1, n + 1):
                for copy in range(1, 2 ** (n - level) + 1):
                    sub = extract_sub_copy(shape, SubCopyRef(level=level, copy=copy))
                    assert sub.pieces == build_disk(m, level).pieces

    def test_split_into_halves_plus_connector(self):
        m, n = 4, 3
        shape = build_disk(m, n)
        left = extract_sub_copy(shape, SubCopyRef(level=n - 1, copy=1))
        right = extract_sub_copy(shape, SubCopyRef(level=n - 1, copy=2))
        off = sub_copy_offset(m, n, SubCopyRef(level=n - 1, copy=2))
        rebuilt = {p.rect for p in left.pieces}
        rebuilt |= {p.rect.translate(off) for p in right.pieces}
        middle = next(
            p for p in shape.pieces if p.role == "connector" and p.index == 2 ** (n - 1)
        )
        rebuilt.add(middle.rect)
        assert rebuilt == {p.rect for p in shape.pieces}

    def test_tallest_connector_unique(self):
        for m, n in [(2, 2), (4, 3), (5, 5)]:
            conns = [p for p in build_disk(m, n).pieces if p.role == "connector"]
            heights = sorted((p.rect.height, p.index) for p in conns)
            assert heights[-1] == (n, 2 ** (n - 1))
            if len(heights) > 1:
                assert heights[-2][0] < n
