"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import time

from translate_kiss import (
    PrefixTable,
    Rect,
    SubCopyRef,
    build_disk,
    check_lemma1_exhaustive,
    extract_sub_copy,
    iter_lemma2_cases,
    place_translates,
    prefix_sum,
    render_svg,
    ruler,
    serialize,
    union_interiors_disjoint,
    verify_construction,
    verify_touching_heights,
)

from oracles import (
    closed_contact,
    interiors_overlap,
    lemma2_instance,
    naive_union_disjoint,
    ruler_by_halving,
    sliced_sub_copy,
)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def sweep_pairs(rects):
    """Pairs with closed x-overlap, by sorted sweep (exact, no prefilter lib)."""
    order = sorted(range(len(rects)), key=lambda k: rects[k].x0)
    for a_pos, i in enumerate(order):
        for j in order[a_pos + 1 :]:
            if rects[j].x0 > rects[i].x1:
                break
            yield i, j


def test_criterion_1_lemma1_exhaustive():
    table = PrefixTable.build(4096)
    start = time.perf_counter()
    failure = check_lemma1_exhaustive(512, 4096, table)
    elapsed = time.perf_counter() - start
    report(
        1,
        failure is None and elapsed < 1.0,
        f"all k <= 512, r + k - 1 <= 4096 windows pass in {elapsed:.3f}s",
    )


def test_criterion_2_ruler_cross_check():
    limit = 2**20
    mismatches = sum(1 for i in range(1, limit + 1) if ruler(i) != ruler_by_halving(i))

    table = PrefixTable.build(2**16)
    sums_ok = all(
        prefix_sum(2**k, table) == 2 ** (k + 1) - 1 for k in range(1, 17)
    )
    report(
        2,
        mismatches == 0 and sums_ok,
        f"bit-based ruler matches recursion for i <= 2^20; "
        f"prefix_sum(2^k) = 2^(k+1) - 1 for k <= 16",
    )


def test_criterion_3_shape_invariants():
    start = time.perf_counter()
    for n in range(2, 11):
        for m in range(n, n + 4):
            shape = build_disk(m, n)
            rects = shape.rects()
            assert len(shape.pieces) == 2 ** (n + 1) - 1, (m, n)
            assert shape.bounding_box() == Rect(0, 0, 2**n * m, 2 ** (n + 1) - n - 1)

            edges = {}
            for i, j in sweep_pairs(rects):
                assert not interiors_overlap(rects[i], rects[j]), (m, n, i, j)
                c = closed_contact(rects[i], rects[j])
                if c is not None and c.length >= 1:
                    edges[(min(i, j), max(i, j))] = c.length
            expected_path = {
                (i, i + 1): 1 for i in range(len(rects) - 1)
            }
            assert edges == expected_path, (m, n)

            cache = {}
            for level in range(1, n + 1):
                for copy in range(1, 2 ** (n - level) + 1):
                    ref = SubCopyRef(level=level, copy=copy)
                    if level not in cache:
                        cache[level] = build_disk(m, level)
                    assert extract_sub_copy(shape, ref) == cache[level], (m, n, level, copy)
                    assert sliced_sub_copy(shape, ref) == cache[level].pieces, (m, n, level, copy)
    elapsed = time.perf_counter() - start
    report(
        3,
        elapsed < 30.0,
        f"all shape invariants and recursive identities for n in 2..10, "
        f"m in n..n+3 in {elapsed:.1f}s",
    )


def test_criterion_4_lemma2_exhaustive():
    start = time.perf_counter()
    checked = 0
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for case in iter_lemma2_cases(m, n):
                A, B = lemma2_instance(case)
                assert union_interiors_disjoint(A, B), case
                checked += 1
    elapsed = time.perf_counter() - start
    report(
        4,
        elapsed < 60.0,
        f"{checked} lemma-2 cases all disjoint for m, n in {{2, 3, 4}} "
        f"in {elapsed:.1f}s",
    )


def covers_segment(contacts, a, b):
    for c in contacts:
        if c.kind == "horizontal-segment" and a[1] == b[1] == c.a[1]:
            if c.a[0] <= a[0] and b[0] <= c.b[0]:
                return True
        if c.kind == "vertical-segment" and a[0] == b[0] == c.a[0]:
            if c.a[1] <= a[1] and b[1] <= c.b[1]:
                return True
    return False


def test_criterion_5_theorem():
    start = time.perf_counter()
    for n in range(2, 11):
        for m in (n, n + 2):
            cert = verify_construction(m, n)
            assert cert.ok, (m, n)
            for v in cert.pair_verdicts:
                assert v.interiors_disjoint, (m, n, v.i, v.j)
                if v.i == 0:
                    assert v.segment_length_total >= 1, (m, n, v.j)

    cert = verify_construction(4, 3)
    offsets = [(t.dx, t.dy) for t in cert.offsets]
    assert offsets == [(0, -4), (0, 0), (17, 6), (26, 8)]
    v01 = next(v for v in cert.pair_verdicts if (v.i, v.j) == (0, 1))
    v02 = next(v for v in cert.pair_verdicts if (v.i, v.j) == (0, 2))
    assert covers_segment(v01.contacts, (15, 4), (16, 4))
    assert covers_segment(v02.contacts, (23, 7), (24, 7))
    elapsed = time.perf_counter() - start
    report(
        5,
        elapsed < 60.0,
        f"verify_construction ok for n in 2..10, m in {{n, n+2}}; (4, 3) "
        f"placements and contact segments match in {elapsed:.1f}s",
    )


def test_criterion_6_touching_heights():
    for n in range(2, 11):
        for i in range(1, n + 1):
            rep = verify_touching_heights(n, n, i)
            assert rep.offset_ok and rep.offset == rep.offset_expected, (n, i)
            assert rep.tallest_run.height == n + 2 - i, (n, i)
            assert rep.tallest_is_unique, (n, i)
            assert rep.ok, (n, i)
    report(6, True, "offsets (i-1, n+2-i) and unique tallest runs for n in 2..10, m = n")


def test_criterion_7_determinism_and_prefilter():
    cert_bytes_1 = serialize(verify_construction(5, 4))
    cert_bytes_2 = serialize(verify_construction(5, 4))
    svg_1 = render_svg(place_translates(5, 4))
    svg_2 = render_svg(place_translates(5, 4))

    agree = True
    for n in (2, 3, 4):
        m = n + 1
        shape = build_disk(m, n)
        scene = place_translates(m, n)
        placed = [[r.translate(t) for r in shape.rects()] for t in scene.offsets]
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                A, B = placed[i], placed[j]
                if union_interiors_disjoint(A, B) != naive_union_disjoint(A, B):
                    agree = False
    report(
        7,
        cert_bytes_1 == cert_bytes_2 and svg_1 == svg_2 and agree,
        "byte-identical certificates and SVGs; prefilter agrees with naive "
        "all-pairs for n <= 4",
    )
