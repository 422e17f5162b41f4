import random
import tracemalloc
from functools import partial
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from translate_kiss import (
    ConstructionBroken,
    ContractViolation,
    Lemma2Case,
    ParameterError,
    PrefixTable,
    Rect,
    Scene,
    Vec2,
    build_disk,
    check_lemma2_exhaustive,
    iter_lemma2_cases,
    place_translates,
    prefix_sum,
    ruler,
    theorem_pair_witness,
    union_interiors_disjoint,
)
from translate_kiss import disk, placement
from translate_kiss.rect import _rect_array

from oracles import (
    lemma2_instance,
    pass_every_step,
    pass_lemma2_exhaustive,
    rect_column_profile,
    scan_pair_witness,
    sweep_lemma2_exhaustive,
)


class FakeDisk:
    """Rects standing in for a disk: a Shape is its (m, n), so a disk whose
    rects differ from the closed form can only be faked."""

    def __init__(self, pieces):
        self.pieces = tuple(pieces)
        self.rows = _rect_array(self.pieces)

    def rects(self):
        return list(self.pieces)


def patch_disk(monkeypatch, shape):
    """Make shape the disk that build_disk gives, so that the oracles, which
    call disk.build_disk, and check_lemma2_exhaustive, which reads its rows,
    all see it."""
    for module in (disk, placement):
        monkeypatch.setattr(module, "build_disk", lambda m, n: shape)


def patch_sums(monkeypatch, sums):
    """Make sums[i] the bar heights S(i) that the disk and the case offsets
    both read."""
    for module in (disk, placement):
        monkeypatch.setattr(module, "ruler_sum", sums.__getitem__)
    # the disk's rows read their heights in one call
    monkeypatch.setattr(disk, "_ruler_sums", lambda k: np.array(sums[:k], np.int64))


def patch_random_staircase(monkeypatch, seed):
    """Connector heights drawn from 1..4 instead of the ruler sequence, for a
    random (m, n), which is returned; most such staircases fail, so the first
    failing case is compared too."""
    rng = random.Random(seed)
    m, n = rng.randint(2, 5), rng.randint(2, 4)
    patch_sums(monkeypatch, [0, *accumulate(rng.randint(1, 4) for _ in range(2**n - 1))])
    return m, n


def patch_shifted_columns(monkeypatch, seed):
    """A random (m, n) disk, which is returned, cut into unit columns, one to
    three of them moved up or down: these fail at ystar > 1 too, unlike the
    staircases above."""
    rng = random.Random(seed)
    m, n = rng.randint(2, 5), rng.randint(2, 4)
    cols = {}
    for r in build_disk(m, n).rects():
        for x in range(r.x0, r.x1):
            lo, hi = cols.get(x, (r.y0, r.y1))
            cols[x] = (min(lo, r.y0), max(hi, r.y1))
    for x in rng.sample(sorted(cols), rng.randint(1, 3)):
        k = rng.choice([-3, -2, -1, 1, 2, 3, 4, 5])
        cols[x] = (cols[x][0] + k, cols[x][1] + k)
    pieces = (Rect(x, lo, x + 1, hi) for x, (lo, hi) in cols.items())
    patch_disk(monkeypatch, FakeDisk(pieces))
    return m, n


def patch_free_heights(monkeypatch, seed):
    """A random (m, n), which is returned, whose disk is one column range
    per unit column, each one to three cells high at a height drawn from
    -8..40: most of them overlap at once."""
    rng = random.Random(seed)
    m, n = rng.randint(2, 5), rng.randint(2, 4)
    heights = [rng.randint(-8, 40) for _ in range(m * 2**n)]
    patch_disk(monkeypatch, FakeDisk(Rect(x, y, x + 1, y + rng.randint(1, 3)) for x, y in enumerate(heights)))
    return m, n


def patch_flat_strip(monkeypatch):
    """A (2, 2) strip two cells high, which overlaps at case (1, 1, 1)."""
    patch_disk(monkeypatch, FakeDisk([Rect(0, 0, 8, 2)]))
    return 2, 2


def patch_lifted_strip(monkeypatch, lift):
    """A flat (2, 2) strip whose first column floats at height h = 6 + lift:
    for r = 1 the only overlap is at ystar = h, so the cut at the last ystar
    (6 here) shows; for r = 2 the flat part overlaps at ystar = 1."""
    h = 6 + lift
    patch_disk(monkeypatch, FakeDisk((Rect(0, h, 1, h + 1), Rect(1, 0, 8, 1))))
    return 2, 2


def patch_late_failure(monkeypatch):
    """(3, 2) with one cell per column, ten apart: every shift clears but
    the last, dx = 11 = (4 - 1) 3 + 2, which puts column 0 (lifted by S(3) =
    4) one cell into the low last column."""
    heights = [*range(0, 110, 10), 3]
    patch_disk(monkeypatch, FakeDisk(Rect(x, y, x + 1, y + 1) for x, y in enumerate(heights)))
    return 3, 2


def patch_empty_column(monkeypatch):
    """The (4, 3) disk with column 5, inside bar 2, cut out of it."""
    pieces = build_disk(4, 3).rects()
    bar = pieces[2]
    pieces[2:3] = [Rect(bar.x0, bar.y0, 5, bar.y1), Rect(6, bar.y0, bar.x1, bar.y1)]
    patch_disk(monkeypatch, FakeDisk(pieces))
    return 4, 3


# disks off the staircase, each with the (r, xstar, ystar) both oracles
# find on it, "agree" where they are only held to each other, or None where
# a test of its own compares them (shifted columns, lifted strips) or the
# oracles' column profile refuses it (an empty column)
NOT_STAIRCASES = [
    *(pytest.param(partial(patch_shifted_columns, seed=seed), None, id=f"shifted-{seed}") for seed in range(40)),
    *(pytest.param(partial(patch_free_heights, seed=seed), "agree", id=f"free-{seed}") for seed in range(40)),
    pytest.param(patch_flat_strip, (1, 1, 1), id="flat-strip"),
    *(pytest.param(partial(patch_lifted_strip, lift=lift), None, id=f"lifted-strip{lift:+d}") for lift in (-1, 0, 1)),
    pytest.param(patch_late_failure, (4, 2, 1), id="late-failure"),
    pytest.param(patch_empty_column, None, id="empty-column"),
]


class TestPlaceTranslates:
    def test_offsets_4_3(self):
        scene = place_translates(4, 3)
        assert scene.offsets == (
            Vec2(0, -4),
            Vec2(0, 0),
            Vec2(17, 6),
            Vec2(26, 8),
        )

    def test_a_scene_is_its_m_and_n(self):
        assert Scene(5, 4) == place_translates(5, 4)
        assert hash(Scene(5, 4)) == hash(place_translates(5, 4))
        assert Scene(2, 4) == place_translates(2, 4)  # m < n is a scene, whose verdict may FAIL
        with pytest.raises(ParameterError):
            Scene(1, 4)

    def test_a0_always_down_by_n_plus_1(self):
        for m, n in [(2, 2), (4, 3), (5, 5), (8, 6)]:
            assert place_translates(m, n).offsets[0] == Vec2(0, -(n + 1))

    def test_x_strictly_increasing(self):
        scene = place_translates(7, 6)
        xs = [t.dx for t in scene.offsets[1:]]
        assert xs == sorted(xs) and len(set(xs)) == len(xs)

    def test_closed_form_deltas(self):
        # recursion must reproduce the closed form step by step
        for n in range(2, 13):
            for m in range(n, n + 4):
                scene = place_translates(m, n)
                for i in range(2, n + 1):
                    delta = scene.offsets[i] - scene.offsets[i - 1]
                    assert delta == Vec2(
                        2 ** (n + 1 - i) * m + 1, 2 ** (n + 2 - i) - 2
                    )

    def test_deterministic(self):
        assert place_translates(6, 4) == place_translates(6, 4)

    def test_hypotheses_enforced(self):
        with pytest.raises(ParameterError):
            place_translates(4, 1)
        with pytest.raises(ParameterError):
            place_translates(1, 4)


class TestLemma2:
    def test_case_validation(self):
        with pytest.raises(ParameterError):
            Lemma2Case(m=2, n=2, r=0, xstar=1, ystar=1)
        with pytest.raises(ParameterError):
            Lemma2Case(m=2, n=2, r=1, xstar=2, ystar=1)
        with pytest.raises(ParameterError):
            Lemma2Case(m=2, n=2, r=1, xstar=1, ystar=0)
        with pytest.raises(ParameterError):
            Lemma2Case(m=4, n=1, r=1, xstar=1, ystar=1)
        with pytest.raises(ParameterError):
            Lemma2Case(m=2, n=21, r=1, xstar=1, ystar=1)
        with pytest.raises(ParameterError):
            Lemma2Case(m=2**40, n=20, r=1, xstar=1, ystar=1)

    def test_instance_offset_trivial(self):
        A, B = lemma2_instance(Lemma2Case(m=2, n=2, r=1, xstar=1, ystar=1))
        assert B[0] == A[0].translate(Vec2(1, -1))

    def test_instance_offset_4_3(self):
        A, B = lemma2_instance(Lemma2Case(m=4, n=3, r=5, xstar=3, ystar=2))
        # first bar of the shifted copy sits on bar 5 moved right 3, down 2
        shape = build_disk(4, 3)
        b5 = shape.pieces[8]  # bar k sits at position 2 (k - 1)
        assert B[0] == b5.translate(Vec2(3, -2))
        assert B[0].x0 - A[0].x0 == 19
        assert B[0].y0 - A[0].y0 == 5

    def test_sampled_cases_disjoint(self):
        for case in [
            Lemma2Case(m=3, n=2, r=2, xstar=1, ystar=1),
            Lemma2Case(m=3, n=2, r=4, xstar=2, ystar=3),
            Lemma2Case(m=4, n=3, r=1, xstar=3, ystar=1),
            Lemma2Case(m=4, n=3, r=8, xstar=1, ystar=9),
        ]:
            A, B = lemma2_instance(case)
            assert union_interiors_disjoint(A, B)

    def test_offset_matches_prefix_table(self):
        for m, n in [(2, 2), (3, 3), (5, 4)]:
            table = PrefixTable.build(2**n)
            for case in iter_lemma2_cases(m, n):
                assert case.offset == Vec2(
                    (case.r - 1) * m + case.xstar, prefix_sum(case.r - 1, table) - case.ystar
                )

    def test_exhaustive_small(self):
        assert check_lemma2_exhaustive(2, 2) is None
        assert check_lemma2_exhaustive(3, 2) is None

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_profile_matches_built_disk(self, n):
        # the built disk is the staircase of the ruler sums, which
        # check_lemma2_exhaustive's reduction needs
        for m in sorted({2, 3, n, n + 1, n + 2} - {1}):
            heights = disk._staircase_heights(build_disk(m, n).rows, m, n)
            assert heights is not None and np.array_equal(heights, disk._ruler_sums(2**n))

    def test_work_bound(self, monkeypatch):
        # (15, 15) runs; n = 16 is past Lemma 1's window bound and m > 2^20
        # at n = 2 past the column cap, so the sentinel disk is never built
        assert check_lemma2_exhaustive(15, 15) is None

        class Walked(Exception):
            pass

        def walked(m, n):
            raise Walked

        monkeypatch.setattr(placement, "build_disk", walked)
        for m, n in ((2, 16), (2, 17)):
            with pytest.raises(ParameterError, match=f"^lemma 2 at n = {n} takes .* window sums"):
                check_lemma2_exhaustive(m, n)
        for m in (2**20 + 1, 2**23):
            with pytest.raises(ParameterError, match="columns"):
                check_lemma2_exhaustive(m, 2)
        with pytest.raises(Walked):
            check_lemma2_exhaustive(2**20, 2)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_profile_matches_sweep(self, n):
        for m in range(2, 7):
            assert check_lemma2_exhaustive(m, n) == sweep_lemma2_exhaustive(m, n)

    @pytest.mark.parametrize("seed", range(40))
    def test_profile_matches_sweep_on_random_staircases(self, monkeypatch, seed):
        m, n = patch_random_staircase(monkeypatch, seed)
        assert check_lemma2_exhaustive(m, n) == sweep_lemma2_exhaustive(m, n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_real_disks_match_the_pass_oracle(self, n):
        for m in range(2, 9):
            assert check_lemma2_exhaustive(m, n) == pass_lemma2_exhaustive(m, n)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_windows_match_the_pass_oracle_on_random_staircases(self, data):
        # connector heights drawn from 1..5, or the ruler's with one or two
        # terms moved, staying at least 1; every step up to 4 m, past
        # Lemma 2's m - 1, has the windows' verdict too
        m, n = data.draw(st.integers(2, 6), "m"), data.draw(st.integers(2, 5), "n")
        if data.draw(st.booleans(), "free"):
            terms = data.draw(st.lists(st.integers(1, 5), min_size=2**n - 1, max_size=2**n - 1), "terms")
        else:
            terms = [ruler(i) for i in range(1, 2**n)]
            for i in data.draw(st.lists(st.integers(0, 2**n - 2), min_size=1, max_size=2), "moved"):
                terms[i] = max(terms[i] + data.draw(st.integers(-3, 3)), 1)
        with pytest.MonkeyPatch.context() as patched:
            patch_sums(patched, [0, *accumulate(terms)])
            got = check_lemma2_exhaustive(m, n)
            assert got == pass_lemma2_exhaustive(m, n)
            assert (got is None) == (pass_every_step(m, n, 4 * m) is None)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_no_step_overlaps_on_real_disks(self, n):
        # the bar-r step (r - 1) m + x moved down by any ystar >= 1 is
        # disjoint for every x up to 4 m, not only Lemma 2's x <= m - 1
        for m in range(2, 7):
            assert pass_every_step(m, n, 4 * m) is None

    @pytest.mark.parametrize("seed", range(40))
    def test_profile_matches_sweep_on_shifted_columns(self, monkeypatch, seed):
        # check_lemma2_exhaustive refuses such a disk (below), so the per-shift
        # pass over its column profile is held to the rect sweep here; moved
        # columns fail at ystar > 1 too
        m, n = patch_shifted_columns(monkeypatch, seed)
        assert pass_lemma2_exhaustive(m, n) == sweep_lemma2_exhaustive(m, n)

    @pytest.mark.parametrize("lift, expected", [(-1, (1, 1, 5)), (0, (1, 1, 6)), (1, (2, 1, 1))])
    def test_profile_stops_at_the_last_ystar(self, monkeypatch, lift, expected):
        m, n = patch_lifted_strip(monkeypatch, lift)
        got = pass_lemma2_exhaustive(m, n)
        assert (got.r, got.xstar, got.ystar) == expected
        assert got == sweep_lemma2_exhaustive(m, n)

    @pytest.mark.parametrize("patch, want", NOT_STAIRCASES)
    def test_a_profile_off_the_staircase_raises(self, monkeypatch, patch, want):
        m, n = patch(monkeypatch)
        with pytest.raises(ContractViolation, match="^the disk is not the staircase of the bar heights S"):
            check_lemma2_exhaustive(m, n)
        if want is not None:  # both oracles read the patched disk
            got = pass_lemma2_exhaustive(m, n)
            assert got == sweep_lemma2_exhaustive(m, n)
            assert want == "agree" or (got.r, got.xstar, got.ystar) == want

    def test_bar_heights_and_width_are_checked(self):
        # the reduction needs S(0) = 0, terms of at least 1 and the rows of
        # 2^n bars of width m
        for sums in ([0, 1, 1, 3], [1, 2, 4, 5]):
            with pytest.MonkeyPatch.context() as patched:
                patch_sums(patched, sums)
                with pytest.raises(ContractViolation, match="not the staircase of the bar heights S"):
                    check_lemma2_exhaustive(2, 2)
        rows = build_disk(2, 2).rows
        for cut in (rows[:-1], rows[:-2], disk._staircase_rows(3, rows[0::2, 1])):
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(disk.Shape, "rows", property(lambda shape: cut))
                with pytest.raises(ContractViolation, match="not the staircase of the bar heights S"):
                    check_lemma2_exhaustive(2, 2)

    def test_memory_is_bounded_at_width(self):
        # 2^20 columns peak within 1.5 times 2^11 columns: the check reads
        # the disk's 2^(n+1) - 1 rows, whose number does not grow with m
        def peak(m, n):
            tracemalloc.start()
            try:
                assert check_lemma2_exhaustive(m, n) is None
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2**10, 10) <= 1.5 * peak(2, 10)

    def test_column_with_a_gap_raises(self):
        # the rect-derived profile is the evidence that the built disk is
        # vertically convex, so it must notice a column that is not
        good = build_disk(4, 3).rects()
        broken = [good[0], good[1].translate(Vec2(0, 1)), *good[2:]]
        with pytest.raises(ConstructionBroken):
            rect_column_profile(_rect_array(broken))

    def test_parameter_errors(self):
        for m, n in [(1, 3), (3, 1), (2, 0), (3, 21)]:
            with pytest.raises(ParameterError):
                check_lemma2_exhaustive(m, n)

    def test_case_enumeration_bounds(self):
        height = build_disk(3, 2).bounding_box().height
        cases = list(iter_lemma2_cases(3, 2))
        assert len(cases) == 4 * 2 * (height + 1)
        assert max(c.ystar for c in cases) == height + 1
        for n in range(3, 8):
            *_, last = iter_lemma2_cases(2, n)
            assert last.ystar == build_disk(2, n).bounding_box().height + 1

    def test_shifting_left_would_overlap(self):
        # xstar = 0 is excluded for a reason: stacking straight down overlaps
        shape = build_disk(2, 2)
        A = shape.rects()
        B = [r.translate(Vec2(0, -1)) for r in A]
        assert not union_interiors_disjoint(A, B)


class TestTheoremPairWitness:
    def test_witnesses_4_3(self):
        w = theorem_pair_witness(4, 3, 1, 2)
        assert (w.level, w.copy, w.bar_index) == (2, 2, 5)
        assert (w.xstar, w.ystar) == (1, 1)

        w = theorem_pair_witness(4, 3, 2, 3)
        assert (w.level, w.copy) == (1, 2)
        assert (w.xstar, w.ystar) == (1, 1)

        w = theorem_pair_witness(4, 3, 1, 3)
        assert (w.level, w.copy) == (1, 4)
        assert (w.xstar, w.ystar) == (2, 2)

    def test_all_pairs_have_witnesses(self):
        for m, n in [(2, 2), (4, 3), (5, 5), (6, 6)]:
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    w = theorem_pair_witness(m, n, i, j)
                    assert w.xstar == w.ystar == j - i
                    assert 1 <= w.xstar <= m - 1
                    assert w.bar_index == (w.copy - 1) * 2**w.level + 1

    @pytest.mark.parametrize("n", range(4, 11))
    def test_witnesses_at_m_n_minus_2(self, n):
        # the scene FAILs at m = n - 2, yet every pair among A_1..A_n still
        # steps off a sub-copy by j - i, past Lemma 2's xstar <= m - 1 when j - i >= m
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                w = theorem_pair_witness(n - 2, n, i, j)
                assert w.xstar == w.ystar == j - i

    def test_invalid_pair(self):
        with pytest.raises(ParameterError):
            theorem_pair_witness(4, 3, 2, 2)
        with pytest.raises(ParameterError):
            theorem_pair_witness(4, 3, 0, 1)

    def test_solve_matches_copy_scan(self):
        for n in range(2, 11):
            table = PrefixTable.build(2**n)
            for m in (n, n + 1, n + 2):
                scene = place_translates(m, n)
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        expected = scan_pair_witness(scene, table, i, j)
                        assert expected is not None
                        assert theorem_pair_witness(m, n, i, j) == expected

    @pytest.mark.parametrize(
        "nudge",
        [
            Vec2(1, 0),  # dx not a multiple of m
            Vec2(4, 0),  # first bar not at a level boundary
            Vec2(8, 0),  # a real copy, but the wrong one: dy disagrees
            Vec2(0, 1),  # the right copy, shifted up
            Vec2(-16, 0),  # copy 0
            Vec2(24, 0),  # copy 5 of 4
        ],
    )
    def test_broken_scene_raises(self, monkeypatch, nudge):
        m, n = 4, 3
        good = place_translates(m, n)
        # a Scene derives its offsets from (m, n), so the broken one is a stand-in
        broken = SimpleNamespace(m=m, n=n, offsets=good.offsets[:3] + (good.offsets[3] + nudge,))
        monkeypatch.setattr(placement, "place_translates", lambda m, n: broken)
        assert theorem_pair_witness(m, n, 1, 2).copy == 2
        with pytest.raises(ConstructionBroken):
            theorem_pair_witness(m, n, 2, 3)

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (4, 3), (2, 4), (4, 4), (5, 4), (3, 5)])
    def test_nudged_scenes_match_copy_scan(self, monkeypatch, m, n):
        # A_j moved by every (dx, dy) within two level copies and two rows, and
        # onto each level copy of A_i: the witness is the scan's, and it raises
        # exactly where the scan finds none
        good = place_translates(m, n)
        table = PrefixTable.build(2**n)
        scene = []
        monkeypatch.setattr(placement, "place_translates", lambda m, n: scene[0])
        found = missed = 0
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                level = n + 1 - j
                reach = 2 * m * 2**level
                nudges = {Vec2(dx, dy) for dx in range(-reach, reach + 1) for dy in range(-2, 3)}
                target = good.offsets[j] - good.offsets[i] - Vec2(j - i, i - j)
                for first in range(0, 2**n, 2**level):
                    nudges.add(Vec2(first * m, prefix_sum(first, table)) - target)
                for nudge in nudges:
                    offsets = good.offsets[:j] + (good.offsets[j] + nudge,) + good.offsets[j + 1 :]
                    scene[:] = [SimpleNamespace(m=m, n=n, offsets=offsets)]
                    expected = scan_pair_witness(scene[0], table, i, j)
                    if expected is None:
                        missed += 1
                        with pytest.raises(ConstructionBroken):
                            theorem_pair_witness(m, n, i, j)
                    else:
                        found += 1
                        assert theorem_pair_witness(m, n, i, j) == expected
        assert found == sum(2 ** (j - 1) for j in range(2, n + 1) for i in range(1, j)) and missed
